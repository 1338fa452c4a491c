"""Command-line interface.

Subcommands: price-spx, price-vix, calibrate, imvol-surface, validate,
error-report, make-synthetic.  A flat KEY=value config file supplies
value flags: its keys that the subcommand has flags for are parsed as
that subcommand's first flags, so explicit flags win and a value of the
wrong type is a usage error.  Exit codes: 0 success, 1 usage, 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__, data
from .calibration import CalibrationConfig, calibrate_heston, calibrate_msv
from .data import (apply_filters, error_report, load_quotes,
                   make_synthetic_quotes, split_train_test, to_date_slices,
                   write_error_table_csv, write_quotes_csv)
from .exceptions import DataError, DomainError, MssvError, NoRootError
from .impvol import bs_implied_vol, vix_normal_implied_vol, write_surface_csv
from .mc import McConfig, McModelParams, mc_price_strikes
from .mc import (mc_price_spx_strikes,  # noqa: F401  perfbench's tracer
                 mc_price_vix_strikes)  # noqa: F401  patches both
from .model import (HiddenState, ModelParams, QuadratureConfig, Quote,
                    price_quotes, vix_from_state, vix_limit_from_z)
from .spx import price_heston_call_batch, price_spx_strike_batch
from .vix import price_vix_heston_strike_batch, price_vix_strike_batch

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERICAL = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _g(x: float) -> str:
    return f"{x:.10g}"


def read_config(path) -> dict:
    """Flat KEY=value file; blank lines and # comments ignored.  A key
    that no subcommand reads is a data error."""
    out = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DataError(f"bad config line: {line!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    unknown = sorted(set(out) - _CONFIG_KEYS)
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(unknown)}")
    return out


_PARAM_KEYS = ("kappa", "theta", "sigma", "rho", "epsilon", "w3_eps", "r")
_QUAD_KEYS = ("abs_tol", "rel_tol")
_MC_KEYS = ("paths", "seed", "steps_per_eps")
#: the value flags a config file may set, across all subcommands (one
#: shared file)
_CONFIG_KEYS = frozenset(_PARAM_KEYS + _QUAD_KEYS + _MC_KEYS + (
    "x", "y", "z", "eta", "uncorrected_z", "max_iter", "restarts",
    "state_seed"))
#: the default of each value flag that has one
_DEFAULTS = {**asdict(QuadratureConfig()), **asdict(CalibrationConfig()),
             **asdict(McConfig()),
             "r": 0.02, "x": 2000.0, "eta": -1.0, "seed": 0, "state_seed": 1}


def _model_params(args) -> ModelParams:
    for key in _PARAM_KEYS:
        if getattr(args, key) is None:
            raise DataError(f"missing model parameter {key!r} (flag or config)")
    return ModelParams(**{key: getattr(args, key) for key in _PARAM_KEYS})


def _state(args) -> HiddenState:
    if args.y is None or args.z is None:
        raise DataError("hidden state requires --y and --z")
    return HiddenState(y=args.y, z=args.z)


def _floats(text) -> list[float]:
    return [float(t) for t in str(text).split(",") if t]


def _at_least_one(count, flags):
    """DataError naming flags unless their grid size or date count is >= 1."""
    if count < 1:
        raise DataError(f"{flags}: need at least 1, got {count}")


def _grid(strikes, taus, is_call=True) -> list[Quote]:
    """Unpriced quotes on a strike x maturity grid, maturity-major."""
    return [Quote(k, tau, is_call, math.nan) for tau in taus for k in strikes]


def _print_decomps(strikes, decomps):
    print("strike      leading          correction       total")
    for k, d in zip(strikes, decomps):
        warn = "  [short-maturity: asymptotics not trusted]" \
            if d.short_maturity_warning else ""
        print(f"{_g(k):<11} {_g(d.leading):<16} {_g(d.correction):<16} "
              f"{_g(d.total)}{warn}")


def _flags(p, keys, cast=float):
    """Optional --key flags (underscores as dashes) of type cast, each
    defaulting to its _DEFAULTS entry or None."""
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", type=cast, dest=key,
                       default=_DEFAULTS.get(key))


def _add_param_flags(p, *keys):
    """--config, the model and quadrature flags, and float flags keys."""
    p.add_argument("--config", help="flat KEY=value config file")
    _flags(p, _PARAM_KEYS + _QUAD_KEYS + keys)


def _add_quote_flags(p):
    p.add_argument("--quotes", required=True)
    p.add_argument("--split-date", type=dt.date.fromisoformat)
    p.add_argument("--use", choices=["train", "test"], default="train")
    p.add_argument("--no-filters", action="store_true")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _two_factor(quotes, state, params, quad, spot=None, leading_only=False):
    """Two-factor decompositions of quotes: of SPX options at spot, or of
    VIX options when spot is None.  leading_only prices the leading term
    alone: SPX at w3_eps = 0, VIX without its correction rows."""
    if spot is None:
        return price_quotes(quotes, lambda ks, tau: price_vix_strike_batch(
            ks, tau, state, params, quad, not leading_only), params.r)
    p = replace(params, w3_eps=0.0) if leading_only else params
    return price_quotes(quotes, lambda ks, tau: price_spx_strike_batch(
        spot, ks, tau, state, p, quad), params.r, spot)


def cmd_price(args):
    """price-spx (with --x) and price-vix: the --strikes grid at --tau."""
    strikes = args.strikes
    _at_least_one(len(strikes), "--strikes")
    params, state = _model_params(args), _state(args)
    quad = QuadratureConfig(args.abs_tol, args.rel_tol)
    _print_decomps(strikes, _two_factor(
        _grid(strikes, [args.tau], not args.put), state, params, quad,
        getattr(args, "x", None), getattr(args, "uncorrected", False)))
    return EXIT_OK


def _load_quotes(args):
    quotes, rejects = load_quotes(args.quotes)
    if rejects:
        print(f"rejected {len(rejects)} malformed rows "
              f"(first: line {rejects[0].line}: {rejects[0].reason})",
              file=sys.stderr)
    if not args.no_filters:
        quotes, stats = apply_filters(quotes)
        print(f"filters: kept {stats.kept}, removed "
              f"{stats.removed_by_volume} by volume, "
              f"{stats.removed_by_price} by price, "
              f"{stats.removed_by_expiry} by expiry", file=sys.stderr)
    if split := args.split_date:
        train, test = split_train_test(quotes, split)
        quotes = train if args.use == "train" else test
        print(f"split at {split}: using {args.use} set "
              f"({len(quotes)} quotes)", file=sys.stderr)
    if not quotes:
        raise DataError("no quotes left after filtering/splitting")
    return quotes


def _round_floats(obj, digits=10):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def cmd_calibrate(args):
    if not os.access(os.path.dirname(os.path.abspath(args.out)), os.W_OK):
        raise DataError(f"cannot write {args.out}: no writable directory")
    cfg = CalibrationConfig(args.max_iter, args.restarts, args.seed)
    quad = QuadratureConfig(args.abs_tol, args.rel_tol)
    slices = to_date_slices(_load_quotes(args))
    fit = calibrate_heston if args.model == "heston" else calibrate_msv
    result = fit(slices, cfg, quad, r=args.r)
    doc = _round_floats(result.as_dict())
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {args.out}")
    for key, val in result.params.items():
        print(f"{key} = {_g(val)}")
    obj1, obj2 = result.step_objectives
    print(f"objectives: step1 = {_g(obj1)}, "
          f"step2 = {'skipped' if obj2 is None else _g(obj2)}")
    for run in result.restarts:
        if run["step"] == "step1" and not run["success"]:
            print(f"step1 restart {run['restart']} unconverged: {run['message']}")
    if result.n_skipped_dates:
        print(f"skipped dates: {result.n_skipped_dates}")
    for skip in result.skipped_dates:
        lost = " (charged, not fitted, in step 2)" if "step" in skip else ""
        print(f"  {skip['date']}: {skip['error']}{lost}")
    return EXIT_OK


def _vols(invert, grid, prices, n_strikes):
    """Implied vols of a maturity-major grid as a strike x maturity array;
    nan where invert(price, strike, tau) finds no root."""
    vols = []
    for q, d in zip(grid, prices):
        try:
            vols.append(invert(d.total, q.strike, q.tau))
        except NoRootError:
            vols.append(math.nan)
    return np.array(vols).reshape(-1, n_strikes).T


def cmd_imvol_surface(args):
    strikes, taus = args.strikes, args.taus
    _at_least_one(len(strikes), "--strikes")
    _at_least_one(len(taus), "--taus")
    params, state = _model_params(args), _state(args)
    quad = QuadratureConfig(args.abs_tol, args.rel_tol)
    z0 = state.z if args.uncorrected_z is None else args.uncorrected_z
    grid, spot = _grid(strikes, taus), (args.x if args.kind == "spx" else None)
    # the uncorrected surface is the leading term at (z0, z0)
    prices = (_two_factor(grid, state, params, quad, spot),
              _two_factor(grid, HiddenState(y=z0, z=z0), params, quad, spot,
                          leading_only=True))
    if spot is None:
        inverts = [lambda p, k, tau, level=level: vix_normal_implied_vol(
            p, level, k, tau) for level in (vix_from_state(state, params),
                                            vix_limit_from_z(z0, params))]
    else:
        inverts = 2 * [lambda p, k, tau: bs_implied_vol(p, spot, k, tau,
                                                        params.r)]
    corrected, uncorrected = (_vols(invert, grid, d, len(strikes))
                              for invert, d in zip(inverts, prices))

    write_surface_csv(args.out_corrected, strikes, taus, corrected)
    write_surface_csv(args.out_uncorrected, strikes, taus, uncorrected)
    write_surface_csv(args.out_diff, strikes, taus, corrected - uncorrected)
    print(f"wrote {args.out_corrected}, {args.out_uncorrected}, {args.out_diff}")
    return EXIT_OK


def _print_mc_rows(strikes, ests, analytic) -> int:
    """Analytic-against-Monte-Carlo rows; returns the count outside 3 SE.
    A strike no path ended in the money has a zero SE and no dev/se."""
    print("strike      analytic         mc               se            dev/se")
    outside = 0
    for k, est, d in zip(strikes, ests, analytic):
        if est.standard_error == 0:
            dev, flag = "nan", "  NO PATH IN THE MONEY"
        else:
            ratio = (d.total - est.mean) / est.standard_error
            dev = f"{ratio:+.2f}"
            flag = "" if abs(ratio) <= 3 else "  OUTSIDE 3SE"
            outside += abs(ratio) > 3
        print(f"{_g(k):<11} {_g(d.total):<16} {_g(est.mean):<16} "
              f"{_g(est.standard_error):<13} {dev}{flag}")
    return outside


def cmd_validate(args):
    spx_strikes, vix_strikes = args.spx_strikes, args.vix_strikes
    _at_least_one(len(spx_strikes) + len(vix_strikes),
                  "--spx-strikes or --vix-strikes")
    params, state, x = _model_params(args), _state(args), args.x
    quad = QuadratureConfig(args.abs_tol, args.rel_tol)
    mc_cfg = McConfig(args.paths, args.seed, args.steps_per_eps)
    mp = McModelParams(params, eta=args.eta)
    # every leg's maturity, before the first simulation prints anything
    for tau, strikes in ((args.spx_tau, spx_strikes),
                         (args.vix_tau, vix_strikes)):
        if strikes and not 0 < tau < math.inf:
            raise DomainError(
                f"horizon must be positive and finite, got {tau}")
    failures = 0

    # grids at one maturity are priced off one path set
    shared = bool(spx_strikes) and args.spx_tau == args.vix_tau
    if spx_strikes:
        tau = args.spx_tau
        spx_ests, vix_ests = mc_price_strikes(
            mp, state, tau, mc_cfg, x, spx_strikes,
            vix_strikes if shared else ())
        analytic = _two_factor(_grid(spx_strikes, [tau]), state, params,
                               quad, x)
        print(f"SPX tau={_g(tau)} x={_g(x)} paths={mc_cfg.paths} "
              f"(eta={_g(mp.eta)}, nu={_g(mp.nu)})")
        failures += _print_mc_rows(spx_strikes, spx_ests, analytic)

    if vix_strikes:
        tau = args.vix_tau
        if not shared:
            _, vix_ests = mc_price_strikes(mp, state, tau, mc_cfg,
                                           vix_strikes=vix_strikes)
        analytic = _two_factor(_grid(vix_strikes, [tau]), state, params,
                               quad)
        print(f"VIX tau={_g(tau)} paths={mc_cfg.paths}")
        failures += _print_mc_rows(vix_strikes, vix_ests, analytic)
    print(f"points outside 3 SE: {failures}")
    return EXIT_OK


def _read_result(path, model, params_of, state_of):
    """(params, {date: state}) of a calibration result file of model,
    through params_of(its params) and state_of(each state); DataError
    naming the file if it is not JSON, is another model's result, lacks a
    key or value they need or has a value they reject."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
            if doc["model"] != model:
                raise DataError(f"calibration result {path} is of model "
                                f"{doc['model']!r}, not {model!r}")
            return (params_of(doc["params"]),
                    {s["date"]: state_of(s) for s in doc["states"]})
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"bad calibration result {path}: "
                            f"{type(exc).__name__}: {exc}") from exc


def _heston_params(p):
    """A benchmark result's parameters, checked as ModelParams checks ours."""
    h = {k: p[k] for k in ("kappa", "theta", "sigma", "r")}
    rho = p.get("rho")
    if not all(map(math.isfinite, h.values())) \
            or min(h["kappa"], h["theta"], h["sigma"]) <= 0 \
            or not (rho is None or -1.0 <= rho <= 0.0):
        raise ValueError(f"need finite r, kappa, theta, sigma > 0 and rho "
                         f"absent or in [-1, 0], got {p}")
    return h | {"rho": rho}


def _heston_z(s):
    if not (math.isfinite(s["z"]) and s["z"] >= 0):
        raise ValueError(f"z must be finite and >= 0, got {s['z']}")
    return s["z"]


def cmd_error_report(args):
    quotes = _load_quotes(args)
    quad = QuadratureConfig(args.abs_tol, args.rel_tol)
    # a fit to quotes with no SPX quote skipped step 2 and has no rho or
    # w3_eps: it prices VIX quotes, which read neither, and no SPX quote
    h, h_z = _read_result(args.heston_result, "heston", _heston_params,
                          _heston_z)
    (params, m_spx), m_state = _read_result(
        args.msv_result, "msv",
        lambda p: (ModelParams(**{"rho": -0.5, "w3_eps": 0.0, **p}),
                   {"rho", "w3_eps"} <= set(p)),
        lambda s: HiddenState(y=s["y"], z=s["z"]))

    slices = to_date_slices(quotes)
    heston, ours, dates = [], [], set()
    for sl in slices:
        z, st, x = h_z.get(sl.date), m_state.get(sl.date), sl.spx_level
        if z is None or st is None:
            continue
        if sl.spx_quotes and (h["rho"] is None or not m_spx):
            raise DataError(f"{sl.date} has SPX quotes, but a calibration "
                            "result has no rho: it was fitted without them")
        dates.add(sl.date)
        heston += price_quotes(sl.vix_quotes, lambda ks, tau: (
            price_vix_heston_strike_batch(ks, tau, z, h["kappa"], h["theta"],
                                          h["sigma"], h["r"], quad)), h["r"])
        heston += price_quotes(sl.spx_quotes, lambda ks, tau: (
            price_heston_call_batch(x, ks, tau, h["r"], h["kappa"], h["theta"],
                                    h["sigma"], h["rho"], z, quad)), h["r"], x)
        ours += _two_factor(sl.vix_quotes, st, params, quad)
        ours += _two_factor(sl.spx_quotes, st, params, quad, x)
    if not dates:
        raise DataError("no dates shared by both calibration results")

    # the order of the slices' quotes: by date, VIX before SPX, each
    # underlying in file order
    priced = sorted((q for q in quotes if q.trade_date.isoformat() in dates),
                    key=lambda q: (q.trade_date, q.underlying_kind == "SPX"))
    rep_h = error_report([d.total for d in heston], priced)
    rep_m = error_report([d.total for d in ours], priced)
    write_error_table_csv(args.out, rep_h, rep_m)
    print(f"wrote {args.out} ({len(priced)} options, "
          f"{len(slices) - len(dates)} dates skipped)")
    for und in ("SPX", "VIX"):
        h = rep_h.cell(und, "total")
        m = rep_m.cell(und, "total")
        if h.count:
            ratio = 100 * m.mean / h.mean if h.mean else math.nan
            print(f"{und}: heston mean {_g(h.mean)}, ours mean {_g(m.mean)}, "
                  f"o/h {_g(ratio)}%")
    return EXIT_OK


def cmd_make_synthetic(args):
    _at_least_one(args.n_dates, "--n-dates")
    params = _model_params(args)
    for flag in ("noise", "seed", "state_seed"):
        if not (value := getattr(args, flag)) >= 0:
            raise DataError(f"--{flag.replace('_', '-')} must be >= 0, "
                            f"got {value}")
    rng = np.random.default_rng(args.state_seed)
    states = []
    for i in range(args.n_dates):
        date = args.start_date + dt.timedelta(days=7 * i)
        y = params.theta * math.exp(0.5 * rng.standard_normal())
        z = params.theta * math.exp(0.5 * rng.standard_normal())
        states.append((date.isoformat(), HiddenState(y=y, z=z)))
    quotes = make_synthetic_quotes(
        params, states, spx_level=args.x, noise=args.noise, seed=args.seed,
        quad=QuadratureConfig(args.abs_tol, args.rel_tol))
    write_quotes_csv(args.out, quotes)
    grid = (len(data.VIX_TAUS) * len(data.VIX_MONEYNESS)
            + len(data.SPX_TAUS) * len(data.SPX_MONEYNESS))
    print(f"wrote {args.out} ({len(quotes)} quotes, {args.n_dates} dates; "
          f"{grid * args.n_dates - len(quotes)} dropped at price <= 0)")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser(command: str) -> _Parser:
    """The parser with every subcommand and its help line, and the flags
    of command alone.  argparse sizes a help formatter to the terminal
    for each flag it adds, which made building every subcommand's flags
    most of a short run's cost."""
    p = _Parser(prog="mssv", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def flagged(name, line):
        """name's subparser if its flags are to be built, else None."""
        sp = sub.add_parser(name, help=line)
        return sp if name == command else None

    if sp := flagged("price-spx", "price SPX options on a strike grid"):
        _add_param_flags(sp, "y", "z")
        sp.add_argument("--x", type=float, required=True)
        sp.add_argument("--strikes", type=_floats, required=True,
                        help="comma-separated")
        sp.add_argument("--tau", type=float, required=True)
        sp.add_argument("--put", action="store_true")
        sp.set_defaults(func=cmd_price)

    if vp := flagged("price-vix", "price VIX options on a strike grid"):
        _add_param_flags(vp, "y", "z")
        vp.add_argument("--strikes", type=_floats, required=True)
        vp.add_argument("--tau", type=float, required=True)
        vp.add_argument("--put", action="store_true")
        vp.add_argument("--uncorrected", action="store_true",
                        help="leading term only (epsilon -> 0 surface)")
        vp.set_defaults(func=cmd_price)

    if cp := flagged("calibrate", "two-step calibration from quotes"):
        _add_param_flags(cp)
        _add_quote_flags(cp)
        cp.add_argument("--model", choices=["heston", "msv"], required=True)
        cp.add_argument("--out", required=True)
        _flags(cp, ("max_iter", "restarts", "seed"), int)
        cp.set_defaults(func=cmd_calibrate)

    if ip := flagged("imvol-surface",
                     "corrected/uncorrected implied-vol grids"):
        _add_param_flags(ip, "x", "y", "z", "uncorrected_z")
        ip.add_argument("--kind", choices=["spx", "vix"], required=True)
        ip.add_argument("--strikes", type=_floats, required=True)
        ip.add_argument("--taus", type=_floats, required=True)
        ip.add_argument("--out-corrected", required=True)
        ip.add_argument("--out-uncorrected", required=True)
        ip.add_argument("--out-diff", required=True)
        ip.set_defaults(func=cmd_imvol_surface)

    if vl := flagged("validate", "Monte Carlo vs analytic report"):
        _add_param_flags(vl, "x", "y", "z", "eta")
        vl.add_argument("--spx-strikes", type=_floats, default="",
                        dest="spx_strikes")
        vl.add_argument("--spx-tau", type=float, default=0.25, dest="spx_tau")
        vl.add_argument("--vix-strikes", type=_floats, default="",
                        dest="vix_strikes")
        vl.add_argument("--vix-tau", type=float, default=30 / 365,
                        dest="vix_tau")
        _flags(vl, _MC_KEYS, int)
        vl.set_defaults(func=cmd_validate)

    if ep := flagged("error-report",
                     "bucketed two-model error tables from quotes"):
        _add_param_flags(ep)
        _add_quote_flags(ep)
        ep.add_argument("--heston-result", required=True,
                        dest="heston_result")
        ep.add_argument("--msv-result", required=True, dest="msv_result")
        ep.add_argument("--out", required=True)
        ep.set_defaults(func=cmd_error_report)

    if mp := flagged("make-synthetic",
                     "generate a synthetic quote CSV from known parameters"):
        _add_param_flags(mp, "x")
        mp.add_argument("--out", required=True)
        mp.add_argument("--n-dates", type=int, default=6, dest="n_dates")
        mp.add_argument("--start-date", type=dt.date.fromisoformat,
                        default="2016-01-05", dest="start_date")
        mp.add_argument("--noise", type=float, default=0.0)
        _flags(mp, ("seed", "state_seed"), int)
        mp.set_defaults(func=cmd_make_synthetic)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no values, so its first word names the command
    parser = build_parser(next((a for a in argv if not a.startswith("-")),
                               ""))
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's keys that this subcommand has flags for, as its
            # first flags: explicit flags follow them and win
            at = argv.index(args.command) + 1
            argv[at:at] = [f"--{key.replace('_', '-')}={val}"
                           for key, val in read_config(args.config).items()
                           if hasattr(args, key)]
            args = parser.parse_args(argv)
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (MssvError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
