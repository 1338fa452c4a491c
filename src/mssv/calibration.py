"""Two-step joint calibration to VIX and SPX option quotes.

Step 1 fits the variance-process parameters to VIX options, with each
date's hidden state pinned to that date's VIX close: the one-factor
benchmark determines its state z_i uniquely, while the two-factor model
keeps one degree of freedom, resolved by a per-date one-dimensional fit
over the fast factor y_i (z_i follows from the VIX constraint).  Step 2
fits the index-leg parameters (rho for the benchmark, rho and w3_eps for
the two-factor model) to SPX options, holding step-1 output fixed.

Step 1 runs Nelder-Mead with seeded random restarts on logit-transformed
coordinates.  Step 2 is one bounded search over rho: SPX prices are
affine in w3_eps, so its optimum at each rho is closed-form (variable
projection).  The per-date terms of every objective evaluation, and the
per-date state recovery between the steps, are independent, so they run
on one process per usable core (at most one per date): each step forks
its workers once, they evaluate a fixed share of the dates, and the
terms come back to the calling process, which sums them in date order.
A date's term is the same number in any process, so fits are bitwise
reproducible for a given seed on any core count.
"""

from __future__ import annotations

import itertools
import math
import traceback
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import expit, logit

from .cores import usable_cores
from .exceptions import InfeasibleStateError, MssvError
from .model import (HiddenState, ModelParams, PriceDecomposition,
                    QuadratureConfig, vix_weights, y_max_for_vix,
                    z_from_vix_given_y, z_from_vix_heston)
from .spx import price_heston_call_batch, price_spx_strike_batch
from .vix import fixed_density_rule, price_vix_heston_strike_batch

_PENALTY = 1e8
#: order of the fitted parameters in a CalibrationResult
_PARAM_ORDER = ("kappa", "theta", "sigma", "rho", "epsilon", "w3_eps")


@dataclass(frozen=True)
class Quote:
    """One option observation reduced to what pricing needs."""

    strike: float
    tau: float
    is_call: bool
    price: float


@dataclass(frozen=True)
class DateSlice:
    """All quotes of one trade date plus that date's underlying closes."""

    date: str
    spx_level: float | None
    vix_level: float | None
    vix_quotes: tuple[Quote, ...] = ()
    spx_quotes: tuple[Quote, ...] = ()


#: Nelder-Mead tolerances, inner y-fit tolerance, price floor of the
#: weighted SSE and the parameter search box
_FTOL, _XTOL, _INNER_XTOL, _WEIGHT_FLOOR = 1e-9, 1e-6, 1e-6, 0.1
_BOUNDS = {"kappa": (1e-3, 20.0), "theta": (1e-5, 1.0), "sigma": (1e-3, 3.0),
           "rho": (-1.0, 0.0), "epsilon": (1e-4, 0.1), "w3_eps": (-0.5, 0.5)}


@dataclass(frozen=True)
class CalibrationConfig:
    """Optimizer iteration budget; restart count and seed of step 1."""

    max_iter: int = 200
    restarts: int = 3
    seed: int = 0


@dataclass
class CalibrationResult:
    model: str
    params: dict
    states: list
    step_objectives: list
    trace: list
    n_skipped_dates: int = 0
    #: {"date", "error"} of each date whose state recovery failed, in
    #: date order; "error" is the exception's class name
    skipped_dates: list = field(default_factory=list)
    #: {"step", "restart", "success", "nit", "nfev", "message"} of each
    #: step-1 Nelder-Mead restart and of step 2's one bounded search
    restarts: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def weighted_sse(model_prices, market_prices, floor: float = 0.1) -> float:
    """Sum of squared residuals scaled by 1/(floor + market price)."""
    model_prices = np.asarray(model_prices, dtype=float)
    market_prices = np.asarray(market_prices, dtype=float)
    if model_prices.shape != market_prices.shape:
        raise ValueError(f"length mismatch: {model_prices.shape} vs "
                         f"{market_prices.shape}")
    resid = (model_prices - market_prices) / (floor + market_prices)
    return float(resid @ resid)


class _Box:
    """Logit map between a bounded box and unconstrained coordinates."""

    def __init__(self, bounds):
        self.lo = np.array([b[0] for b in bounds])
        self.hi = np.array([b[1] for b in bounds])

    def to_internal(self, x):
        frac = (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo)
        return logit(np.clip(frac, 1e-12, 1.0 - 1e-12))

    def to_external(self, u):
        return self.lo + (self.hi - self.lo) * expit(np.asarray(u, dtype=float))

    def snap(self, x, tol=1e-3):
        """Snap components within tol of a boundary onto it."""
        x, span = np.array(x, dtype=float), self.hi - self.lo
        x = np.where(np.abs(x - self.lo) < tol * span, self.lo, x)
        return np.where(np.abs(x - self.hi) < tol * span, self.hi, x)


def _traced(fun, trace, step):
    """fun, recording in trace each new running best and its evaluation."""
    evals, running = itertools.count(), [math.inf]

    def wrapped(x):
        n, val = next(evals), fun(x)
        if val < running[0]:
            running[0] = val
            trace.append({"step": step, "eval": n, "objective": val})
        return val
    return wrapped


def _outcome(res, step, restart):
    return {"step": step, "restart": restart, "success": bool(res.success),
            "nit": int(res.nit), "nfev": int(res.nfev),
            "message": str(res.message)}


def _nelder_mead(fun, x0, box: _Box, cfg: CalibrationConfig, trace, step):
    """Restarted Nelder-Mead in transformed coordinates; returns the
    snapped minimizer, its objective value and each restart's outcome."""
    rng = np.random.default_rng(cfg.seed)
    u0 = box.to_internal(x0)
    starts = [u0] + [u0 + rng.normal(0.0, 1.0, size=len(x0))
                     for _ in range(cfg.restarts - 1)]
    wrapped = _traced(lambda u: fun(box.to_external(u)), trace, step)
    runs = [minimize(wrapped, u, method="Nelder-Mead",
                     options={"maxiter": cfg.max_iter, "fatol": _FTOL,
                              "xatol": _XTOL, "adaptive": True})
            for u in starts]
    x = box.snap(box.to_external(min(runs, key=lambda res: res.fun).x))
    return x, float(fun(x)), [_outcome(res, step, k)
                              for k, res in enumerate(runs)]


def _rho_search(fun, cfg: CalibrationConfig, trace, step):
    """Bounded search of fun(rho), snapped; returns rho, fun(rho) (the
    last evaluation) and the search's outcome."""
    res = minimize_scalar(_traced(fun, trace, step), bounds=_BOUNDS["rho"],
                          method="bounded",
                          options={"xatol": _XTOL, "maxiter": cfg.max_iter})
    rho = float(_Box([_BOUNDS["rho"]]).snap([res.x])[0])
    return rho, float(fun(rho)), [_outcome(res, step, 0)]


def price_quotes(quotes, calls, r: float, spot: float | None = None
                 ) -> list[PriceDecomposition]:
    """Model prices of quotes, in their order, one pricing pass per maturity.

    calls(strikes, tau) prices calls on a strike grid in one pass and
    returns PriceDecompositions, or plain prices (read as leading terms).
    This is the one place puts are priced: by put-call parity, with the
    parity shift in the leading term, against the spot for SPX and, for
    VIX (spot None), against the zero-strike call, the discounted VIX
    forward, added to the same batch.
    """
    groups = {}
    for i, q in enumerate(quotes):
        groups.setdefault(q.tau, []).append(i)
    out = [None] * len(quotes)
    for tau, idx in groups.items():
        strikes = [quotes[i].strike for i in idx]
        need_fwd = spot is None and not all(quotes[i].is_call for i in idx)
        batch = [d if isinstance(d, PriceDecomposition)
                 else PriceDecomposition(leading=d, correction=0.0)
                 for d in calls(strikes + ([0.0] if need_fwd else []), tau)]
        forward = spot if spot is not None else batch[-1].total
        disc = math.exp(-r * tau)
        for j, i in enumerate(idx):
            d = batch[j]
            if not quotes[i].is_call:
                d = replace(d, leading=d.leading
                            + (quotes[i].strike * disc - forward))
            out[i] = d
    return out


def _sse(quotes, calls, r, floor):
    """Weighted SSE of the model prices of VIX quotes against their prices."""
    prices = [d.total for d in price_quotes(quotes, calls, r)]
    return weighted_sse(prices, [q.price for q in quotes], floor)


class _DateMap:
    """fn(date, *args) for each of a fixed list of dates, in date order,
    on n = min(usable cores, dates) processes.

    The n - 1 workers are forked when the map is made, after fn and the
    dates exist, so they share them without pickling; worker k evaluates
    dates k, k + n, k + 2n, ... and the calling process evaluates share
    0 itself.  A call sends each worker its date indices and the
    argument tuple over a pipe and gets back one result per date: the
    value, or the exception the date raised.  Calibration starts no
    threads, so at fork time the only others are the BLAS pools, which
    OpenBLAS stops and restarts around a fork.  With n = 1 nothing is
    forked.  close() stops the workers; those of a map dropped unclosed
    exit when its pipe ends are collected.
    """

    def __init__(self, dates, fn):
        self.dates, self.fn = list(dates), fn
        n = max(min(usable_cores(), len(self.dates)), 1)
        self.shares = [range(k, len(self.dates), n) for k in range(n)]
        self.workers = []  # (process, the caller's end of its pipe)
        if n == 1:
            return
        import multiprocessing  # here, so a one-core run never loads it
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in self.shares[1:]:
                mine, theirs = ctx.Pipe()
                proc = ctx.Process(target=self._serve, args=(theirs, mine),
                                   daemon=True)
                proc.start()
                theirs.close()
                self.workers.append((proc, mine))
        except BaseException:
            self.close()
            raise

    def _evaluate(self, share, args):
        out = []
        for i in share:
            try:
                out.append(self.fn(self.dates[i], *args))
            except MssvError as exc:
                out.append(exc)
            except Exception as exc:  # raised by the caller, in date order
                exc.__notes__ = [*getattr(exc, "__notes__", ()),
                                 traceback.format_exc()]
                out.append(exc)
        return out

    def _serve(self, conn, caller_end):
        # close the fork's copies of the caller's ends, so that each
        # worker sees end-of-file once the caller's ends are gone
        caller_end.close()
        for _, end in self.workers:
            end.close()
        try:
            while (msg := conn.recv()) is not None:
                conn.send(self._evaluate(*msg))
        except (EOFError, BrokenPipeError, KeyboardInterrupt):
            pass  # the caller went away or was interrupted

    def __call__(self, *args):
        for (_, conn), share in zip(self.workers, self.shares[1:]):
            conn.send((share, args))
        parts = [self._evaluate(self.shares[0], args)]
        for proc, conn in self.workers:
            try:
                parts.append(conn.recv())
            except EOFError:
                raise RuntimeError(
                    f"calibration worker {proc.pid} exited") from None
        out = [None] * len(self.dates)
        for share, part in zip(self.shares, parts):
            for i, term in zip(share, part):
                out[i] = term
        for term in out:
            if isinstance(term, Exception) and not isinstance(term, MssvError):
                raise term
        return out

    def close(self):
        """Stop the workers and wait for them to exit."""
        workers, self.workers = self.workers, []
        for _, conn in workers:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
        for proc, _ in workers:
            proc.join()


def _sum_over_dates(terms):
    """Objective value: the per-date terms summed in date order.

    A date whose pricing failed (its term is an MssvError) is skipped
    and charged ten times the median of the dates that priced.
    """
    per_date, skipped = [], 0
    for term in terms:
        if isinstance(term, MssvError):
            skipped += 1
        else:
            per_date.append(term)
    if not per_date:
        return _PENALTY
    total = sum(per_date)
    if skipped:
        total += skipped * 10.0 * float(np.median(per_date))
    return total


def _two_step(model, slices, cfg, quad, r, x0, start, step1_objective,
              date_state, step2_objective):
    """The two-step calibration both models share.

    Step 1 searches the parameters named in start (x0 overrides their
    starting values) with step1_objective(usable dates, r, floor, quad,
    date_map); date_state(sl, p) then recovers each date's hidden state
    as a dict under the step-1 fit p, and step 2 searches rho with
    step2_objective(dates, p, r, floor, quad, profiled, date_map), dates
    being the (slice, state) pairs of the dates with a state and SPX
    quotes; its last call, at the fitted rho, sets the profiled-out
    parameters.  date_map(dates, fn) makes the step's _DateMap; each
    step's workers are stopped before the next step forks its own.
    """
    usable = [sl for sl in slices if sl.vix_level and sl.vix_quotes]
    if not usable:
        raise MssvError("no dates with VIX quotes and a VIX close")
    live = []

    def date_map(dates, fn):
        while live:
            live.pop().close()
        live.append(_DateMap(dates, fn))
        return live[0]

    trace = []
    try:
        x1, obj1, restarts1 = _nelder_mead(
            step1_objective(usable, r, _WEIGHT_FLOOR, quad, date_map),
            [(x0 or start)[n] for n in start],
            _Box([_BOUNDS[n] for n in start]), cfg, trace, "step1")
        p = dict(zip(start, x1))

        states, skipped = {}, []
        for sl, st in zip(usable, date_map(usable, date_state)(p)):
            if isinstance(st, MssvError):
                skipped.append({"date": sl.date, "error": type(st).__name__})
            else:
                states[sl.date] = st

        dates = [(sl, states[sl.date]) for sl in slices if sl.date in states
                 and sl.spx_quotes and sl.spx_level is not None]
        profiled = {}
        rho, obj2, restarts2 = _rho_search(step2_objective(
            dates, p, r, _WEIGHT_FLOOR, quad, profiled, date_map),
            cfg, trace, "step2")
    finally:
        while live:
            live.pop().close()
    fitted = {**p, "rho": rho, **profiled}
    return CalibrationResult(
        model=model,
        params={**{n: fitted[n] for n in _PARAM_ORDER if n in fitted}, "r": r},
        states=[{"date": d, **st} for d, st in sorted(states.items())],
        step_objectives=[obj1, obj2],
        trace=trace,
        n_skipped_dates=len(skipped),
        skipped_dates=sorted(skipped, key=lambda s: s["date"]),
        restarts=restarts1 + restarts2,
    )


# ---------------------------------------------------------------------------
# one-factor benchmark
# ---------------------------------------------------------------------------

def _heston_step1_objective(slices, r, floor, quad, date_map=_DateMap):
    def date_sse(sl, kappa, theta, sigma):
        z = z_from_vix_heston(sl.vix_level, kappa, theta)
        return _sse(sl.vix_quotes,
                    lambda ks, tau: price_vix_heston_strike_batch(
                        ks, tau, z, kappa, theta, sigma, r, quad),
                    r, floor)

    terms = date_map(slices, date_sse)
    return lambda x: _sum_over_dates(terms(*x))


def _spx_objective(dates, r, floor, calls, profiled, date_map):
    """objective(rho): the weighted SSE at the w3_eps minimising it, set
    in profiled["w3_eps"].  calls(sl, st, rho) prices a date's strikes as
    leading terms L and corrections U at w3_eps = 1 (U = 0 for the
    benchmark), so a date's SSE is quadratic in w3_eps with coefficients
    the sums of a^2, ab and b^2, a = (L - P)/(floor + P), b = U/(floor + P)."""
    def date_sums(date, rho):
        sl, st = date
        decomps = price_quotes(sl.spx_quotes, calls(sl, st, rho), r,
                               sl.spx_level)
        a, b = np.array([[(d.leading - q.price) / (floor + q.price),
                          d.correction / (floor + q.price)]
                         for d, q in zip(decomps, sl.spx_quotes)]).T
        return np.array([a @ a, a @ b, b @ b])

    terms = date_map(dates, date_sums)

    def fun(rho):
        sums = terms(float(rho))
        _, ab, bb = sum((t for t in sums if not isinstance(t, MssvError)),
                        np.zeros(3))
        profiled["w3_eps"] = w = (
            float(np.clip(-ab / bb, *_BOUNDS["w3_eps"])) if bb > 0 else 0.0)
        # max: rounding may take the quadratic a hair below 0
        return _sum_over_dates([
            t if isinstance(t, MssvError)
            else max(float(t @ [1.0, 2.0 * w, w * w]), 0.0) for t in sums])
    return fun


def _heston_step2_objective(dates, p, r, floor, quad, profiled,
                            date_map=_DateMap):  # profiled: no w3_eps here
    return _spx_objective(
        dates, r, floor, lambda sl, st, rho: lambda ks, tau: (
            price_heston_call_batch(sl.spx_level, ks, tau, r, p["kappa"],
                                    p["theta"], p["sigma"], rho, st["z"],
                                    quad)), {}, date_map)


def calibrate_heston(slices, cfg: CalibrationConfig = CalibrationConfig(),
                     quad: QuadratureConfig = QuadratureConfig(),
                     r: float = 0.02,
                     x0: dict | None = None) -> CalibrationResult:
    """Two-step benchmark calibration: (kappa, theta, sigma) on VIX
    options with z_i pinned by the VIX close, then rho on SPX options."""
    return _two_step(
        "heston", slices, cfg, quad, r, x0,
        {"kappa": 3.0, "theta": 0.04, "sigma": 0.5}, _heston_step1_objective,
        lambda sl, p: {"z": z_from_vix_heston(sl.vix_level, p["kappa"],
                                              p["theta"])},
        _heston_step2_objective)


# ---------------------------------------------------------------------------
# two-factor model
# ---------------------------------------------------------------------------

def inner_state_fit(date_slice: DateSlice, kappa: float, theta: float,
                    sigma: float, epsilon: float, r: float,
                    quad: QuadratureConfig = QuadratureConfig(),
                    floor: float = 0.1, xtol: float = 1e-6):
    """Fit the date's hidden state under the VIX-close constraint.

    The constraint z = z(y) is linear and exact, so the two-dimensional
    per-date fit reduces losslessly to a bounded search over y alone,
    each maturity priced by one `fixed_density_rule` for all of [0, ymax].
    Returns (state, objective).
    """
    if not date_slice.vix_quotes or not date_slice.vix_level:
        raise MssvError(f"date {date_slice.date} has no VIX data")
    params = ModelParams(kappa=kappa, theta=theta, sigma=sigma, rho=-0.5,
                         epsilon=epsilon, w3_eps=0.0, r=r)
    w = vix_weights(kappa, epsilon)
    ymax = y_max_for_vix(date_slice.vix_level, params, w)
    # z falls as y rises (a1, a2 > 0), so these ends bound lam
    ends = (HiddenState(y=0.0, z=z_from_vix_given_y(date_slice.vix_level,
                                                     0.0, params, w)),
            HiddenState(y=ymax, z=0.0))
    rules = {}

    def objective(y):
        try:
            z = z_from_vix_given_y(date_slice.vix_level, y, params, w)
            state = HiddenState(y=y, z=z)
        except InfeasibleStateError:
            return _PENALTY

        def calls(ks, tau):
            if tau not in rules:
                rules[tau] = fixed_density_rule(ks, tau, params, ends, quad)
            return rules[tau](state)
        return _sse(date_slice.vix_quotes, calls, r, floor)

    res = minimize_scalar(objective, bounds=(0.0, ymax), method="bounded",
                          options={"xatol": xtol})
    y = float(res.x)
    z = z_from_vix_given_y(date_slice.vix_level, y, params, w)
    return HiddenState(y=y, z=z), float(res.fun)


def _msv_step1_objective(slices, r, floor, quad, xtol, date_map=_DateMap):
    def date_sse(sl, kappa, theta, sigma, epsilon):
        return inner_state_fit(sl, kappa, theta, sigma, epsilon, r, quad,
                               floor, xtol)[1]

    terms = date_map(slices, date_sse)

    def fun(x):
        kappa, epsilon = x[0], x[3]
        if kappa * epsilon >= 0.999:
            return _PENALTY * (1.0 + kappa * epsilon)
        return _sum_over_dates(terms(*x))
    return fun


def _msv_step2_objective(dates, p, r, floor, quad, profiled,
                         date_map=_DateMap):
    def calls(sl, st, rho):
        params = ModelParams(**p, rho=rho, w3_eps=1.0, r=r)
        return lambda ks, tau: price_spx_strike_batch(
            sl.spx_level, ks, tau, HiddenState(**st), params, quad)

    return _spx_objective(dates, r, floor, calls, profiled, date_map)


def calibrate_msv(slices, cfg: CalibrationConfig = CalibrationConfig(),
                  quad: QuadratureConfig = QuadratureConfig(),
                  r: float = 0.02,
                  x0: dict | None = None) -> CalibrationResult:
    """Two-step two-factor calibration.

    Step 1 searches (kappa, theta, sigma, epsilon) with a nested
    per-date fit of (y_i, z_i); step 2 searches rho on SPX quotes, with
    w3_eps solved in closed form at each rho.  Step 2 never touches
    step-1 output.
    """
    def date_state(sl, p):
        st, _ = inner_state_fit(sl, p["kappa"], p["theta"], p["sigma"],
                                p["epsilon"], r, quad, _WEIGHT_FLOOR,
                                _INNER_XTOL)
        return {"y": st.y, "z": st.z}

    return _two_step(
        "msv", slices, cfg, quad, r, x0,
        {"kappa": 3.0, "theta": 0.03, "sigma": 0.4, "epsilon": 0.02},
        lambda usable, r, floor, quad, date_map: _msv_step1_objective(
            usable, r, floor, quad, _INNER_XTOL, date_map),
        date_state, _msv_step2_objective)
