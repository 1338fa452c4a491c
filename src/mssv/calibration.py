"""Two-step joint calibration to VIX and SPX option quotes.

Step 1 fits the variance-process parameters to VIX options, with each
date's hidden state pinned to that date's VIX close: the one-factor
benchmark determines its state z_i uniquely, while the two-factor model
keeps one degree of freedom per date, its fast factor y_i = s_i ymax_i
with s_i in [0, 1] (z_i follows from the VIX close).  Step 2 fits the
index-leg parameters (rho for the benchmark, rho and w3_eps for the
two-factor model) to SPX options, holding step-1 output fixed.

Step 1 is one bounded least-squares solve of the per-quote weighted
residuals over the parameters and every s_i, plus seeded extra starts,
by rectangular trust-region dogleg steps (scipy's dogbox; Voglis &
Lagaris 2004).  It replaced the trust-region reflective method (TRF,
Branch, Coleman & Li 1999), which crawled along the valley between
epsilon and the s_i: 40 evaluations against 7 on the study's 2-date
panel, and 200 unconverged against 6-17 on four noisy panels.  The
density passes of each evaluation return the prices' derivatives too,
chained by hand through the weights and the pinned state into an exact
Jacobian, in which a date's rows depend on the parameters and its s_i
alone.  Step 2 is one bounded search over rho: SPX prices are affine in
w3_eps, so its optimum at each rho is closed-form (variable projection).
The per-date terms of every evaluation are independent, so they run on
one process per usable core (at most one per date): each fit forks its
workers once, before the start fits, and keeps them through step 2; each
evaluates a fixed share of the dates, and the terms come back to the
calling process, which joins them in date order.  A date's term is the
same number in any process, so fits are bitwise reproducible for a given
seed on any core count.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import least_squares, minimize_scalar
from scipy.optimize import minimize  # noqa: F401  perfbench's tracer patches it
from scipy.sparse import csr_array

from .cores import usable_cores
from .exceptions import DomainError, InfeasibleStateError, MssvError
from .model import (TAU0, HiddenState, ModelParams, QuadratureConfig, Quote,
                    heston_star_weights, price_quotes, vix_weights)
from .spx import price_heston_call_batch, price_spx_strike_batch
from .vix import price_vix_strike_batch, vix_call_pass

_PENALTY = 1e8
#: the price floor of the weighted error (model - P)/(WEIGHT_FLOOR + P)
#: that calibration minimises and the error tables report
WEIGHT_FLOOR = 0.1
#: order of the fitted parameters in a CalibrationResult
_PARAM_ORDER = ("kappa", "theta", "sigma", "rho", "epsilon", "w3_eps")


@dataclass(frozen=True)
class DateSlice:
    """All quotes of one trade date plus that date's underlying closes."""

    date: str
    spx_level: float | None
    vix_level: float | None
    vix_quotes: tuple[Quote, ...] = ()
    spx_quotes: tuple[Quote, ...] = ()


#: step-2 rho tolerance, inner state-fit tolerance, step-1 least-squares
#: tolerances and the parameter box; epsilon's upper bound keeps kappa
#: epsilon <= 0.998 in the whole box, so the time scales stay apart (the
#: weights need kappa eps < 1)
_XTOL, _INNER_XTOL = 1e-6, 1e-6
_LSQ_TOL = {"xtol": 1e-10, "ftol": 1e-9, "gtol": 1e-12}
_BOUNDS = {"kappa": (1e-3, 20.0), "theta": (1e-5, 1.0), "sigma": (1e-3, 3.0),
           "rho": (-1.0, 0.0), "epsilon": (1e-4, 0.0499),
           "w3_eps": (-0.5, 0.5)}
#: rho within this distance of a bound is snapped onto it
_SNAP = 1e-3
#: step 1's starting parameters, inside the box
_HESTON_START = {"kappa": 3.0, "theta": 0.04, "sigma": 0.5}
_MSV_START = {"kappa": 3.0, "theta": 0.03, "sigma": 0.4, "epsilon": 0.02}


@dataclass(frozen=True)
class CalibrationConfig:
    """Evaluation budget of each solve; restart count and seed of step 1."""

    max_iter: int = 200
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        for name, least in (("max_iter", 1), ("restarts", 1), ("seed", 0)):
            if (value := getattr(self, name)) < least:
                raise ValueError(
                    f"{name} must be at least {least}, got {value}")


@dataclass
class CalibrationResult:
    model: str
    params: dict
    states: list
    step_objectives: list
    trace: list
    n_skipped_dates: int = 0
    #: {"date", "error"} of each date whose state recovery failed and
    #: {"date", "error", "step": "step2"} of each date whose SPX pricing
    #: failed at some step-2 evaluation (the search then charges it ten
    #: times the median date), in date order; "error" is the first
    #: exception's class name
    skipped_dates: list = field(default_factory=list)
    #: {"step", "restart", "success", "nit", "nfev", "message"} of each
    #: step-1 least-squares solve ("nit" its Jacobian count, "nfev" its
    #: residual evaluations, whose passes give the Jacobians too) and of
    #: step 2's one search over rho, or of its skip when no SPX quotes
    restarts: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def _traced(fun, trace, step):
    """fun, recording in trace each new running best of its value (the sum
    of squares of a residual vector) and that evaluation's index;
    wrapped.count is the number of evaluations so far and wrapped.best the
    running best value and a copy of the point it was evaluated at."""
    def wrapped(x):
        val = fun(x)
        obj = float(val @ val) if np.ndim(val) else val
        n, wrapped.count = wrapped.count, wrapped.count + 1
        if obj < wrapped.best[0]:
            wrapped.best = (obj, np.copy(x))
            trace.append({"step": step, "eval": n, "objective": obj})
        return val
    wrapped.count, wrapped.best = 0, (math.inf, None)
    return wrapped


def _outcome(step, restart, success, nit, nfev, message):
    return {"step": step, "restart": restart, "success": bool(success),
            "nit": int(nit), "nfev": int(nfev), "message": str(message)}


def _least_squares(fun, x0, bounds, jac, cfg: CalibrationConfig, trace):
    """Bounded dogbox solves of the residual vector fun(x) from x0 and from
    cfg.restarts - 1 seeded starts (x0 scaled by e^N(0, 1/4), clipped into
    the box); jac() is the Jacobian at the point fun evaluated last, the
    step dogbox has just accepted, which is where it asks for it.  Returns
    the best point fun evaluated, its SSE and each solve's outcome: dogbox
    evaluates clip(x + step) and only then snaps the coordinates the step
    took to a bound onto it, so its own x may be a point never evaluated.

    ftol 1e-9 is about what an evaluation resolves: prices are good to
    the quadrature tolerance (1e-7 in the study), so on a panel with 1%
    noise (SSE about 1e-3) the SSE is known to a few 1e-7 absolute; at
    1e-12 TRF ran out of evaluations on noisy panels.  Noiseless panels
    stop on gtol.  Dogbox is slower where epsilon ends on its lower bound,
    where the s_i are nearly unidentified: it zigzags there (194
    evaluations against TRF's 44 on one noisy 2-date panel, same SSE)."""
    lo, hi = np.array(bounds, dtype=float).T
    x0, rng = np.array(x0, dtype=float), np.random.default_rng(cfg.seed)
    starts = [x0] + [np.clip(x0 * np.exp(rng.normal(0.0, 0.5, len(x0))),
                             lo, hi) for _ in range(cfg.restarts - 1)]
    traced, outcomes = _traced(fun, trace, "step1"), []
    for k, x in enumerate(starts):
        res = least_squares(traced, x, jac=lambda _: jac(), bounds=(lo, hi),
                            method="dogbox", x_scale="jac",
                            max_nfev=cfg.max_iter, **_LSQ_TOL)
        outcomes.append(_outcome("step1", k, res.success, res.njev, res.nfev,
                                 res.message))
    sse, x = traced.best
    return x, sse, outcomes


def _rho_search(fun, cfg: CalibrationConfig, trace, step):
    """Search of fun(rho) over the rho bounds, snapped to a bound within
    _SNAP of it; returns rho, fun(rho) (the last evaluation) and the
    search's outcome.  fun is taken as unimodal, as a bounded Brent search
    takes it, so a bound no worse than the point _SNAP inside it is the
    snapped minimiser: each bound is tried so before any search."""
    traced = _traced(fun, trace, step)
    lo, hi = _BOUNDS["rho"]
    for bound, inside in ((lo, lo + _SNAP), (hi, hi - _SNAP)):
        near = traced(inside)
        if (value := traced(bound)) <= near:
            return bound, value, [_outcome(step, 0, True, 0, traced.count,
                                           f"rho at its bound {bound:g}")]
    res = minimize_scalar(traced, bounds=(lo, hi), method="bounded",
                          options={"xatol": _XTOL, "maxiter": cfg.max_iter})
    rho = lo if res.x - lo < _SNAP else hi if hi - res.x < _SNAP else res.x
    return float(rho), float(traced(rho)), [_outcome(
        step, 0, res.success, res.nit, traced.count, res.message)]


def _pinned(vix, weight, floor_weight, theta):
    """The coordinate v >= 0 a VIX close pins in (vix/100)^2 = weight v +
    floor_weight theta: the two-factor line's ymax (a1) and z at y = 0
    (a2) over floor weight a3 + a4, and the one-factor z (b2*, b4*)."""
    if vix <= 0:
        raise DomainError(f"vix must be positive, got {vix}")
    v = ((vix / 100.0) ** 2 - floor_weight * theta) / weight
    if v < 0:
        raise InfeasibleStateError(
            f"VIX = {vix} below the state-free floor: implied {v:.6g} < 0")
    return v


def _residuals(quotes, calls, r):
    """(model - P)/(WEIGHT_FLOOR + P) of each quote, in the quotes' order;
    of VIX jets, the rows of a residual and then its derivatives."""
    model = np.array([getattr(d, "total", d)
                      for d in price_quotes(quotes, calls, r)])
    market = np.array([q.price for q in quotes])
    if model.ndim == 2:
        model[:, 0] -= market
        return model / (WEIGHT_FLOOR + market)[:, None]
    return (model - market) / (WEIGHT_FLOOR + market)


class _DateMap:
    """A fixed list of dates whose terms run on n = min(usable cores,
    dates) processes: a call dates(fn, *args) returns fn(i, dates[i],
    *args) for each date i, in date order.

    The n - 1 workers are forked when the map is made, after the dates
    exist, so they share them without pickling; worker k evaluates dates
    k, k + n, k + 2n, ... and the calling process evaluates share 0
    itself.  A call sends each worker fn, its date indices and the
    argument tuple over a pipe, so fn must be a module-level function,
    which pickle sends by name; it gets back one result per date: the
    value, or the exception the date raised (last keeps the last call's);
    failed maps the index of each date that ever raised an MssvError to
    that first error's class name.  Calibration starts no threads, so at
    fork time the only others are the BLAS pools, which OpenBLAS stops
    and restarts around a fork.  With n = 1 nothing is forked.  close()
    stops the workers; those of a map dropped unclosed exit when its pipe
    ends are collected.

    It is neither a stdlib process pool nor a thread pool: both were
    measured slower on the same fits (see the README).
    """

    def __init__(self, dates):
        self.dates = list(dates)
        self.failed = {}
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

    def _evaluate(self, share, fn, args):
        out = []
        for i in share:
            try:
                out.append(fn(i, self.dates[i], *args))
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

    def __call__(self, fn, *args):
        for (_, conn), share in zip(self.workers, self.shares[1:]):
            conn.send((share, fn, args))
        parts = [self._evaluate(self.shares[0], fn, args)]
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
        for i, term in enumerate(out):
            if isinstance(term, MssvError):
                self.failed.setdefault(i, type(term).__name__)
            elif isinstance(term, Exception):
                raise term
        self.last = out
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


def _charged(terms):
    """The per-date terms, where a date whose pricing failed (its term is
    an MssvError) is charged ten times the median of the dates that
    priced, or _PENALTY / dates if none did."""
    priced = [t for t in terms if not isinstance(t, MssvError)]
    charge = (10.0 * float(np.median(priced)) if priced
              else _PENALTY / max(len(terms), 1))
    return [charge if isinstance(t, MssvError) else t for t in terms]


def _rows_over_dates(terms, slices):
    """Residual vector: each date's residual rows (its jets' first column),
    joined in date order; a failed date's are equal rows whose squares
    add up to its charge."""
    sse = _charged([t if isinstance(t, MssvError)
                    else float(t[:, 0] @ t[:, 0]) for t in terms])
    return np.concatenate([
        np.full(len(sl.vix_quotes), math.sqrt(c / len(sl.vix_quotes)))
        if isinstance(t, MssvError) else t[:, 0]
        for t, c, sl in zip(terms, sse, slices)])


def _jac_over_dates(terms, slices, n_params, state_columns):
    """Step 1's Jacobian, in CSR form: every residual row holds its jets'
    derivatives (zeros for a failed date, whose charge is no model value)
    in the n_params parameter columns and, with state_columns, date i's
    rows in column n_params + i too, the date's s_i."""
    sizes = [len(sl.vix_quotes) for sl in slices]
    width, rows = n_params + state_columns, sum(sizes)
    indices = np.tile(np.arange(width), (rows, 1))
    if state_columns:
        indices[:, -1] += np.repeat(np.arange(len(sizes)), sizes)
    return csr_array((np.concatenate([
        np.zeros(n * width) if isinstance(t, MssvError) else t[:, 1:].ravel()
        for t, n in zip(terms, sizes)]), indices.ravel(),
        np.arange(rows + 1) * width),
        shape=(rows, n_params + state_columns * len(sizes)))


def _two_step(model, slices, cfg, quad, r, start, step1_objective,
              date_state, step2_objective, state_start=None):
    """The two-step calibration both models share.

    One _DateMap over the usable dates serves the whole fit: its workers
    are forked before the start fits and stopped after step 2.  Step 1
    fits the parameters named in start, from their values there, and, if
    state_start is given, one s_i in [0, 1] per usable date, started at
    state_start(i, sl, *p, r, quad) on the map;
    step1_objective(dates, r, quad)(x) is the residual vector, the map's
    last terms the dates' jets, whence the Jacobian.  date_state(sl, p,
    s_i) then gives each date's hidden state as a dict under the step-1
    fit p (s_i None without state columns), and step 2 searches rho with
    step2_objective(dates, states, p, r, quad, profiled), states[i] being
    date i's state if it has one and SPX quotes, else None; its last
    call, at the fitted rho, sets the profiled-out parameters.  With no
    such date step 2 is skipped: the result has no rho, its step-2
    objective is None and its one step-2 record says so, with success
    false and no evaluation.
    """
    usable = [sl for sl in slices if sl.vix_level and sl.vix_quotes]
    if not usable:
        raise MssvError("no dates with VIX quotes and a VIX close")
    names = list(start)
    p0 = [start[n] for n in names]
    trace = []
    dates = _DateMap(usable)
    try:
        s0 = [] if state_start is None else [
            0.5 if isinstance(s, MssvError) else s
            for s in dates(state_start, *p0, r, quad)]
        x, obj1, restarts1 = _least_squares(
            step1_objective(dates, r, quad), p0 + s0,
            [_BOUNDS[n] for n in names] + [(0.0, 1.0)] * len(s0),
            lambda: _jac_over_dates(dates.last, usable, len(names),
                                    bool(s0)), cfg, trace)
        p = {n: float(v) for n, v in zip(names, x)}

        states, skipped = {}, []
        per_date = x[len(names):] if s0 else [None] * len(usable)
        for sl, s in zip(usable, per_date):
            try:
                states[sl.date] = date_state(sl, p, s)
            except MssvError as exc:
                skipped.append({"date": sl.date, "error": type(exc).__name__})

        spx_states = [states.get(sl.date) if sl.spx_quotes
                      and sl.spx_level is not None else None for sl in usable]
        fitted = dict(p)
        if any(spx_states):
            # from here on, failed names the dates step 2 charged
            dates.failed.clear()
            rho, obj2, restarts2 = _rho_search(step2_objective(
                dates, spx_states, p, r, quad, fitted), cfg, trace, "step2")
            fitted["rho"] = rho
            skipped += [{"date": usable[i].date, "error": error,
                         "step": "step2"}
                        for i, error in dates.failed.items()]
        else:
            obj2, restarts2 = None, [_outcome(
                "step2", 0, False, 0, 0,
                "step 2 skipped: no date has SPX quotes and a state")]
    finally:
        dates.close()
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


def _spx_sums(i, sl, calls, states, p, r, quad, rho):
    """Date i's sums of a^2, ab and b^2, a = (L - P)/(WEIGHT_FLOOR + P) and
    b = U/(WEIGHT_FLOOR + P), over its SPX quotes priced by calls(sl,
    states[i], p, rho, r, quad) as leading terms L and corrections U at
    w3_eps = 1 (U = 0 for the benchmark); None for a date that has no
    state or no SPX quotes (states[i] None)."""
    if states[i] is None:
        return None
    decomps = price_quotes(sl.spx_quotes, calls(sl, states[i], p, rho, r,
                                                quad), r, sl.spx_level)
    a, b = np.array([[(d.leading - q.price) / (WEIGHT_FLOOR + q.price),
                      d.correction / (WEIGHT_FLOOR + q.price)]
                     for d, q in zip(decomps, sl.spx_quotes)]).T
    return np.array([a @ a, a @ b, b @ b])


def _spx_objective(dates, states, calls, p, r, quad, profiled):
    """objective(rho): the weighted SSE at the w3_eps minimising it, set
    in profiled["w3_eps"].  A date's SSE is quadratic in w3_eps, with the
    coefficients _spx_sums gives."""
    def fun(rho):
        sums = [t for t in dates(_spx_sums, calls, states, p, r, quad,
                                 float(rho)) if t is not None]
        _, ab, bb = sum((t for t in sums if not isinstance(t, MssvError)),
                        np.zeros(3))
        profiled["w3_eps"] = w = (
            float(np.clip(-ab / bb, *_BOUNDS["w3_eps"])) if bb > 0 else 0.0)
        # max: rounding may take the quadratic a hair below 0
        return sum(_charged([
            t if isinstance(t, MssvError)
            else max(float(t @ [1.0, 2.0 * w, w * w]), 0.0) for t in sums]))
    return fun


def _chain(derivatives):
    """The (9, 1 + n) matrix that takes a jets row (price, then its eight
    derivatives) to the price and its n derivatives in x: 1 for the price,
    then derivatives[j] = d(jets variable j)/dx."""
    derivatives = np.asarray(derivatives, dtype=float)
    chain = np.zeros((9, 1 + derivatives.shape[1]))
    chain[0, 0] = 1.0
    chain[1:, 1:] = derivatives
    return chain


# ---------------------------------------------------------------------------
# one-factor benchmark
# ---------------------------------------------------------------------------

def _heston_rows(i, sl, kappa, theta, sigma, r, quad):
    """The date's VIX residual rows, each followed by its derivatives in
    (kappa, theta, sigma), with z pinned by the VIX close."""
    b2, b4 = heston_star_weights(kappa)
    z = _pinned(sl.vix_level, b2, b4, theta)
    db = (math.exp(-kappa * TAU0) - b2) / kappa  # d b2/d kappa
    # the jets' (kappa, theta, sigma, z, slope, intercept, c1, c2) in x
    chain = _chain([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                    [db * (theta - z) / b2, 1 - 1 / b2, 0], [db, 0, 0],
                    [-db * theta, b4, 0], [0, 0, 0], [0, 0, 0]])
    return _residuals(sl.vix_quotes, lambda ks, tau: vix_call_pass(
        ks, tau, z, kappa, theta, sigma, r, b2, b4 * theta, quad,
        jets=True) @ chain, r)


def _heston_step1_objective(dates, r, quad):
    return lambda x: _rows_over_dates(dates(_heston_rows, *x, r, quad),
                                      dates.dates)


def _heston_calls(sl, st, p, rho, r, quad):
    return lambda ks, tau: price_heston_call_batch(
        sl.spx_level, ks, tau, r, p["kappa"], p["theta"], p["sigma"], rho,
        st["z"], quad)


def _heston_step2_objective(dates, states, p, r, quad,
                            profiled):  # profiled: no w3_eps here
    return _spx_objective(dates, states, _heston_calls, p, r, quad, {})


def calibrate_heston(slices, cfg: CalibrationConfig = CalibrationConfig(),
                     quad: QuadratureConfig = QuadratureConfig(),
                     r: float = 0.02) -> CalibrationResult:
    """Two-step benchmark calibration: (kappa, theta, sigma) on VIX
    options with z_i pinned by the VIX close, then rho on SPX options."""
    return _two_step(
        "heston", slices, cfg, quad, r, _HESTON_START, _heston_step1_objective,
        lambda sl, p, s: {"z": _pinned(sl.vix_level,
                                       *heston_star_weights(p["kappa"]),
                                       p["theta"])},
        _heston_step2_objective)


# ---------------------------------------------------------------------------
# two-factor model
# ---------------------------------------------------------------------------

def _msv_line(sl, kappa, theta, epsilon):
    """The weights of (kappa, epsilon) and the date's VIX-close line, on
    which z falls linearly in y, from z0 at y = 0 to exactly 0 at ymax:
    the state at s in [0, 1] is y = s ymax, z = (1 - s) z0.  Returns (w,
    ymax, z0)."""
    w = vix_weights(kappa, epsilon)
    return w, *(_pinned(sl.vix_level, a, w.a3 + w.a4, theta)
                for a in (w.a1, w.a2))


def inner_state_fit(date_slice: DateSlice, kappa: float, theta: float,
                    sigma: float, epsilon: float, r: float,
                    quad: QuadratureConfig = QuadratureConfig()):
    """Fit the date's hidden state under the VIX-close constraint.

    The constraint z = z(y) is linear and exact, so the two-dimensional
    per-date fit reduces losslessly to a bounded search over y in
    [0, ymax], as y = s ymax with s in [0, 1].  Step 1 of the two-factor
    calibration starts each date's s here.  Returns (s, objective).
    """
    if not date_slice.vix_quotes or not date_slice.vix_level:
        raise MssvError(f"date {date_slice.date} has no VIX data")

    # VIX pricing reads neither rho nor w3_eps
    params = ModelParams(kappa, theta, sigma, -0.5, epsilon, 0.0, r)
    _, ymax, z0 = _msv_line(date_slice, kappa, theta, epsilon)

    def objective(s):
        state = HiddenState(y=s * ymax, z=(1.0 - s) * z0)
        rows = _residuals(date_slice.vix_quotes, lambda ks, tau: (
            price_vix_strike_batch(ks, tau, state, params, quad)), r)
        return float(rows @ rows)

    res = minimize_scalar(objective, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": _INNER_XTOL})
    return float(res.x), float(res.fun)


def _msv_start(i, sl, kappa, theta, sigma, epsilon, r, quad):
    return inner_state_fit(sl, kappa, theta, sigma, epsilon, r, quad)[0]


def _msv_rows(i, sl, kappa, theta, sigma, eps, s, r, quad):
    """The date's VIX residual rows at y = s[i] ymax, each followed by its
    derivatives in (kappa, theta, sigma, epsilon, s_i)."""
    w, ymax, z0 = _msv_line(sl, kappa, theta, eps)
    s, floor, b, e = s[i], w.a3 + w.a4, w.a2_star / 2.0, np.eye(5)
    y, z = s * ymax, (1.0 - s) * z0
    # gradients of b = a2*/2, a1, a2, u = (VIX/100)^2 - floor theta, y =
    # s u/a1 and z = (1 - s) u/a2
    g_b = (math.exp(-kappa * TAU0) - b) / kappa * e[0]
    g_a1 = (w.a1 - math.exp(-TAU0 / eps)) / eps * e[3]
    m = 1.0 / (1.0 - kappa * eps)
    g_a2 = g_b * (1.0 + m) + (b - w.a1) * m * m * (eps * e[0] + kappa * e[3]) \
        - m * g_a1
    g_u = theta * (g_a1 + g_a2) - floor * e[1]
    g_y = s * (g_u - ymax * g_a1) / w.a1 + ymax * e[4]
    g_z = (1.0 - s) * (g_u - z0 * g_a2) / w.a2 - z0 * e[4]

    def calls(ks, tau):
        tr = math.exp(-tau / eps) if tau / eps < 745 else 0.0
        # vix._correction_coeffs, written out as the chain differentiates it
        c1, c2 = 2.0 * tr * w.a1 * (y - z), kappa * eps * w.a2_star
        # d(kappa, theta, sigma, z, slope, intercept, c1, c2)/d(kappa,
        # theta, sigma, epsilon, s)
        chain = _chain([
            e[0], e[1], e[2], g_z, 2.0 * g_b,
            (2.0 - 2.0 * b) * e[1] - 2.0 * theta * g_b,
            c1 * (tau / eps**2 * e[3] + g_a1 / w.a1) + 2.0 * tr * w.a1 * (
                g_y - g_z),
            w.a2_star * (eps * e[0] + kappa * e[3]) + 2.0 * kappa * eps * g_b])
        return vix_call_pass(ks, tau, z, kappa, theta, sigma, r, w.a2_star,
                             (1.0 + w.a4_star) * theta, quad, c1, c2,
                             jets=True) @ chain
    return _residuals(sl.vix_quotes, calls, r)


def _msv_step1_objective(dates, r, quad):
    return lambda x: _rows_over_dates(
        dates(_msv_rows, *x[:4], tuple(x[4:]), r, quad), dates.dates)


def _msv_calls(sl, st, p, rho, r, quad):
    params = ModelParams(**p, rho=rho, w3_eps=1.0, r=r)
    return lambda ks, tau: price_spx_strike_batch(
        sl.spx_level, ks, tau, HiddenState(**st), params, quad)


def _msv_step2_objective(dates, states, p, r, quad, profiled):
    return _spx_objective(dates, states, _msv_calls, p, r, quad, profiled)


def _msv_state(sl, p, s):
    """The date's state at y = s ymax on its VIX-close line."""
    _, ymax, z0 = _msv_line(sl, p["kappa"], p["theta"], p["epsilon"])
    return {"y": float(s) * ymax, "z": (1.0 - float(s)) * z0}


def calibrate_msv(slices, cfg: CalibrationConfig = CalibrationConfig(),
                  quad: QuadratureConfig = QuadratureConfig(),
                  r: float = 0.02) -> CalibrationResult:
    """Two-step two-factor calibration.

    Step 1 fits (kappa, theta, sigma, epsilon) and every date's y_i =
    s_i ymax_i in one least-squares solve, each s_i started by
    `inner_state_fit` at the start parameters; step 2 searches rho on SPX
    quotes, with w3_eps solved in closed form at each rho.  Step 2 never
    touches step-1 output.
    """
    return _two_step(
        "msv", slices, cfg, quad, r, _MSV_START, _msv_step1_objective,
        _msv_state, _msv_step2_objective, _msv_start)
