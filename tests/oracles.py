"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the package's own pricing closed
forms and quadrature: characteristic-function values come from
Runge-Kutta integration of the underlying Riccati system, prices from
Gil-Pelaez inversion with scipy's QUADPACK, and the correction factors
from adaptive quadrature of their defining time integrals.  The factor
moments, the spectral projection and the benchmark's forward VIX map are
reference closed forms that the package itself never evaluates.  The
black-box minimiser is scipy's Nelder-Mead, which the package no longer
calls.  The small definitions at the end (the weighted SSE, the Feller
condition, parameters from an (eta, nu) pair, the standard-error test of
an estimate, the terminal samples of the package's simulation, the
one-option VIX pricer and a synthetic quote grid of the test's own) are
ones only the tests use, as is the per-strike VIX pass: the payoff rows,
one per strike and gated node by node, that the pricer's strike-free
rows replaced, run through the package's own density and quadrature.
"""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.linalg import block_diag
from scipy.optimize import minimize
from scipy.sparse import csr_array
from scipy.special import eval_genlaguerre, gammaln, roots_genlaguerre
from scipy.stats import ncx2

import mssv.data
import mssv.mc
import mssv.vix
from mssv import (DomainError, HiddenState, McEstimate, McModelParams,
                  ModelParams, MssvError, QuadratureConfig, Quote,
                  price_quotes, price_vix_strike_batch)
from mssv.calibration import WEIGHT_FLOOR
from mssv.model import heston_star_weights, vix_weights


def riccati_cd(tau, k, kappa, theta, sigma, rho):
    """(C, D) by high-accuracy ODE integration, in the two-factor model's
    native notation: G = exp(C + 2z D'), D' here absorbs the factor-2
    convention of the implementation (C' = 2 kappa theta D,
    D' = sigma^2 D^2 - (kappa + i rho sigma k) D + (ik - k^2)/2)."""
    beta = kappa + 1j * rho * sigma * k

    def rhs(t, y):
        c, d = y[0] + 1j * y[1], y[2] + 1j * y[3]
        dd = sigma**2 * d * d - beta * d + (1j * k - k * k) / 2.0
        dc = 2.0 * kappa * theta * d
        return [dc.real, dc.imag, dd.real, dd.imag]

    sol = solve_ivp(rhs, (0.0, tau), [0.0, 0.0, 0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    y = sol.y[:, -1]
    return y[0] + 1j * y[1], y[2] + 1j * y[3]


def char_fn_ode(tau, k, xi, kappa, theta, sigma, rho):
    """exp(C + xi*D) with (C, D) from the ODE oracle.

    Note C is built with the native (kappa, theta, sigma, rho) while the
    state coefficient D multiplies xi = 2z directly: the implementation's
    effective-Heston parameterization collapses to the same pair.
    """
    c, d = riccati_cd(tau, k, kappa, theta, sigma, rho)
    return np.exp(c + xi * d)


def f1_hat_quad(tau, k, kappa, sigma, rho):
    """Correction factor f1 from its defining integral
    int_0^tau ((g e^{sd} - 1)/(g e^{tau d} - 1))^2 e^{d (tau - s)} ds."""
    beta = kappa + 1j * rho * sigma * k
    d = -np.sqrt(2.0 * sigma**2 * (k * k - 1j * k) + beta * beta)
    g = (beta + d) / (beta - d)

    def integrand(s):
        return (((g * np.exp(s * d) - 1.0) / (g * np.exp(tau * d) - 1.0)) ** 2
                * np.exp(d * (tau - s)))

    re = quad(lambda s: integrand(s).real, 0.0, tau, limit=300)[0]
    im = quad(lambda s: integrand(s).imag, 0.0, tau, limit=300)[0]
    return re + 1j * im


def f0_hat_quad(tau, k, kappa, sigma, rho):
    """Correction factor f0 = int_0^tau f1(t) dt by adaptive quadrature."""
    re = quad(lambda t: f1_hat_quad(t, k, kappa, sigma, rho).real, 0.0, tau,
              limit=300)[0]
    im = quad(lambda t: f1_hat_quad(t, k, kappa, sigma, rho).imag, 0.0, tau,
              limit=300)[0]
    return re + 1j * im


def heston_call_gil_pelaez_ode(x, strike, tau, r, kappa_h, theta_h, sigma_h,
                               rho_h, v0, u_max=300.0):
    """One-factor Heston call by Gil-Pelaez inversion of the ODE-integrated
    characteristic function.  Fully independent of the package's contour
    and closed forms.
    """
    fwd = x * np.exp(r * tau)
    lnk = np.log(strike / fwd)

    def g_of(kc):
        """E[exp(-i kc m)], m = ln(X_T/F), via the Riccati ODE."""
        beta = kappa_h + 1j * rho_h * sigma_h * kc

        def rhs(t, y):
            c, d = y[0] + 1j * y[1], y[2] + 1j * y[3]
            dd = 0.5 * sigma_h**2 * d * d - beta * d + (1j * kc - kc * kc) / 2.0
            dc = kappa_h * theta_h * d
            return [dc.real, dc.imag, dd.real, dd.imag]

        sol = solve_ivp(rhs, (0.0, tau), [0.0] * 4, method="DOP853",
                        rtol=1e-12, atol=1e-14)
        y = sol.y[:, -1]
        return np.exp(y[0] + 1j * y[1] + v0 * (y[2] + 1j * y[3]))

    def p2_integrand(u):
        return (np.exp(-1j * u * lnk) * g_of(-u) / (1j * u)).real

    g_mart = g_of(1j)  # = 1 up to ODE error; divides out residual drift

    def p1_integrand(u):
        return (np.exp(-1j * u * lnk) * g_of(1j - u) / (1j * u * g_mart)).real

    i2 = quad(p2_integrand, 1e-9, u_max, limit=400)[0]
    i1 = quad(p1_integrand, 1e-9, u_max, limit=400)[0]
    p2 = 0.5 + i2 / np.pi
    p1 = 0.5 + i1 / np.pi
    return np.exp(-r * tau) * (fwd * p1 - strike * p2)


def expected_y(tau: float, state0: HiddenState, params: ModelParams) -> float:
    """Closed-form E[Y_tau] (fast factor)."""
    emf = math.exp(-tau / params.epsilon)
    ems = math.exp(-params.kappa * tau)
    c = 1.0 / (1.0 - params.kappa * params.epsilon)
    return (emf * state0.y + c * (ems - emf) * state0.z
            + (1.0 - emf - c * (ems - emf)) * params.theta)


def expected_z(tau: float, state0: HiddenState, params: ModelParams) -> float:
    """Closed-form E[Z_tau] (CIR mean)."""
    ems = math.exp(-params.kappa * tau)
    return ems * state0.z + params.theta * (1.0 - ems)


def variance_z(tau: float, state0: HiddenState, params: ModelParams) -> float:
    """Closed-form Var[Z_tau] (CIR variance)."""
    ems = math.exp(-params.kappa * tau)
    return (state0.z * params.sigma**2 / params.kappa * (ems - ems * ems)
            + params.theta * params.sigma**2 / (2.0 * params.kappa)
            * (1.0 - ems) ** 2)


def spectral_coefficient(nu: float, z: float, n: int,
                         n_nodes: int = 80) -> float:
    """Projection <(y - z) psi_n> against the fast factor's invariant
    Gamma(z/nu^2, nu^2) law, by generalized Gauss-Laguerre quadrature.

    psi_n are the orthonormal Laguerre eigenfunctions of the fast
    generator.  Returns the quadrature value (the closed forms are 0,
    -nu sqrt(z), 0, 0, ... -- asserted in tests, never used here).
    """
    if nu <= 0 or z <= 0:
        raise DomainError(f"need nu > 0 and z > 0, got ({nu}, {z})")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    gamma = z / nu**2
    nodes, weights = roots_genlaguerre(n_nodes, gamma - 1.0)
    norm = math.exp(0.5 * (gammaln(n + 1) + gammaln(gamma) - gammaln(n + gamma)))
    psi = norm * eval_genlaguerre(n, gamma - 1.0, nodes)
    f = (nu**2 * nodes - z) * psi
    return float((weights * f).sum() / math.exp(gammaln(gamma)))


def vix_from_z_heston(z: float, kappa: float, theta: float) -> float:
    """Forward map of the one-factor benchmark: 100*sqrt(b2* z + b4* theta)."""
    b2, b4 = heston_star_weights(kappa)
    radicand = b2 * z + b4 * theta
    if radicand < 0:
        raise DomainError(f"negative benchmark VIX^2 radicand {radicand}")
    return 100.0 * math.sqrt(radicand)


def _cir_ncx2(z: float, tau: float, params: ModelParams):
    """(delta, dof, lam): the slow factor at tau, started at z, is delta
    times a non-central chi-square with dof degrees and noncentrality lam."""
    decay = math.exp(-params.kappa * tau)
    delta = (1.0 - decay) * params.sigma**2 / (4.0 * params.kappa)
    return (delta, 4.0 * params.kappa * params.theta / params.sigma**2,
            z * decay / delta)


def vix_call_z_only(strike: float, tau: float, z: float,
                    params: ModelParams) -> float:
    """VIX call with the fast factor set to the slow one at expiry:
    e^{-r tau} E[(100 sqrt((a1 + a2) Z_tau + (a3 + a4) theta) - K)+] with
    the exact weights and Z_tau from the CIR law started at z, by QUADPACK
    against scipy's non-central chi-square density."""
    w = vix_weights(params.kappa, params.epsilon)
    slope, intercept = w.a1 + w.a2, (w.a3 + w.a4) * params.theta
    delta, dof, lam = _cir_ncx2(z, tau, params)
    lo = max(((strike / 100.0) ** 2 - intercept) / (slope * delta), 0.0)
    hi = max(dof + lam + 60.0 * math.sqrt(2.0 * (dof + 2.0 * lam)) + 20.0,
             2.0 * lo)
    val = quad(lambda x: (100.0 * math.sqrt(slope * delta * x + intercept)
                          - strike) * ncx2.pdf(x, dof, lam),
               lo, hi, limit=500, epsabs=1e-12, epsrel=1e-12)[0]
    return math.exp(-params.r * tau) * val


def vix_call_quad(strike: float, tau: float, state: HiddenState,
                  params: ModelParams) -> tuple[float, float]:
    """(leading, correction) of the two-factor VIX call by QUADPACK
    against scipy's non-central chi-square density, re-derived from the
    payoffs: leading pays (100 sqrt(a2* v + (1 + a4*) theta) - K)+ and the
    correction 100 (c1 + c2 (v - theta)) / (4 sqrt(...)) past the kink,
    with c1 = 2 e^{-tau/eps} a1 (y - z) and c2 = kappa eps a2*.  Below
    dof 2 the density's singularity x^(dof/2 - 1) at 0 is QUADPACK's
    algebraic weight on [0, 1]."""
    w = vix_weights(params.kappa, params.epsilon)
    slope, intercept = w.a2_star, (1.0 + w.a4_star) * params.theta
    transient = math.exp(-tau / params.epsilon)
    c1 = 2.0 * transient * w.a1 * (state.y - state.z)
    c2 = params.kappa * params.epsilon * w.a2_star
    delta, dof, lam = _cir_ncx2(state.z, tau, params)
    lo = max(((strike / 100.0) ** 2 - intercept) / (slope * delta), 0.0)
    hi = max(dof + lam + 60.0 * math.sqrt(2.0 * (dof + 2.0 * lam)) + 20.0,
             2.0 * lo)

    def payoffs(x):
        v = delta * x
        root = math.sqrt(slope * v + intercept)
        return (100.0 * root - strike,
                100.0 * (c1 + c2 * (v - params.theta)) / (4.0 * root))

    alpha = dof / 2.0 - 1.0
    # the density over x^alpha at 0: the first Poisson term's limit
    at0 = math.exp(-lam / 2.0 - (dof / 2.0) * math.log(2.0)
                   - gammaln(dof / 2.0))
    out = []
    for i in (0, 1):
        def f(x):
            return payoffs(x)[i] * ncx2.pdf(x, dof, lam)

        def smooth(x):
            return payoffs(x)[i] * at0 if x == 0.0 else f(x) / x**alpha
        if lo == 0.0 and dof < 2.0:
            near = quad(smooth, 0.0, 1.0, weight="alg", wvar=(alpha, 0.0),
                        epsabs=1e-14, epsrel=1e-13)[0]
            val = near + quad(f, 1.0, hi, limit=500, epsabs=1e-14,
                              epsrel=1e-13)[0]
        else:
            val = quad(f, lo, hi, limit=500, epsabs=1e-14, epsrel=1e-13)[0]
        out.append(math.exp(-params.r * tau) * val)
    return out[0], out[1]


def nelder_mead_min(fun, x0, bounds, restarts=2, seed=0, max_iter=200):
    """The least fun that scipy's bounded Nelder-Mead finds from x0 and
    from restarts - 1 seeded starts drawn uniformly in the bounds."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(bounds, dtype=float).T
    starts = [np.asarray(x0, dtype=float)] + [rng.uniform(lo, hi)
                                             for _ in range(restarts - 1)]
    return min(minimize(fun, x, method="Nelder-Mead", bounds=bounds,
                        options={"maxiter": max_iter, "fatol": 1e-9,
                                 "xatol": 1e-6, "adaptive": True}).fun
               for x in starts)


def weighted_sse(model_prices, market_prices) -> float:
    """Sum of squared residuals scaled by 1/(WEIGHT_FLOOR + market price)."""
    model_prices = np.asarray(model_prices, dtype=float)
    market_prices = np.asarray(market_prices, dtype=float)
    if model_prices.shape != market_prices.shape:
        raise ValueError(f"length mismatch: {model_prices.shape} vs "
                         f"{market_prices.shape}")
    resid = (model_prices - market_prices) / (WEIGHT_FLOOR + market_prices)
    return float(resid @ resid)


def feller_ok(params: ModelParams) -> bool:
    """Feller condition of the slow factor (recorded, never enforced)."""
    return 2.0 * params.kappa * params.theta > params.sigma**2


def mc_params_from_eta_nu(params: ModelParams, eta: float,
                          nu: float) -> McModelParams:
    """params rebuilt with the w3_eps implied by (eta, nu); the nu that
    McModelParams derives back from it may differ from nu in its last
    digits."""
    w3 = -eta * nu * math.sqrt(params.epsilon / 2.0)
    return McModelParams(params=dataclasses.replace(params, w3_eps=w3),
                         eta=eta)


def within(est, value: float, n_se: float, slack: float = 0.0) -> bool:
    """Whether the McEstimate est lies within n_se standard errors plus
    slack of value."""
    return abs(value - est.mean) <= n_se * est.standard_error + slack


def mc_call_estimates(underlying, strikes, tau: float, r: float) -> list:
    """The McEstimate (mean, standard error) of the discounted call payoff
    on each strike over the terminal samples underlying."""
    disc, n = math.exp(-r * tau), len(underlying)
    out = []
    for k in strikes:
        payoff = disc * np.maximum(underlying - k, 0.0)
        out.append(McEstimate(float(payoff.mean()),
                              float(payoff.std(ddof=1) / math.sqrt(n))))
    return out


def mc_vix_samples(mp: McModelParams, yt, zt):
    """VIX_T of terminal factor samples, by the exact VIX relation."""
    p = mp.params
    w = vix_weights(p.kappa, p.epsilon)
    return 100.0 * np.sqrt(w.a1 * yt + w.a2 * zt + (w.a3 + w.a4) * p.theta)


def simulate_terminal(mp: McModelParams, state0: HiddenState, x0: float,
                      horizon: float, cfg):
    """Terminal samples (X_T, Y_T, Z_T) of the package's simulation."""
    return mssv.mc._simulate(mp, state0, x0, horizon, cfg, with_x=True)


def simulate_variance_terminal(mp: McModelParams, state0: HiddenState,
                               horizon: float, cfg):
    """Terminal (Y_T, Z_T) of the package's simulation without the index."""
    return mssv.mc._simulate(mp, state0, None, horizon, cfg,
                             with_x=False)[1:]


@dataclasses.dataclass(frozen=True)
class VixOptionSpec:
    """One VIX option: strike in VIX points, maturity in years."""

    strike: float
    tau: float
    is_call: bool = True

    def __post_init__(self):
        if self.strike < 0:
            raise ValueError(f"strike must be non-negative, got {self.strike}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


def price_vix(spec: VixOptionSpec, state: HiddenState, params: ModelParams,
              quad: QuadratureConfig = QuadratureConfig(),
              include_correction: bool = True):
    """One VIX option's PriceDecomposition from the package's strike-batch
    pricer; a put is priced by parity in `price_quotes`."""
    quote = Quote(spec.strike, spec.tau, spec.is_call, math.nan)
    return price_quotes([quote], lambda ks, tau: price_vix_strike_batch(
        ks, tau, state, params, quad, include_correction), params.r)[0]


@contextlib.contextmanager
def synthetic_grid(**grid):
    """`make_synthetic_quotes` on a grid of the caller's: the mssv.data
    constants named in grid (VIX_TAUS, SPX_TAUS, VIX_MONEYNESS,
    SPX_MONEYNESS) hold the given values inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in grid.items():
            patch.setattr(mssv.data, name, value)
        yield


def difference_jacobian(fun, x, steps, lo, hi):
    """Central differences of the vector function fun at x, with steps[j]
    in x[j]; a column whose step would leave [lo[j], hi[j]] takes the
    second-order one-sided difference into the box instead."""
    x, cols = np.asarray(x, dtype=float), []
    for j, h in enumerate(steps):
        e = np.zeros(len(x))
        e[j] = h
        if x[j] - h < lo[j]:
            cols.append((-3.0 * fun(x) + 4.0 * fun(x + e) - fun(x + 2 * e))
                        / (2.0 * h))
        elif x[j] + h > hi[j]:
            cols.append((3.0 * fun(x) - 4.0 * fun(x - e) + fun(x - 2 * e))
                        / (2.0 * h))
        else:
            cols.append((fun(x + e) - fun(x - e)) / (2.0 * h))
    return np.column_stack(cols)


def dense_pattern_jacobian(terms, slices, n_params, state_columns):
    """Step 1's Jacobian by way of its dense 0/1 pattern: every row depends
    on the n_params parameters and, with state_columns, date i's rows on
    column n_params + i too; the pattern's CSR indices then place each
    date's jets derivatives (zeros for a failed date)."""
    sizes = [len(sl.vix_quotes) for sl in slices]
    pattern = np.ones((sum(sizes), n_params))
    if state_columns:
        pattern = np.hstack(
            [pattern, block_diag(*[np.ones((n, 1)) for n in sizes])])
    pattern = csr_array(pattern)
    return csr_array((np.concatenate([
        np.zeros(n * pattern.indptr[1]) if isinstance(t, MssvError)
        else t[:, 1:].ravel() for t, n in zip(terms, sizes)]),
        pattern.indices, pattern.indptr), shape=pattern.shape)


def payoff_rows(v, ks, kinks, slope, intercept, coeffs=None):
    """(rows, root, off) of a strike grid at slow-factor values v, with
    root = sqrt(slope v + intercept) and off = v < kinks: the strike
    column ks pays (100 root - K)+ from its kinks on, and given coeffs =
    (c1, c2, theta) its correction rows, 100 (c1 + c2 (v - theta)) /
    (4 root) from the kinks on, follow the leading rows."""
    n, off = len(ks), v < kinks[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(slope * v + intercept)
        rows = np.empty((n if coeffs is None else 2 * n, len(v)))
        lead = np.subtract(100.0 * root, ks, out=rows[:n])
        np.copyto(np.maximum(lead, 0.0, out=lead), 0.0, where=off)
        if coeffs is not None:
            c1, c2, theta = coeffs
            rows[n:] = (c1 + c2 * (v - theta)) * (25.0 / root)
            np.copyto(rows[n:], 0.0, where=off)
    return rows, root, off


_VIX_CALL_PASS = mssv.vix.vix_call_pass


def per_strike_call_pass(strikes, tau, z, kappa, theta, sigma, r, slope,
                         intercept, quad, c1=0.0, c2=0.0, jets=False):
    """`vix.vix_call_pass` on the per-strike integrand: each output row is
    a strike's payoff row times the density (or, with jets, its
    derivatives' rows), gated node by node, integrated by the same
    `vix._integrate_payoff` without a combination."""
    ks = np.array([float(k) for k in strikes])[:, None]
    n = len(ks)
    payoff = (c1, c2, theta) if jets or c1 != 0.0 or c2 != 0.0 else None
    integrate_payoff = mssv.vix._integrate_payoff

    def per_strike(_, ncx2, quad, kinks, coeffs=None):
        def integrand(zeta):
            v = ncx2.delta * zeta
            if not jets:
                rows = payoff_rows(v, ks, kinks, slope, intercept, payoff)[0]
                rows *= mssv.vix.ncx2_pdf(zeta, ncx2)
                return rows
            p, p_dof, p_lam = mssv.vix._ncx2_pdf_grad(zeta, ncx2)
            rows, root, off = payoff_rows(v, ks, kinks, slope, intercept,
                                          payoff)
            lead, corr = rows[:n], rows[n:]
            with np.errstate(divide="ignore"):
                d_c1 = np.where(off, 0.0, 25.0 / root)
            d_int = 2.0 * d_c1 - 0.5 * corr / root**2
            return np.concatenate([lead * p, corr * p, (lead + corr) * p_dof,
                                   (lead + corr) * p_lam, d_int * p,
                                   d_c1 * p, d_int * (v * p),
                                   d_c1 * (v * p)])
        return integrate_payoff(integrand, ncx2, quad, kinks=kinks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mssv.vix, "_integrate_payoff", per_strike)
        return _VIX_CALL_PASS(strikes, tau, z, kappa, theta, sigma, r, slope,
                              intercept, quad, c1, c2, jets)
