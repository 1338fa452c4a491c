"""VIX option pricing by real quadrature against a non-central chi-square.

The slow factor's conditional law is a scaled non-central chi-square, so
the leading VIX call term is a one-dimensional integral of the payoff
against that density evaluated with the limit weights.  The correction
term adds the fast factor's transient (y - z term) and the first-order
weight correction, both gated by the same payoff indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import digamma, gammaln

from .exceptions import DomainError, QuadratureError
from .model import (HiddenState, ModelParams, PriceDecomposition,
                    QuadratureConfig, _check_finite, heston_star_weights,
                    vix_weights)
from .quadrature import integrate_with_tail_doubling
from .quadrature import integrate  # noqa: F401  perfbench's tracer patches it

#: the ncx2 series' term budget, which lam up to about 1.9e5 fits
_MAX_TERMS = 100_000


@dataclass(frozen=True)
class Ncx2Params:
    """Scaled non-central chi-square law of a CIR factor at horizon tau.

    dof = 4*kappa*theta/sigma^2, scale delta = (1-e^{-kappa tau}) sigma^2
    / (4 kappa), noncentrality lam = z e^{-kappa tau} / delta; the factor
    value is delta * zeta with zeta ~ ncx2(dof, lam).
    """

    dof: float
    lam: float
    delta: float

    def __post_init__(self):
        _check_finite(vars(self))
        if self.dof <= 0 or self.delta <= 0 or self.lam < 0:
            raise ValueError(
                f"need dof > 0, delta > 0, lam >= 0, got "
                f"({self.dof}, {self.lam}, {self.delta})"
            )

    @classmethod
    def from_cir(cls, kappa: float, theta: float, sigma: float, z: float,
                 tau: float) -> "Ncx2Params":
        if tau <= 0:
            raise DomainError(f"tau must be positive, got {tau}")
        decay = math.exp(-kappa * tau)
        delta = (1.0 - decay) * sigma**2 / (4.0 * kappa)
        return cls(dof=4.0 * kappa * theta / sigma**2,
                   lam=z * decay / delta, delta=delta)

    @cached_property
    def _series(self):
        """The density series' per-law constants, made once and read by
        every quadrature round: the log Poisson(lam/2) weights of terms j,
        dof/2 + j, its log gamma, and the rows psi(dof/2 + j) and
        1/(dof + 2j) of the derivatives' sums."""
        half = self.lam / 2.0
        log_pois = np.array([0.0])
        if half > 0.0:
            n_terms = int(math.ceil(half + 12.0 * math.sqrt(half + 1.0))) + 30
            if n_terms > _MAX_TERMS:
                raise QuadratureError(
                    f"ncx2 series needs {n_terms} terms > budget "
                    f"{_MAX_TERMS} (lam = {self.lam})")
            j = np.arange(n_terms)
            log_pois = -half + j * math.log(half) - gammaln(j + 1)
        m_half = self.dof / 2.0 + np.arange(len(log_pois))
        return (log_pois, m_half, gammaln(m_half),
                np.stack([digamma(m_half), 0.5 / m_half]))


def _ncx2_terms(z, params: Ncx2Params):
    """(terms j over e^top, top) of the ncx2 series at z > 0:
    Poisson(lam/2)-weighted chi-square(dof + 2j) densities, to ~12 sd."""
    log_pois, m_half, log_gamma, _ = params._series
    log_chi2 = ((m_half[:, None] - 1.0) * np.log(z)[None, :] - z[None, :] / 2.0
                - m_half[:, None] * math.log(2.0) - log_gamma[:, None])
    log_terms = log_chi2 + log_pois[:, None]
    top = log_terms.max(axis=0)  # the log-sum-exp's shift, point by point
    return np.exp(log_terms - top), top


def ncx2_pdf(zeta, params: Ncx2Params):
    """Non-central chi-square density via its Poisson mixture of central
    chi-square densities, each term evaluated in log space.

    Accepts scalar or array zeta; zeta < 0 or zeta = inf has zero density.
    """
    zeta = np.asarray(zeta, dtype=float)
    scalar = zeta.ndim == 0
    zeta = np.atleast_1d(zeta)
    out = np.zeros_like(zeta)
    pos = (zeta > 0) & (zeta < math.inf)
    terms, top = _ncx2_terms(zeta[pos], params)
    out[pos] = np.exp(top + np.log(terms.sum(axis=0)))
    if np.any(zeta == 0.0):
        at0 = math.inf if params.dof < 2.0 else 0.0
        if params.dof == 2.0:
            at0 = 0.5 * math.exp(-params.lam / 2.0)
        out[zeta == 0.0] = at0
    return float(out[0]) if scalar else out


def _ncx2_pdf_grad(zeta, params: Ncx2Params):
    """The density at zeta > 0 and its derivatives: in dof, the terms times
    (log(zeta/2) - psi(dof/2 + j))/2; in lam, (p(dof + 2) - p)/2, with term
    j of p(dof + 2) term j times zeta/(dof + 2j), which holds at lam = 0.
    p is `ncx2_pdf`'s, bit for bit, so jets and plain passes integrate the
    same price rows."""
    terms, top = _ncx2_terms(zeta, params)
    p = np.exp(top + np.log(terms.sum(axis=0)))
    psi, up = np.exp(top) * (params._series[3] @ terms)
    return p, 0.5 * (np.log(zeta / 2.0) * p - psi), 0.5 * (zeta * up - p)


def _correction_coeffs(state, tau, params, w):
    """(c1, c2) of the correction rows' strike-free numerator c1 + c2
    (v - theta), with y - z frozen at its time-t value; the e^{-tau/eps}
    transient is exactly 0 past 745."""
    transient = math.exp(-tau / params.epsilon) if tau / params.epsilon < 745 else 0.0
    return (2.0 * transient * w.a1 * (state.y - state.z),
            params.kappa * params.epsilon * w.a2_star)


def _integrate_payoff(integrand, ncx2: Ncx2Params, quad: QuadratureConfig,
                      kinks, coeffs=None):
    """Integrate payoff rows against the ncx2 density over [zeta*, inf).

    integrand maps an array of zeta to rows times the density: with
    coeffs, strike-free rows that output row i combines as coeffs[i] from
    kink i mod n on (n strikes, `quadrature.integrate`'s gate); without,
    one row per output, already gated.  The lowest payoff kink, v*, is
    the lower endpoint zeta* = v*/delta and the others (batched strikes)
    become panel edges, in the core and the tails alike, so each panel
    sees a smooth integrand.  The upper limit starts at the mean plus 40
    mixed-moment standard deviations (at least 1.5 zeta* + 10) and doubles
    until the tail adds less than abs_tol.  A density singular at zeta* = 0
    (dof < 2) gets breakpoints halving the first core panel [0, zmax/8]
    toward 0, since the K15 - G7 estimate understates the error of the
    panels next to the singularity: mass within d of 0 grows like
    d^(dof/2), so 80/dof halvings leave ~2^-40 of it inside (at most 1000:
    normal floats).  Returns the outputs' integrals.
    """
    edges = kinks / ncx2.delta
    zstar = max(edges.min(), 0.0)
    zmax = max(ncx2.dof + ncx2.lam
               + 40.0 * math.sqrt(2.0 * (ncx2.dof + 2.0 * ncx2.lam)),
               zstar * 1.5 + 10.0)
    gated = None if coeffs is None else (
        coeffs, np.tile(edges, len(coeffs) // len(edges)))
    if ncx2.dof < 2.0 and zstar == 0.0:
        halvings = min(math.ceil(80.0 / ncx2.dof), 1000)
        edges = np.concatenate(
            [edges, zmax / 8 * 0.5**np.arange(1, halvings + 1)])
    return integrate_with_tail_doubling(integrand, zstar, zmax, quad.abs_tol,
                                        quad.rel_tol, breakpoints=edges,
                                        gated=gated)[0]


def _checked_ncx2(strikes, tau, z, kappa, theta, sigma, r):
    """The slow factor's law at tau, once the inputs are checked."""
    if not all(map(math.isfinite, [z, tau, r, kappa, theta, sigma, *strikes])) \
            or min([z, *strikes]) < 0 or min(kappa, theta, sigma) <= 0:
        raise DomainError(f"need finite r, tau, z, strikes >= 0, kappa, theta, "
                          f"sigma > 0; got (r, tau, z, kappa, theta, sigma) "
                          f"{[r, tau, z, kappa, theta, sigma]}")
    return Ncx2Params.from_cir(kappa, theta, sigma, z, tau)


def vix_call_pass(strikes, tau, z, kappa, theta, sigma, r, slope, intercept,
                  quad, c1=0.0, c2=0.0, jets=False):
    """Calls for a strike grid in one density pass, the density shared by
    every strike.

    The slow factor is the CIR (kappa, theta, sigma) process started at
    z, and a strike K pays (100 sqrt(slope v + intercept) - K)+ in its
    value v, plus, unless c1 = c2 = 0, the correction payoff N = 100 (c1 +
    c2 (v - theta)) / (4 sqrt(slope v + intercept)), both from its kink
    on.  Returns the (leading, correction) columns, the correction 0
    without its rows.  With jets, row i is strike i's price, then its
    derivatives in kappa, theta, sigma, z, slope, intercept, c1 and c2,
    from the payoffs against the density and its dof and lam derivatives
    and the payoffs' intercept and c1 derivatives alone and times v (d/d
    delta = zeta d/dv); a correction payoff's jump at its kink adds
    -payoff p d(kink zeta).

    The quadrature never sees a strike at a node: the integrand is a few
    strike-free rows, h p and p with h = 100 sqrt(slope v + intercept) and
    p the density, N p with the correction, and with jets the same against
    the density's derivatives plus four derivative rows, 13 in all.
    Every kink is a panel edge, so strike i's value on a panel is a fixed
    combination of those rows' panel sums (h p - K p, N p, ...) from its
    kink on, and 0 before it (`quadrature.integrate`'s gate).
    """
    strikes = [float(k) for k in strikes]
    ncx2 = _checked_ncx2(strikes, tau, z, kappa, theta, sigma, r)
    n, disc = len(strikes), math.exp(-r * tau)
    if not n:
        return np.zeros((0, 9 if jets else 2))
    ks = np.array(strikes)[:, None]
    kinks = ((ks[:, 0] / 100.0) ** 2 - intercept) / slope
    delta, dof, lam = ncx2.delta, ncx2.dof, ncx2.lam
    corrected = jets or c1 != 0.0 or c2 != 0.0

    def integrand(zeta):
        # the strike-free payoff rows h, 1 and N times the density (and
        # with jets its dof and lam derivatives), then the jets' D p, R p,
        # D v p and R v p: R = 25 / root is N's c1 derivative and D =
        # 2 R - N / (2 root^2) the payoffs' intercept derivative
        v = delta * zeta
        with np.errstate(invalid="ignore", divide="ignore"):
            root = np.sqrt(slope * v + intercept)
            r25 = 25.0 / root
        h, numer = 100.0 * root, (c1 + c2 * (v - theta)) * r25
        dens = _ncx2_pdf_grad(zeta, ncx2) if jets else [ncx2_pdf(zeta, ncx2)]
        rows = [row for d in dens
                for row in [h * d, d, numer * d][:2 + corrected]]
        if jets:
            d_int = 2.0 * r25 - 0.5 * numer / root**2
            p = dens[0]
            rows += [d_int * p, r25 * p, d_int * (v * p), r25 * (v * p)]
        return np.array(rows)

    # each output row combines the basis rows from its strike's kink on:
    # the leading payoff h - K, the correction N, and with jets their sum
    # against each density derivative and the four strike-free rows
    lead = np.column_stack([np.ones(n), -ks[:, 0], np.zeros(n)])
    corr = np.zeros((n, 3))
    corr[:, 2] = 1.0
    if not jets:
        coeffs = np.vstack([lead, corr]) if corrected else lead[:, :2]
    else:
        coeffs = np.zeros((8 * n, 13))
        for block, (row, col) in enumerate([(lead, 0), (corr, 0),
                                            (lead + corr, 3),
                                            (lead + corr, 6)]):
            coeffs[block * n:(block + 1) * n, col:col + 3] = row
        coeffs[4 * n:, 9:] = np.repeat(np.eye(4), n, axis=0)
    vals = _integrate_payoff(integrand, ncx2, quad, kinks=kinks,
                             coeffs=coeffs)
    if not jets:
        return disc * np.pad(vals, (0, 2 * n - len(vals))).reshape(2, n).T
    lead, corr, g_dof, g_lam, a0, b0, a1, b1 = vals.reshape(8, -1)
    edge = kinks > 0  # a correction payoff jumps from 0 to 2500 numer/K
    at = np.zeros(n)
    at[edge] = (2500.0 * (c1 + c2 * (kinks[edge] - theta)) / ks[edge, 0]
                * ncx2_pdf(kinks[edge] / delta, ncx2) / (slope * delta))
    g_slope, g_int = a1 + at * kinks, a0 + at
    g_delta = (slope * g_slope + c2 * b1) / delta
    decay = math.exp(-kappa * tau)
    delta_kappa = tau * decay * sigma**2 / (4.0 * kappa) - delta / kappa
    # the price as a plain pass's total adds it: disc lead + disc corr
    return np.column_stack([disc * lead + disc * corr, disc * np.column_stack([
        g_dof * dof / kappa - g_lam * lam * (tau + delta_kappa / delta)
        + g_delta * delta_kappa,
        g_dof * dof / theta - c2 * b0,
        2.0 * (g_delta * delta - g_dof * dof - g_lam * lam) / sigma,
        g_lam * decay / delta, g_slope, g_int, b0, b1 - theta * b0])])


def price_vix_strike_batch(strikes, tau: float, state: HiddenState,
                           params: ModelParams,
                           quad: QuadratureConfig = QuadratureConfig(),
                           include_correction: bool = True
                           ) -> list[PriceDecomposition]:
    """Call decompositions for a strike grid in one density pass.

    include_correction=False prices the epsilon -> 0 limit (the
    "uncorrected" surface), which depends on z only.
    """
    w = vix_weights(params.kappa, params.epsilon)
    coeffs = _correction_coeffs(state, tau, params, w) \
        if include_correction else ()
    calls = vix_call_pass(strikes, tau, state.z, params.kappa, params.theta,
                          params.sigma, params.r, w.a2_star,
                          (1.0 + w.a4_star) * params.theta, quad, *coeffs)
    return [PriceDecomposition(leading=lead, correction=corr)
            for lead, corr in calls.tolist()]


def price_vix_heston_strike_batch(strikes, tau: float, z: float, kappa: float,
                                  theta: float, sigma: float, r: float,
                                  quad: QuadratureConfig = QuadratureConfig()
                                  ) -> list[float]:
    """One-factor benchmark VIX calls for a strike grid in one pass."""
    b2, b4 = heston_star_weights(kappa)
    return vix_call_pass(strikes, tau, z, kappa, theta, sigma, r, b2,
                         b4 * theta, quad)[:, 0].tolist()
