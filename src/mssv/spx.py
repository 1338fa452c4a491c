"""SPX option pricing by single complex-contour Fourier integration.

The leading term prices under the effective one-factor dynamics obtained
by averaging out the fast factor: a Heston model with mean reversion
kappa, long-run variance 2*theta, vol-of-vol sqrt(2)*sigma, correlation
rho/sqrt(2) and initial variance 2z.  The correction term adds the fast
factor's skew effect, proportional to w3_eps, on the same contour with
the same nodes.

Branch handling: d(k) is the square root chosen so that
kappa + i*rho*sigma*k + d(k) -> 0 as k -> 0 (d = -principal root), which
makes the characteristic function exactly 1 at k = 0.  All exponentials
are arranged as exp(tau*d) with Re(d) <= 0, so nothing grows along the
contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CharFnOverflowError, DomainError
from .model import (HiddenState, ModelParams, PriceDecomposition,
                    QuadratureConfig, Quote, price_quotes)
from .quadrature import integrate_with_tail_doubling

#: below this maturity the asymptotic expansion is not trusted; results
#: carry a warning flag instead of failing
SHORT_MATURITY = 1.0 / 365.0

_EXP_CAP = 700.0  # double overflows just above exp(709)

#: imaginary offset of the contour (the payoff transform converges only
#: above 1) and the end of its core integral, past which tails double
CONTOUR_SHIFT, TRUNCATION = 1.5, 200.0


@dataclass(frozen=True)
class SpxOptionSpec:
    """One SPX option: spot and strike in index points, maturity in years."""

    x: float
    strike: float
    tau: float
    is_call: bool = True

    def __post_init__(self):
        if self.x <= 0 or self.strike <= 0:
            raise ValueError(
                f"spot and strike must be positive, got ({self.x}, {self.strike})"
            )
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


def effective_heston(params: ModelParams) -> tuple[float, float, float, float]:
    """(kappa, theta, sigma, rho) of the averaged one-factor dynamics."""
    return (params.kappa, 2.0 * params.theta,
            math.sqrt(2.0) * params.sigma, params.rho / math.sqrt(2.0))


def _cf_terms(tau, k, kappa, theta_e, sigma_e, rho_e):
    """C, D, d, g and E = exp(tau*d) for the Heston transform.

    Vectorized over k.  exp(C + v0*D) is the characteristic function of
    the de-trended log price under (kappa, theta_e, sigma_e, rho_e)
    dynamics started at variance v0.
    """
    beta = kappa + 1j * rho_e * sigma_e * k
    d = -np.sqrt(sigma_e**2 * (k * k - 1j * k) + beta * beta)
    g = (beta + d) / (beta - d)
    E = np.exp(tau * d)
    one_gE = 1.0 - g * E
    C = kappa * theta_e / sigma_e**2 * (
        (beta + d) * tau - 2.0 * np.log(one_gE / (1.0 - g))
    )
    D = (beta + d) / sigma_e**2 * (1.0 - E) / one_gE
    return C, D, d, g, E


def _correction_factors(tau, d, g, E):
    """Closed-form time integrals f0_hat, f1_hat of the correction term."""
    gE = g * E
    denom = gE - 1.0
    f1 = (E * (g * g * (E - 1.0) - 2.0 * tau * d * g + 1.0) - 1.0) / (d * denom**2)
    f0 = ((2.0 * tau * d * g + g * g - 1.0) / (d * d * g * denom)
          + (tau * d * g - g - 1.0) / (d * d * g))
    return f0, f1


def _b_coeff(k, w3_eps):
    return -0.5 * w3_eps * (1j * k**3 + k * k)


def price_spx(spec: SpxOptionSpec, state: HiddenState, params: ModelParams,
              quad: QuadratureConfig = QuadratureConfig()) -> PriceDecomposition:
    """One SPX option: leading term plus fast-factor correction; a put is
    priced by parity in `price_quotes`."""
    quote = Quote(spec.strike, spec.tau, spec.is_call, math.nan)
    return price_quotes([quote], lambda ks, tau: price_spx_strike_batch(
        spec.x, ks, tau, state, params, quad), params.r, spec.x)[0]


def _fourier_call_batch(x, strikes, tau, r, kappa, theta_e, sigma_e, rho_e,
                        v0, corr_scale, quad):
    """Contour pass shared by a whole strike grid.

    The transform terms are strike-independent; only the payoff
    transform differs per strike, so the grid costs barely more than a
    single option.  The core [0, TRUNCATION] integrates only the real
    part that the price reads, in real arithmetic: per node a = x -
    ln(ik - k^2), with x the transform's exponent, and per strike and node
    one cosine.  The tails, a few panels, integrate the complex transform,
    so their stop rule reads its size, not a real part that can pass
    near 0 while the transform still matters.  Returns (leading[],
    correction[]).
    """
    strikes = [float(k) for k in strikes]
    for name, value in (("tau", tau), ("spot", x), *(("strike", k)
                                                     for k in strikes)):
        if not 0 < value < math.inf:
            raise DomainError(f"{name} must be positive, got {value}")
    model = [r, kappa, theta_e, sigma_e, rho_e, v0]
    if not all(map(math.isfinite, model)) or abs(rho_e) > 1.0 or v0 < 0 \
            or min(kappa, theta_e, sigma_e) <= 0:
        raise DomainError(f"need finite r, kappa, theta, sigma > 0, |rho| <= "
                          f"1, v0 >= 0; got the effective (r, kappa, theta, "
                          f"sigma, rho, v0) {model}")
    if not strikes:
        return [], []
    q = r * tau + math.log(x)
    log_ks = np.array([math.log(k) for k in strikes])
    k_roots = np.array(strikes) ** -0.5
    with_corr = corr_scale != 0.0
    n = len(strikes)

    def exponents(u):
        """a = x - ln(ik - k^2) at each node, x the transform's exponent,
        then a plus the log of the correction's factor."""
        k = u + 1j * CONTOUR_SHIFT
        C, D, d, g, E = _cf_terms(tau, k, kappa, theta_e, sigma_e, rho_e)
        x_k = C + v0 * D - 1j * k * q
        # the largest real exponent, at the smallest strike
        worst = x_k.real.max() - 0.5 * log_ks.min()
        if worst > _EXP_CAP:
            raise CharFnOverflowError(
                f"transform exponent {worst:.1f} out of range on the contour")
        a = x_k - np.log(1j * k - k * k)
        if not with_corr:
            return [a]
        f0, f1 = _correction_factors(tau, d, g, E)
        return [a, a + np.log(_b_coeff(k, corr_scale)
                              * (0.5 * kappa * theta_e * f0 + v0 * f1))]

    def integrand(u):
        # Re[exp(a + (1 + ik) ln K)] with 1 + ik = -0.5 + iu:
        # K^-1/2 e^{Re a} cos(Im a + u ln K), strike by strike
        exps = exponents(u)
        rows = np.empty((len(exps) * n, len(u)))
        for a, out in zip(exps, np.split(rows, len(exps))):
            np.multiply.outer(log_ks, u, out=out)
            out += a.imag
            np.cos(out, out=out)
            out *= np.multiply.outer(k_roots, np.exp(a.real))
        return rows

    def whole(u):
        # the transform itself, whose size the tails' stop rule reads
        return np.concatenate([np.exp(a + np.multiply.outer(log_ks,
                                                            -0.5 + 1j * u))
                               for a in exponents(u)])

    # the transform is conjugate symmetric, f(-u) = conj(f(u)), so the
    # price's real part is even in u: the contour over the real line is
    # twice the half line's, at half the nodes and half the tolerance.
    # The absolute tolerance scales with the largest strike, at most the
    # spot (a call is worth less), so a far strike does not loosen it
    vals, _, _ = integrate_with_tail_doubling(
        integrand, 0.0, TRUNCATION,
        abs_tol=quad.abs_tol * min(max(strikes), x)
        * (math.pi * math.exp(r * tau)),
        rel_tol=quad.rel_tol, initial_panels=4, tail=whole,
    )
    vals = vals.real * math.exp(-r * tau) / math.pi
    return (vals[:n].tolist(),
            vals[n:].tolist() if with_corr else [0.0] * n)


def price_spx_strike_batch(x: float, strikes, tau: float, state: HiddenState,
                           params: ModelParams,
                           quad: QuadratureConfig = QuadratureConfig()
                           ) -> list[PriceDecomposition]:
    """Call decompositions for a strike grid in one contour pass."""
    ke, te, se, re_ = effective_heston(params)
    leading, correction = _fourier_call_batch(
        x, strikes, tau, params.r, ke, te, se, re_, 2.0 * state.z,
        params.w3_eps, quad)
    warn = tau < SHORT_MATURITY
    return [PriceDecomposition(leading=l, correction=c,
                               short_maturity_warning=warn)
            for l, c in zip(leading, correction)]


def price_heston_call_batch(x: float, strikes, tau: float, r: float,
                            kappa: float, theta: float, sigma: float,
                            rho: float, v0: float,
                            quad: QuadratureConfig = QuadratureConfig()
                            ) -> list[float]:
    """One-factor benchmark calls for a strike grid in one contour pass."""
    leading, _ = _fourier_call_batch(x, strikes, tau, r, kappa, theta, sigma,
                                     rho, v0, 0.0, quad)
    return leading
