"""Model parameters, the VIX <-> hidden-state algebra, and the pricing of
option quotes from a pricer of call strike grids (puts by parity).

The model has a fast variance factor Y (mean reversion rate 1/epsilon) and
a slow CIR factor Z (rate kappa); instantaneous variance of the index is
Y + Z.  Forward-integrating the factor expectations over the 30-day VIX
window gives VIX^2 as a weighted combination of the current state (y, z)
and the long-run level theta.  All variance quantities are decimal
annualized variances; VIX levels are in index points (x100 convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DomainError

#: VIX horizon in years, fixed by the index definition.
TAU0 = 30.0 / 365.0


def _check_finite(values):
    """ValueError naming the first nan or infinite value in a dict of them."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """The six calibrated model parameters plus the risk-free rate.

    kappa   mean-reversion rate of the slow factor Z (1/year)
    theta   long-run variance level of Z
    sigma   vol-of-vol of Z
    rho     correlation between the index and Z shocks (calibration
            bound [-1, 0]; the model itself admits [-1, 1])
    epsilon fast time-scale (years)
    w3_eps  skew-correction coefficient of the fast factor
    r       risk-free rate (1/year)
    """

    kappa: float
    theta: float
    sigma: float
    rho: float
    epsilon: float
    w3_eps: float
    r: float = 0.02

    def __post_init__(self):
        _check_finite(vars(self))
        if self.kappa <= 0 or self.theta <= 0 or self.sigma <= 0:
            raise ValueError(
                f"kappa, theta, sigma must be positive, got "
                f"({self.kappa}, {self.theta}, {self.sigma})"
            )
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not -1.0 <= self.rho <= 0.0:
            raise ValueError(f"rho must lie in [-1, 0], got {self.rho}")
        if self.kappa * self.epsilon >= 1.0:
            raise ValueError(
                f"time scales not separated: kappa*epsilon = "
                f"{self.kappa * self.epsilon:.4f} >= 1"
            )


@dataclass(frozen=True)
class HiddenState:
    """Per-date latent variance pair: y fast factor, z slow factor."""

    y: float
    z: float

    def __post_init__(self):
        _check_finite(vars(self))
        if self.y < 0 or self.z < 0:
            raise ValueError(f"state must be non-negative, got ({self.y}, {self.z})")


@dataclass(frozen=True)
class VixWeights:
    """Epsilon-dependent VIX weights and their epsilon -> 0 limits.

    VIX^2/100^2 = a1*y + a2*z + (a3 + a4)*theta, with a1 + a3 = 1 and
    a2 + a4 = 1 by construction.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    a2_star: float
    a4_star: float


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the Fourier-inversion and density quadratures.

    The SPX contour (`spx.CONTOUR_SHIFT`, `spx.TRUNCATION`) and the node
    budget of a pass (`quadrature.MAX_NODES`) are fixed.
    """

    abs_tol: float = 1e-8
    rel_tol: float = 1e-8

    def __post_init__(self):
        _check_finite(vars(self))
        if min(self.abs_tol, self.rel_tol) <= 0:
            raise ValueError(f"tolerances must be positive, got "
                             f"{(self.abs_tol, self.rel_tol)}")


@dataclass(frozen=True)
class PriceDecomposition:
    """Leading term, first-order correction, and their sum for one option."""

    leading: float
    correction: float
    short_maturity_warning: bool = False

    @property
    def total(self) -> float:
        return self.leading + self.correction


@dataclass(frozen=True)
class Quote:
    """One option observation reduced to what pricing needs."""

    strike: float
    tau: float
    is_call: bool
    price: float


def price_quotes(quotes, calls, r: float, spot: float | None = None
                 ) -> list[PriceDecomposition]:
    """Model prices of quotes, in their order, one pricing pass per maturity.

    calls(strikes, tau) prices calls on a strike grid in one pass and
    returns PriceDecompositions, plain prices (read as leading terms) or,
    for VIX, jets: a price, then its derivatives.  This is the one place
    puts are priced: by put-call parity, with the parity shift in the
    leading term, against the spot for SPX and, for VIX (spot None),
    against the zero-strike call, the discounted VIX forward, added to
    the same batch; a put jet's derivatives are its call's minus the
    forward's.
    """
    groups = {}
    for i, q in enumerate(quotes):
        groups.setdefault(q.tau, []).append(i)
    out = [None] * len(quotes)
    for tau, idx in groups.items():
        strikes = [quotes[i].strike for i in idx]
        need_fwd = spot is None and not all(quotes[i].is_call for i in idx)
        batch = [d if isinstance(d, (PriceDecomposition, np.ndarray))
                 else PriceDecomposition(leading=d, correction=0.0)
                 for d in calls(strikes + ([0.0] if need_fwd else []), tau)]
        forward = spot if spot is not None else getattr(batch[-1], "total",
                                                        batch[-1])
        disc = math.exp(-r * tau)
        for j, i in enumerate(idx):
            d = batch[j]
            if isinstance(d, np.ndarray) and not quotes[i].is_call:
                d = d - forward
                d[0] += quotes[i].strike * disc
            elif not quotes[i].is_call:
                d = replace(d, leading=d.leading
                            + (quotes[i].strike * disc - forward))
            out[i] = d
    return out


def vix_weights(kappa: float, epsilon: float) -> VixWeights:
    """Weights of the exact 30-day forward-variance integration.

    The limits a2*, a4* are computed from their own closed forms, never by
    substituting a small epsilon.
    """
    if not (0 < kappa < math.inf and 0 < epsilon < math.inf):
        raise DomainError(f"kappa and epsilon must be positive and finite, "
                          f"got ({kappa}, {epsilon})")
    if kappa * epsilon >= 1.0:
        raise DomainError(
            f"kappa*epsilon = {kappa * epsilon:.4f} >= 1: the 1/(1-kappa*eps) "
            "factor degenerates"
        )
    a1 = epsilon / TAU0 * -math.expm1(-TAU0 / epsilon)
    b = -math.expm1(-kappa * TAU0) / (kappa * TAU0)
    a2 = b + (b - a1) / (1.0 - kappa * epsilon)
    a2_star = 2.0 * b
    return VixWeights(a1=a1, a2=a2, a3=1.0 - a1, a4=1.0 - a2,
                      a2_star=a2_star, a4_star=1.0 - a2_star)


def heston_star_weights(kappa: float) -> tuple[float, float]:
    """(b2*, b4*) of the one-factor benchmark: VIX^2/100^2 = b2* z + b4* theta."""
    if not 0 < kappa < math.inf:
        raise DomainError(f"kappa must be positive and finite, got {kappa}")
    b2 = -math.expm1(-kappa * TAU0) / (kappa * TAU0)
    return b2, 1.0 - b2


def vix_from_state(state: HiddenState, params: ModelParams) -> float:
    """Model VIX level (index points) implied by the hidden state."""
    w = vix_weights(params.kappa, params.epsilon)
    radicand = w.a1 * state.y + w.a2 * state.z + (w.a3 + w.a4) * params.theta
    if radicand < 0:
        raise DomainError(
            f"negative VIX^2 radicand {radicand}: corrupted state {state}"
        )
    return 100.0 * math.sqrt(radicand)


def vix_limit_from_z(z: float, params: ModelParams) -> float:
    """Epsilon -> 0 limit VIX level: 100*sqrt(a2* z + (1 + a4*) theta)."""
    w = vix_weights(params.kappa, params.epsilon)
    radicand = w.a2_star * z + (1.0 + w.a4_star) * params.theta
    if radicand < 0:
        raise DomainError(f"negative limit-VIX^2 radicand {radicand}")
    return 100.0 * math.sqrt(radicand)
