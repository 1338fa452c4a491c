"""Implied-volatility inversion: lognormal for SPX, normal model for VIX.

VIX implied vols follow the arithmetic-Brownian convention dVIX = sigma dW,
quoted in VIX points per sqrt(year); SPX vols are standard Black-Scholes.
Both inversions find the root by Brent's method (Brent 1973) on a bracket
[0, hi] found by doubling hi.
"""

from __future__ import annotations

import csv
import math

from scipy.optimize import brentq

from .exceptions import NoRootError
from .model import _check_finite

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MAX_ITER = 100


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def vix_normal_price(vix_level: float, strike: float, tau: float,
                     sigma_n: float) -> float:
    """Call price under dVIX = sigma dW: (V-K) N(d) + sigma sqrt(tau) n(d)."""
    if not 0 <= sigma_n < math.inf:
        raise ValueError(f"sigma_n must be finite and >= 0, got {sigma_n}")
    _check_finite(dict(vix_level=vix_level, strike=strike, tau=tau))
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if sigma_n == 0.0:
        return max(vix_level - strike, 0.0)
    d = (vix_level - strike) / (sigma_n * math.sqrt(tau))
    return ((vix_level - strike) * _norm_cdf(d)
            + sigma_n * math.sqrt(tau) * (math.exp(-0.5 * d * d) / _SQRT_2PI))


def _invert(price_fn, target, hi_max):
    """The vol at which price_fn, increasing from price_fn(0) < target,
    meets target: Brent's method on [0, hi], hi = 1 doubled up to hi_max."""
    hi = 1.0
    while price_fn(hi) < target:
        hi *= 2.0
        if hi > hi_max:
            raise NoRootError(f"price {target} beyond vol {hi_max}")
    try:
        return brentq(lambda s: price_fn(s) - target, 0.0, hi,
                      maxiter=_MAX_ITER)
    except (ValueError, RuntimeError) as exc:  # a nan, or no convergence
        raise NoRootError(f"price {target}: {exc}") from None


def vix_normal_implied_vol(price: float, vix_level: float, strike: float,
                           tau: float) -> float:
    """Invert the normal-model call price for sigma."""
    intrinsic = vix_normal_price(vix_level, strike, tau, 0.0)  # checks inputs
    if not intrinsic < price < math.inf:
        raise NoRootError(f"price {price} outside ({intrinsic:.6g}, inf)")
    return _invert(lambda s: vix_normal_price(vix_level, strike, tau, s),
                   price, 1e6)


def bs_call_price(x: float, strike: float, tau: float, r: float,
                  sigma: float) -> float:
    """Black-Scholes call, no dividends."""
    _check_finite(dict(x=x, strike=strike, tau=tau, r=r, sigma=sigma))
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if sigma <= 0:
        return max(x - strike * math.exp(-r * tau), 0.0)
    st = sigma * math.sqrt(tau)
    d1 = (math.log(x / strike) + (r + 0.5 * sigma * sigma) * tau) / st
    return x * _norm_cdf(d1) - strike * math.exp(-r * tau) * _norm_cdf(d1 - st)


def bs_implied_vol(price: float, x: float, strike: float, tau: float,
                   r: float) -> float:
    """Invert Black-Scholes for the call vol inside the no-arbitrage band."""
    lower = bs_call_price(x, strike, tau, r, 0.0)  # checks inputs
    if not lower < price < x:
        raise NoRootError(
            f"price {price} outside the no-arbitrage band ({lower:.6g}, {x})")
    return _invert(lambda s: bs_call_price(x, strike, tau, r, s), price,
                   100.0)


def write_surface_csv(path, strikes, maturities, grid) -> None:
    """Write a strike (rows) x maturity (columns) grid as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strike"] + [f"{t:.10g}" for t in maturities])
        for i, k in enumerate(strikes):
            writer.writerow([f"{k:.10g}"] + [f"{v:.10g}" for v in grid[i]])
