"""Implied-volatility inversion: lognormal for SPX, normal model for VIX.

VIX implied vols follow the arithmetic-Brownian convention dVIX = sigma dW,
quoted in VIX points per sqrt(year); SPX vols are standard Black-Scholes.
Both inversions use safeguarded Newton with a bisection fallback inside a
verified bracket.
"""

from __future__ import annotations

import csv
import math

from .exceptions import NoRootError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MAX_ITER = 100


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def vix_normal_price(vix_level: float, strike: float, tau: float,
                     sigma_n: float) -> float:
    """Call price under dVIX = sigma dW: (V-K) N(d) + sigma sqrt(tau) n(d)."""
    if sigma_n < 0:
        raise ValueError(f"sigma_n must be non-negative, got {sigma_n}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if sigma_n == 0.0:
        return max(vix_level - strike, 0.0)
    d = (vix_level - strike) / (sigma_n * math.sqrt(tau))
    return (vix_level - strike) * _norm_cdf(d) + sigma_n * math.sqrt(tau) * _norm_pdf(d)


def _newton_bisect(price_fn, target, lo, hi, x0, scale):
    """Monotone root find: Newton clipped to a shrinking [lo, hi] bracket.

    price_fn returns (price, derivative).  Returns the root.
    """
    x = min(max(x0, lo), hi)
    tol = 1e-10 * (1.0 + abs(target))
    for _ in range(_MAX_ITER):
        p, dp = price_fn(x)
        resid = p - target
        if abs(resid) < tol:
            return x
        lo, hi = (lo, x) if resid > 0 else (x, hi)
        # a Newton step that leaves the bracket (or none) bisects it
        x_new = x - resid / dp if dp > 0 and math.isfinite(dp) else math.nan
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    raise NoRootError(
        f"no convergence in {_MAX_ITER} iterations (residual {resid:.3e}, "
        f"scale {scale})"
    )


def vix_normal_implied_vol(price: float, vix_level: float, strike: float,
                           tau: float) -> float:
    """Invert the normal-model call price for sigma."""
    if not math.isfinite(price):
        raise NoRootError(f"price must be finite, got {price}")
    intrinsic = max(vix_level - strike, 0.0)
    if price <= intrinsic:
        raise NoRootError(
            f"price {price} at or below intrinsic {intrinsic}: no root"
        )
    # bracket: price is strictly increasing and unbounded in sigma
    hi = 1.0
    while vix_normal_price(vix_level, strike, tau, hi) < price:
        hi *= 2.0
        if hi > 1e6:
            raise NoRootError(f"price {price} beyond any reachable vol")
    guess = price * math.sqrt(2.0 * math.pi / tau)

    def f(s):
        d = (vix_level - strike) / (s * math.sqrt(tau))
        return (vix_normal_price(vix_level, strike, tau, s),
                math.sqrt(tau) * _norm_pdf(d))

    return _newton_bisect(f, price, 0.0, hi, guess, "vix-normal")


def bs_call_price(x: float, strike: float, tau: float, r: float,
                  sigma: float) -> float:
    """Black-Scholes call, no dividends."""
    if sigma <= 0:
        return max(x - strike * math.exp(-r * tau), 0.0)
    st = sigma * math.sqrt(tau)
    d1 = (math.log(x / strike) + (r + 0.5 * sigma * sigma) * tau) / st
    return x * _norm_cdf(d1) - strike * math.exp(-r * tau) * _norm_cdf(d1 - st)


def bs_vega(x: float, strike: float, tau: float, r: float, sigma: float) -> float:
    st = sigma * math.sqrt(tau)
    d1 = (math.log(x / strike) + (r + 0.5 * sigma * sigma) * tau) / st
    return x * math.sqrt(tau) * _norm_pdf(d1)


def bs_implied_vol(price: float, x: float, strike: float, tau: float,
                   r: float) -> float:
    """Invert Black-Scholes for the call vol inside the no-arbitrage band."""
    lower = max(x - strike * math.exp(-r * tau), 0.0)
    if not lower < price < x:
        raise NoRootError(
            f"price {price} outside the no-arbitrage band ({lower:.6g}, {x})"
        )
    hi = 1.0
    while bs_call_price(x, strike, tau, r, hi) < price:
        hi *= 2.0
        if hi > 100.0:
            raise NoRootError(f"price {price} beyond vol {hi}")
    guess = math.sqrt(2.0 * math.pi / tau) * price / x

    def f(s):
        return (bs_call_price(x, strike, tau, r, s), bs_vega(x, strike, tau, r, s))

    return _newton_bisect(f, price, 0.0, hi, guess, "black-scholes")


def write_surface_csv(path, strikes, maturities, grid) -> None:
    """Write a strike (rows) x maturity (columns) grid as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strike"] + [f"{t:.10g}" for t in maturities])
        for i, k in enumerate(strikes):
            writer.writerow([f"{k:.10g}"] + [f"{v:.10g}" for v in grid[i]])
