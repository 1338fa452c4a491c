"""Output checks for the benchmark, built apart from the package.

Nothing here imports `mssv`.  The reference pricers use closed forms and
scipy's QUADPACK and distributions, never the package's contour,
Gauss-Kronrod rule or non-central chi-square series:

* SPX: a Heston call by Gil-Pelaez inversion of the closed-form
  characteristic function (the "little trap" branch), integrated with
  `scipy.integrate.quad`;
* VIX: the leading call term as the square-root payoff integrated
  against `scipy.stats.ncx2.pdf` with `scipy.integrate.quad`;
* Black-Scholes and Bachelier (normal-model) call formulas for
  repricing implied vols.

Every check returns a list of failure messages; an empty list passes.
The parsers read the text and CSV the `mssv` CLI writes.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import integrate, stats

TAU0 = 30.0 / 365.0


# ---------------------------------------------------------------------------
# reference pricers
# ---------------------------------------------------------------------------

def heston_char_fn(u, x, tau, r, kappa, theta, sigma, rho, v0):
    """E[exp(i u ln X_T)] under Heston dynamics, closed form."""
    iu = 1j * u
    beta = kappa - rho * sigma * iu
    d = np.sqrt(beta * beta + sigma * sigma * (iu + u * u))
    g = (beta - d) / (beta + d)
    e = np.exp(-d * tau)
    c = (iu * (math.log(x) + r * tau)
         + kappa * theta / sigma**2
         * ((beta - d) * tau - 2.0 * np.log((1.0 - g * e) / (1.0 - g))))
    dd = (beta - d) / sigma**2 * (1.0 - e) / (1.0 - g * e)
    return np.exp(c + dd * v0)


def heston_call(x, strike, tau, r, kappa, theta, sigma, rho, v0):
    """Heston call by Gil-Pelaez inversion: x P1 - K e^{-r tau} P2.

    The integrals run to the first power of two where the characteristic
    function has decayed below 1e-15; short maturities with rho near -1
    decay slowly and need several thousand.
    """
    lnk = math.log(strike)
    fwd = x * math.exp(r * tau)

    def cf(u):
        return heston_char_fn(u, x, tau, r, kappa, theta, sigma, rho, v0)

    u_max = 64.0
    while abs(cf(u_max - 1j)) / fwd > 1e-15 and u_max < 1e6:
        u_max *= 2.0

    def p1_integrand(u):
        return (np.exp(-1j * u * lnk) * cf(u - 1j) / (1j * u * fwd)).real

    def p2_integrand(u):
        return (np.exp(-1j * u * lnk) * cf(u) / (1j * u)).real

    opts = dict(limit=500, epsabs=1e-13, epsrel=1e-12)
    p1 = 0.5 + integrate.quad(p1_integrand, 0.0, u_max, **opts)[0] / math.pi
    p2 = 0.5 + integrate.quad(p2_integrand, 0.0, u_max, **opts)[0] / math.pi
    return x * p1 - strike * math.exp(-r * tau) * p2


def msv_vix_weights(kappa, epsilon):
    """(a1, a2, a2*, a4*) of the two-factor 30-day variance forward."""
    a1 = epsilon / TAU0 * (1.0 - math.exp(-TAU0 / epsilon))
    b = (1.0 - math.exp(-kappa * TAU0)) / (kappa * TAU0)
    a2 = b + (b - a1) / (1.0 - kappa * epsilon)
    return a1, a2, 2.0 * b, 1.0 - 2.0 * b


def msv_vix_level(y, z, kappa, theta, epsilon):
    """VIX (points) from the hidden state: 100 sqrt(a1 y + a2 z + (a3+a4) theta)."""
    a1, a2, _, _ = msv_vix_weights(kappa, epsilon)
    return 100.0 * math.sqrt(a1 * y + a2 * z + (2.0 - a1 - a2) * theta)


def msv_vix_limit_level(z, kappa, theta, epsilon):
    """epsilon -> 0 VIX level 100 sqrt(a2* z + (1 + a4*) theta)."""
    _, _, a2s, a4s = msv_vix_weights(kappa, epsilon)
    return 100.0 * math.sqrt(a2s * z + (1.0 + a4s) * theta)


def vix_leading_call(strike, tau, z, kappa, theta, sigma, r, slope,
                     intercept):
    """e^{-r tau} E[(100 sqrt(slope Z_tau + intercept) - K)+] with Z a CIR
    factor started at z, integrated against scipy's ncx2 density."""
    decay = math.exp(-kappa * tau)
    delta = (1.0 - decay) * sigma**2 / (4.0 * kappa)
    dof = 4.0 * kappa * theta / sigma**2
    lam = z * decay / delta
    zstar = max(((strike / 100.0) ** 2 - intercept) / slope / delta, 0.0)
    law = stats.ncx2(dof, lam)

    def integrand(zeta):
        return (100.0 * math.sqrt(slope * delta * zeta + intercept)
                - strike) * law.pdf(zeta)

    upper = law.ppf(1.0 - 1e-15) * 2.0 + zstar
    val, _ = integrate.quad(integrand, zstar, upper, limit=500,
                            epsabs=1e-12, epsrel=1e-11,
                            points=[law.mean()] if law.mean() > zstar else None)
    return math.exp(-r * tau) * val


def msv_vix_leading_call(strike, tau, z, kappa, theta, sigma, epsilon, r):
    _, _, a2s, a4s = msv_vix_weights(kappa, epsilon)
    return vix_leading_call(strike, tau, z, kappa, theta, sigma, r, a2s,
                            (1.0 + a4s) * theta)


def heston_vix_call(strike, tau, z, kappa, theta, sigma, r):
    b2 = (1.0 - math.exp(-kappa * TAU0)) / (kappa * TAU0)
    return vix_leading_call(strike, tau, z, kappa, theta, sigma, r, b2,
                            (1.0 - b2) * theta)


def _norm_cdf(d):
    return 0.5 * math.erfc(-d / math.sqrt(2.0))


def bs_call(x, strike, tau, r, vol):
    st = vol * math.sqrt(tau)
    d1 = (math.log(x / strike) + (r + 0.5 * vol * vol) * tau) / st
    return x * _norm_cdf(d1) - strike * math.exp(-r * tau) * _norm_cdf(d1 - st)


def bachelier_call(level, strike, tau, vol):
    s = vol * math.sqrt(tau)
    d = (level - strike) / s
    return ((level - strike) * _norm_cdf(d)
            + s * math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_close(label, got, ref, rel=0.0, abs_=0.0):
    """|got - ref| <= abs_ + rel |ref| for every pair."""
    out = []
    for i, (g, f) in enumerate(zip(got, ref)):
        if not (math.isfinite(g) and abs(g - f) <= abs_ + rel * abs(f)):
            out.append(f"{label}[{i}]: got {g!r}, reference {f!r}")
    if len(got) != len(ref):
        out.append(f"{label}: {len(got)} values against {len(ref)} references")
    return out


def check_decreasing_convex(label, strikes, calls, tol):
    """Call prices fall and are convex in strike, up to tol per slope."""
    k = np.asarray(strikes, dtype=float)
    c = np.asarray(calls, dtype=float)
    if len(k) < 3 or np.any(np.diff(k) <= 0):
        return [f"{label}: need >= 3 increasing strikes"]
    out = []
    slope = np.diff(c) / np.diff(k)
    if np.any(slope > tol):
        i = int(np.argmax(slope))
        out.append(f"{label}: call rises between K={k[i]:g} and K={k[i + 1]:g} "
                   f"(slope {slope[i]:.3e})")
    bend = np.diff(slope)
    if np.any(bend < -tol):
        i = int(np.argmin(bend))
        out.append(f"{label}: not convex at K={k[i + 1]:g} "
                   f"(slope change {bend[i]:.3e})")
    return out


def check_spx_parity(label, strikes, calls, puts, x, r, tau, rel=2e-9):
    """put - call = K e^{-r tau} - x, to the precision of the printed digits."""
    out = []
    disc = math.exp(-r * tau)
    for k, c, p in zip(strikes, calls, puts):
        resid = p - c - (k * disc - x)
        if abs(resid) > rel * (abs(p) + abs(c) + x):
            out.append(f"{label} K={k:g}: put-call parity off by {resid:.3e}")
    return out


def check_vix_parity(label, strikes, calls, puts, zero_call, r, tau,
                     rel=2e-9):
    """put - call = e^{-r tau} (K - F), with e^{-r tau} F the K = 0 call."""
    out = []
    disc = math.exp(-r * tau)
    for k, c, p in zip(strikes, calls, puts):
        resid = p - c - (disc * k - zero_call)
        if abs(resid) > rel * (abs(p) + abs(c) + zero_call + k):
            out.append(f"{label} K={k:g}: put-call parity off by {resid:.3e}")
    return out


def check_params(label, fitted, truth, tolerances):
    """Relative parameter recovery against the generating values."""
    out = []
    for name, tol in tolerances.items():
        rel = abs(fitted[name] - truth[name]) / abs(truth[name])
        if not rel <= tol:
            out.append(f"{label} {name}: fitted {fitted[name]:.6g}, truth "
                       f"{truth[name]:.6g}, off {100 * rel:.2f}% > "
                       f"{100 * tol:.0f}%")
    return out


def check_mc_martingale(label, mc_mean, se, x0, strike, r, tau, n_se=4.0):
    """A near-zero-strike call is x0 - e^{-r tau} K under any martingale."""
    ref = x0 - math.exp(-r * tau) * strike
    if not abs(mc_mean - ref) <= n_se * se:
        return [f"{label}: MC {mc_mean:.6f} vs {ref:.6f} is "
                f"{(mc_mean - ref) / se:+.2f} SE (limit {n_se})"]
    return []


def check_mc_agreement(label, rows, n_se=3.0, slack=0.01):
    """|analytic - MC| <= n_se SE + slack for each (strike, analytic, mc, se)."""
    out = []
    for k, a, m, se in rows:
        if not abs(a - m) <= n_se * se + slack:
            out.append(f"{label} K={k:g}: analytic {a:.6f}, MC {m:.6f}, "
                       f"se {se:.6f}")
    return out


# ---------------------------------------------------------------------------
# parsers for the CLI's output
# ---------------------------------------------------------------------------

def parse_price_table(text):
    """Rows (strike, leading, correction, total) of price-spx / price-vix."""
    rows = []
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) >= 4:
            rows.append(tuple(float(p) for p in parts[:4]))
    return rows


def parse_validate(text):
    """{"SPX"|"VIX": [(strike, analytic, mc, se)]} from the validate report."""
    out, current = {}, None
    for line in text.splitlines():
        head = line.split(" ", 1)[0]
        if head in ("SPX", "VIX"):
            current = out.setdefault(head, [])
        elif current is not None and line[:1].isdigit():
            k, a, m, se = (float(p) for p in line.split()[:4])
            current.append((k, a, m, se))
    return out


def parse_surface_csv(text):
    """(strikes, taus, grid) from an imvol-surface CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    taus = [float(t) for t in rows[0][1:]]
    strikes = [float(r[0]) for r in rows[1:]]
    grid = [[float(v) for v in r[1:]] for r in rows[1:]]
    return strikes, taus, grid


def parse_error_totals(text):
    """{underlying: (heston mean, ours mean)} from the error-report table."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    heston, ours = header.index("total:heston"), header.index("total:ours")
    return {r[0]: (float(r[heston]), float(r[ours]))
            for r in rows[1:] if r[0] in ("SPX", "VIX") and r[1] == "mean"}
