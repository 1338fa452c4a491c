"""Monte Carlo simulation of the full two-factor SDE system.

Provides the independent ground truth for both pricers.  Both variance
factors advance by their exact CIR transition (scaled non-central
chi-square draws), the fast factor against the slow level frozen at the
step start.  The index couples to the factor shocks through the
reconstructed Brownian integrals
int sqrt(Y) dW = (sqrt(eps)/(sqrt(2) nu)) (dY - drift dt), with
trapezoidal integrated variance.  Euler stepping is not used: the fast
factor violates its Feller condition so badly (2 z / (2 nu^2) ~ 0.1-0.4)
that it is visibly biased even at dt = eps/100.

Paths are simulated in chunks of `_CHUNK` = 16,384, ceil(paths /
16,384) of them whatever the core count, each with its own
counter-based (Philox) RNG stream keyed by (seed, chunk index), and
reduced in chunk order.  The results depend on the seed and the chunk
size, not on the thread count: they are bitwise the same on any number
of cores.  The chunks run on one thread per usable core: numpy's
non-central chi-square and normal draws and the array arithmetic
release the GIL, so the threads overlap.  The size is the fastest
timed: one 100,000-path, 86-step simulation on a shared 2-core VM took
0.97 s in chunks of 16,384, 1.00-1.15 s in chunks of 4,096 or 8,192,
1.26-1.30 s in chunks of 32,768 or 65,536 (too few to balance two
threads) and 2.0 s in one chunk of 131,072 on one thread.

`mc_price_strikes` prices an SPX and a VIX strike grid at one maturity
off one path set.  Each row's standard error is still that row's, but
the two grids' errors are then correlated: they are not independent
checks of the two pricers.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cores import usable_cores
from .exceptions import DomainError
from .model import HiddenState, ModelParams, vix_weights

_CHUNK = 1 << 14


@dataclass(frozen=True)
class McModelParams:
    """Model parameters plus the fast-factor pair (eta, nu).

    eta is the correlation of the index with the fast-factor shocks and
    nu the fast factor's vol-of-vol.  They enter the analytic formulas
    only through w3_eps = -(1/sqrt(2)) eta nu sqrt(eps), so nu is derived
    from w3_eps on the iso-w3 curve at the given eta.
    """

    params: ModelParams
    eta: float = -1.0
    nu: float = field(init=False)

    def __post_init__(self):
        if not -1.0 <= self.eta <= 1.0:
            raise ValueError(f"|eta| must be <= 1, got {self.eta}")
        if self.eta == 0.0:
            raise ValueError("eta = 0 cannot carry a non-zero w3_eps")
        p = self.params
        nu = -math.sqrt(2.0) * p.w3_eps / (self.eta * math.sqrt(p.epsilon))
        if nu <= 0:
            raise ValueError(
                f"nu must be positive, got {nu}: eta needs the opposite "
                "sign to w3_eps, and w3_eps = 0 leaves no nu > 0 to simulate")
        object.__setattr__(self, "nu", nu)


@dataclass(frozen=True)
class McConfig:
    """Simulation settings: the path count, the seed of the chunk streams,
    and steps_per_eps, which caps the step at epsilon / steps_per_eps.
    Each must be an int (not a bool).

    The paths split into chunks of 16,384 (`_CHUNK`, the fastest size
    timed on 2 cores), which run on one thread per usable core, counted
    at each run; the estimates depend on the seed and the chunk size, not
    on the thread count.
    """

    paths: int = 1_000_000
    seed: int = 0
    steps_per_eps: int = 20

    def __post_init__(self):
        for name in ("paths", "seed", "steps_per_eps"):
            value = getattr(self, name)
            if isinstance(value, bool) or \
                    not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.paths < 10_000:
            raise ValueError(f"oracle runs need >= 10^4 paths, got {self.paths}")
        if self.steps_per_eps < 1:
            raise ValueError("steps_per_eps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    standard_error: float


def _chunk_rngs(seed: int, n_chunks: int):
    return [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        for i in range(n_chunks)]


def _sim_exact(rng, n, mp: McModelParams, y0, z0, x0, horizon, n_steps,
               with_x: bool):
    p = mp.params
    eps, nu, eta = p.epsilon, mp.nu, mp.eta
    dt = horizon / n_steps
    ez = math.exp(-p.kappa * dt)
    delta_z = (1.0 - ez) * p.sigma**2 / (4.0 * p.kappa)
    dof_z = 4.0 * p.kappa * p.theta / p.sigma**2
    ey = math.exp(-dt / eps)
    delta_y = (1.0 - ey) * nu**2 / 2.0
    c_eta = math.sqrt(1.0 - eta * eta)
    c_rho = math.sqrt(1.0 - p.rho * p.rho)
    inv_sq2nu = 1.0 / (math.sqrt(2.0) * nu)

    y = np.full(n, y0)
    z = np.full(n, z0)
    lx = np.full(n, math.log(x0)) if with_x else None
    for _ in range(n_steps):
        z_new = delta_z * rng.noncentral_chisquare(dof_z, z * (ez / delta_z))
        dof_y = np.maximum(2.0 * z / nu**2, 1e-12)
        y_new = delta_y * rng.noncentral_chisquare(dof_y, y * (ey / delta_y))
        if with_x:
            iy = 0.5 * (y + y_new) * dt
            iz = 0.5 * (z + z_new) * dt
            wy = math.sqrt(eps) * inv_sq2nu * (y_new - y - (iz - iy) / eps)
            wz = (z_new - z - p.kappa * p.theta * dt + p.kappa * iz) / p.sigma
            lx += (p.r * dt - 0.5 * (iy + iz)) + eta * wy + p.rho * wz \
                + c_eta * np.sqrt(iy) * rng.standard_normal(n) \
                + c_rho * np.sqrt(iz) * rng.standard_normal(n)
        y = y_new
        z = z_new
    return (np.exp(lx) if with_x else None), y, z


def _simulate(mp: McModelParams, state0: HiddenState, x0, horizon: float,
              cfg: McConfig, with_x: bool):
    if not 0 < horizon < math.inf:
        raise DomainError(
            f"horizon must be positive and finite, got {horizon}")
    n_steps = max(math.ceil(horizon / (mp.params.epsilon / cfg.steps_per_eps)),
                  1)
    sizes = [min(_CHUNK, cfg.paths - start)
             for start in range(0, cfg.paths, _CHUNK)]
    rngs = _chunk_rngs(cfg.seed, len(sizes))

    def run(i):
        return _sim_exact(rngs[i], sizes[i], mp, state0.y, state0.z,
                          x0 if with_x else 1.0, horizon, n_steps, with_x)

    jobs = usable_cores()
    if jobs > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(run, range(len(sizes))))
    else:
        parts = [run(i) for i in range(len(sizes))]
    xt = np.concatenate([p[0] for p in parts]) if with_x else None
    yt = np.concatenate([p[1] for p in parts])
    zt = np.concatenate([p[2] for p in parts])
    return xt, yt, zt


def _estimate(payoff: np.ndarray) -> McEstimate:
    n = payoff.shape[0]
    return McEstimate(mean=float(payoff.mean()),
                      standard_error=float(payoff.std(ddof=1) / math.sqrt(n)))


def mc_price_strikes(mp: McModelParams, state0: HiddenState, tau: float,
                     cfg: McConfig, x0: float | None = None, spx_strikes=(),
                     vix_strikes=()
                     ) -> tuple[list[McEstimate], list[McEstimate]]:
    """(SPX, VIX) call estimates at one maturity from one simulated path
    set; the index is simulated only when there are SPX strikes.  The VIX
    maps (Y_T, Z_T) through the exact VIX relation (full epsilon weights,
    no expansion).  Grids priced together share their paths, so their
    errors are correlated."""
    with_x = bool(len(spx_strikes))
    if with_x and (x0 is None or not 0 < x0 < math.inf):
        raise DomainError(f"x0 must be positive and finite, got {x0}")
    xt, yt, zt = _simulate(mp, state0, x0, tau, cfg, with_x=with_x)
    disc = math.exp(-mp.params.r * tau)

    def calls(samples, strikes):
        return [_estimate(disc * np.maximum(samples - k, 0.0))
                for k in strikes]

    vix_t = None
    if len(vix_strikes):
        w = vix_weights(mp.params.kappa, mp.params.epsilon)
        vix_t = 100.0 * np.sqrt(w.a1 * yt + w.a2 * zt
                                + (w.a3 + w.a4) * mp.params.theta)
    return calls(xt, spx_strikes), calls(vix_t, vix_strikes)


def mc_price_spx_strikes(mp: McModelParams, state0: HiddenState, x0: float,
                         strikes, tau: float, cfg: McConfig) -> list[McEstimate]:
    """Call prices on a strike grid from one simulated terminal sample."""
    return mc_price_strikes(mp, state0, tau, cfg, x0, spx_strikes=strikes)[0]


def mc_price_vix_strikes(mp: McModelParams, state0: HiddenState, strikes,
                         tau: float, cfg: McConfig) -> list[McEstimate]:
    """VIX call grid from one simulation of (Y_T, Z_T) alone."""
    return mc_price_strikes(mp, state0, tau, cfg, vix_strikes=strikes)[1]
