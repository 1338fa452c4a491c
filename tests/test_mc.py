"""Monte Carlo oracle tests: moments, martingale, degenerate limits,
determinism, and the spectral projection check."""

import math

import numpy as np
import pytest

import mssv.mc
from mssv import (DomainError, HiddenState, McConfig, McEstimate,
                  McModelParams, ModelParams, bs_call_price, mc_price_strikes)
from mssv.mc import mc_price_spx_strikes, mc_price_vix_strikes

from .conftest import FITTED
from .oracles import (expected_y, expected_z, mc_call_estimates,
                      mc_params_from_eta_nu, mc_vix_samples,
                      simulate_terminal, simulate_variance_terminal,
                      spectral_coefficient, variance_z, within)

PATHS = 200_000


def _mp(params=None, eta=-1.0):
    return McModelParams(params or ModelParams(**FITTED), eta=eta)


def test_factor_moments_match_closed_forms(params, state_high_y):
    mp = _mp(params)
    tau = 30 / 365
    cfg = McConfig(paths=PATHS, seed=11, steps_per_eps=10)
    yt, zt = simulate_variance_terminal(mp, state_high_y, tau, cfg)
    n = math.sqrt(len(yt))
    assert abs(yt.mean() - expected_y(tau, state_high_y, params)) \
        <= 3 * yt.std() / n
    assert abs(zt.mean() - expected_z(tau, state_high_y, params)) \
        <= 3 * zt.std() / n
    # CIR variance of the slow factor
    vz = variance_z(tau, state_high_y, params)
    se_var = zt.var() * math.sqrt(2.0 / len(zt))  # normal-theory rough SE
    assert abs(zt.var() - vz) <= 4 * se_var


def test_discounted_martingale(params, state_high_y):
    mp = _mp(params)
    cfg = McConfig(paths=PATHS, seed=12, steps_per_eps=10)
    xt, _, _ = simulate_terminal(mp, state_high_y, 2000.0, 0.25, cfg)
    disc = math.exp(-params.r * 0.25)
    se = disc * xt.std() / math.sqrt(len(xt))
    assert abs(disc * xt.mean() - 2000.0) <= 3 * se


def test_zero_strike_recovers_spot(params, state_high_y):
    mp = _mp(params)
    cfg = McConfig(paths=PATHS, seed=13, steps_per_eps=10)
    est = mc_price_spx_strikes(mp, state_high_y, 2000.0, [0.0], 0.25, cfg)[0]
    assert within(est, 2000.0, 3.0)


def test_deterministic_variance_limit_black_scholes():
    # sigma = nu ~ 0: variance path deterministic, X lognormal up to
    # the trapezoidal integrated variance (at eta = -1 the index's fast
    # shock is the fast factor's own, reconstructed from its increments)
    theta = 0.02
    p = ModelParams(kappa=2.0, theta=theta, sigma=1e-7, rho=0.0,
                    epsilon=0.02, w3_eps=0.0, r=0.02)
    mp = mc_params_from_eta_nu(p, eta=-1.0, nu=1e-9)
    cfg = McConfig(paths=100_000, seed=14, steps_per_eps=40)
    st = HiddenState(y=theta, z=theta)
    est = mc_price_spx_strikes(mp, st, 2000.0, [2000.0], 0.25, cfg)[0]
    ref = bs_call_price(2000.0, 2000.0, 0.25, 0.02, math.sqrt(2 * theta))
    assert within(est, ref, 3.0)
    # and the VIX payoff is then deterministic at stationarity
    vix_est = mc_price_vix_strikes(mp, st, [15.0], 30 / 365, cfg)[0]
    expected = math.exp(-0.02 * 30 / 365) * (100 * math.sqrt(2 * theta) - 15.0)
    assert abs(vix_est.mean - expected) < 0.02


def test_seed_determinism_serial_and_parallel(monkeypatch, params,
                                              state_high_y):
    mp = _mp(params)
    tau = 30 / 365
    cfg = McConfig(paths=300_000, seed=77, steps_per_eps=10)

    def price(cores):
        monkeypatch.setattr(mssv.mc, "usable_cores", lambda: cores)
        return mc_price_vix_strikes(mp, state_high_y, [20.0], tau, cfg)[0]

    a, b, c = price(1), price(1), price(4)
    assert a == b  # bitwise
    assert a == c  # ordered chunk reduction makes 4 threads identical
    d = mc_price_vix_strikes(mp, state_high_y, [20.0], tau,
                             McConfig(paths=300_000, seed=78,
                                      steps_per_eps=10))[0]
    assert d.mean != a.mean


def test_split_invariance_within_tolerance(params, state_high_y):
    # two (eta, nu) splits with the same w3_eps price identically up to
    # the approximation order: 3 SE plus O(epsilon) slack
    tau = 0.25
    cfg = McConfig(paths=150_000, seed=21, steps_per_eps=10)
    a = mc_price_spx_strikes(_mp(params, eta=-1.0), state_high_y, 2000.0,
                             [2000.0], tau, cfg)[0]
    b = mc_price_spx_strikes(_mp(params, eta=-0.5), state_high_y, 2000.0,
                             [2000.0], tau, cfg)[0]
    slack = 100.0 * params.epsilon
    se = math.hypot(a.standard_error, b.standard_error)
    assert abs(a.mean - b.mean) <= 3 * se + slack


def test_one_grid_pricers_price_their_own_simulation(params, state_high_y):
    # bit for bit the payoffs of simulate_terminal's X_T and of
    # simulate_variance_terminal's VIX_T, the index not simulated
    mp, tau = _mp(params), 0.05
    cfg = McConfig(paths=10_000, seed=31, steps_per_eps=2)
    spx, vix = [1900.0, 2000.0, 2100.0], [15.0, 20.0]
    xt, _, _ = simulate_terminal(mp, state_high_y, 2000.0, tau, cfg)
    assert mc_price_spx_strikes(mp, state_high_y, 2000.0, spx, tau, cfg) == \
        mc_call_estimates(xt, spx, tau, params.r)
    yt, zt = simulate_variance_terminal(mp, state_high_y, tau, cfg)
    assert mc_price_vix_strikes(mp, state_high_y, vix, tau, cfg) == \
        mc_call_estimates(mc_vix_samples(mp, yt, zt), vix, tau, params.r)


def test_both_grids_are_priced_off_one_simulation(monkeypatch, params,
                                                  state_high_y):
    mp, tau = _mp(params), 0.05
    cfg = McConfig(paths=10_000, seed=32, steps_per_eps=2)
    spx, vix = [1900.0, 2000.0], [15.0, 20.0, 25.0]
    runs, real = [], mssv.mc._simulate

    def counted(*args, **kwargs):
        runs.append(kwargs["with_x"])
        return real(*args, **kwargs)

    monkeypatch.setattr(mssv.mc, "_simulate", counted)
    spx_ests, vix_ests = mc_price_strikes(mp, state_high_y, tau, cfg, 2000.0,
                                          spx, vix)
    assert runs == [True]
    assert spx_ests == mc_price_spx_strikes(mp, state_high_y, 2000.0, spx,
                                            tau, cfg)
    # the VIX rows read the same run's (Y_T, Z_T): the index's normals
    # sit between their draws, so a VIX-only run gives other numbers
    _, yt, zt = simulate_terminal(mp, state_high_y, 2000.0, tau, cfg)
    assert vix_ests == mc_call_estimates(
        mc_vix_samples(mp, yt, zt), vix, tau, params.r)
    runs.clear()
    alone = mc_price_vix_strikes(mp, state_high_y, vix, tau, cfg)
    assert vix_ests != alone
    assert mc_price_strikes(mp, state_high_y, tau, cfg,
                            vix_strikes=vix) == ([], alone)
    assert runs == [False, False]
    for x0 in (0.0, None):
        with pytest.raises(DomainError, match="x0 must be positive"):
            mc_price_strikes(mp, state_high_y, tau, cfg, x0, spx, vix)


def test_mc_params_consistency():
    p = ModelParams(**FITTED)
    # nu is derived from w3_eps, so no (eta, nu) pair can contradict it
    with pytest.raises(TypeError):
        McModelParams(params=p, eta=-0.5, nu=0.1)
    with pytest.raises(TypeError):
        McModelParams(params=p, eta=-1.0, nu=float("nan"))
    mp = McModelParams(p)
    assert mp.eta == -1.0
    assert mp.nu == pytest.approx(
        math.sqrt(2) * p.w3_eps / math.sqrt(p.epsilon), rel=1e-12)
    for eta in (float("nan"), float("inf"), 0.0, 1.5):
        with pytest.raises(ValueError, match="eta"):
            McModelParams(p, eta=eta)
    mp2 = mc_params_from_eta_nu(p, eta=-0.5, nu=0.433)
    assert mp2.params.w3_eps == pytest.approx(
        0.5 * 0.433 * math.sqrt(p.epsilon / 2), rel=1e-12)
    assert mp2.nu == pytest.approx(0.433, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(paths=100)  # oracle floor
    with pytest.raises(ValueError):
        McConfig(paths=10_000, steps_per_eps=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        McConfig(paths=10_000, seed=-1)
    # numpy integers are ints
    assert McConfig(paths=np.int64(10_000), seed=np.int64(1)).seed == 1


@pytest.mark.parametrize("field, value", [
    ("paths", 20_000.0), ("paths", float("nan")), ("paths", True),
    ("seed", 1.5), ("seed", False), ("steps_per_eps", 2.0),
    ("steps_per_eps", "2")])
def test_config_settings_must_be_ints(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        McConfig(**{"paths": 10_000, field: value})


@pytest.mark.parametrize("tau", [float("inf"), float("nan"), 0.0, -0.1])
def test_horizon_must_be_positive_and_finite(params, state_high_y, tau):
    cfg = McConfig(paths=10_000, seed=3, steps_per_eps=1)
    for run in (lambda: mc_price_vix_strikes(_mp(params), state_high_y,
                                             [20.0], tau, cfg),
                lambda: mc_price_spx_strikes(_mp(params), state_high_y,
                                             2000.0, [2000.0], tau, cfg)):
        with pytest.raises(DomainError,
                           match="horizon must be positive and finite"):
            run()


@pytest.mark.parametrize("x0", [float("inf"), float("nan"), -float("inf")])
def test_non_finite_spot_is_rejected_before_simulating(monkeypatch, params,
                                                       state_high_y, x0):
    def never(*args, **kwargs):
        raise AssertionError("simulated with a non-finite spot")

    monkeypatch.setattr(mssv.mc, "_simulate", never)
    cfg = McConfig(paths=10_000, seed=3, steps_per_eps=1)
    with pytest.raises(DomainError, match="x0 must be positive and finite"):
        mc_price_strikes(_mp(params), state_high_y, 0.05, cfg, x0, [2000.0])


def test_jobs_follow_the_usable_cores(monkeypatch, params, state_high_y):
    # two chunks of paths: one run starts a pool of two threads on two
    # usable cores, and none on one
    pools, real = [], mssv.mc.ThreadPoolExecutor

    def counted(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(mssv.mc, "ThreadPoolExecutor", counted)
    cfg = McConfig(paths=mssv.mc._CHUNK + 10_000, seed=5, steps_per_eps=1)
    runs = {}
    for cores in (1, 2):
        monkeypatch.setattr(mssv.mc, "usable_cores", lambda: cores)
        runs[cores] = simulate_variance_terminal(_mp(params), state_high_y,
                                                 0.01, cfg)
        assert pools == ([] if cores == 1 else [2])
    for serial, threaded in zip(runs[1], runs[2]):
        assert np.array_equal(serial, threaded)


@pytest.mark.parametrize("paths", [100_000, 3 * mssv.mc._CHUNK + 1])
def test_paths_split_the_same_way_on_any_core_count(monkeypatch, params,
                                                    state_high_y, paths):
    # ceil(paths / _CHUNK) chunks on 1, 2 or 3 threads, each on its own
    # stream and reduced in chunk order: the estimates are the same bit
    # for bit, and more than one usable core starts a pool of that many
    mp, tau = _mp(params), 0.01
    cfg = McConfig(paths=paths, seed=41, steps_per_eps=1)
    chunks, pools = [], []
    sim_exact, pool = mssv.mc._sim_exact, mssv.mc.ThreadPoolExecutor

    def counted_chunk(rng, n, *args):
        chunks.append(n)
        return sim_exact(rng, n, *args)

    def counted_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return pool(*args, **kwargs)

    monkeypatch.setattr(mssv.mc, "_sim_exact", counted_chunk)
    monkeypatch.setattr(mssv.mc, "ThreadPoolExecutor", counted_pool)
    estimates = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(mssv.mc, "usable_cores", lambda: cores)
        chunks.clear()
        pools.clear()
        estimates.append(mc_price_strikes(mp, state_high_y, tau, cfg, 2000.0,
                                          [1900.0, 2000.0], [18.0, 22.0]))
        assert len(chunks) == math.ceil(paths / mssv.mc._CHUNK)
        assert sum(chunks) == paths
        assert pools == ([] if cores == 1 else [cores])
        xt, yt, zt = simulate_terminal(mp, state_high_y, 2000.0, tau, cfg)
        assert len(xt) == len(yt) == len(zt) == paths
    assert estimates[0] == estimates[1] == estimates[2]


def test_estimate_within_helper():
    est = McEstimate(mean=10.0, standard_error=0.5)
    assert within(est, 11.0, 3.0)
    assert not within(est, 12.0, 3.0)
    assert within(est, 12.0, 3.0, slack=1.0)


def test_dt_halving_stability_at_oracle_scale(params, state_high_y):
    # halving dt leaves the estimates within Monte Carlo resolution at
    # the acceptance sample size; the two runs draw independent streams,
    # so the zero-bias difference has standard error hypot(se1, se2)
    mp = _mp(params)
    tau = 30 / 365
    vix = []
    spx = []
    for spe in (10, 20):
        cfg = McConfig(paths=1_000_000, seed=31, steps_per_eps=spe)
        vix.append(mc_price_vix_strikes(mp, state_high_y, [20.0], tau, cfg)[0])
        spx.append(mc_price_spx_strikes(mp, state_high_y, 2000.0, [2000.0],
                                        tau, cfg)[0])
    for a, b in (vix, spx):
        assert abs(a.mean - b.mean) <= \
            2.0 * math.hypot(a.standard_error, b.standard_error)


def test_spectral_coefficients():
    nu, z = 0.4, 0.04
    assert abs(spectral_coefficient(nu, z, 0)) < 1e-10
    c1 = spectral_coefficient(nu, z, 1)
    assert c1 == pytest.approx(-nu * math.sqrt(z), rel=1e-8)
    assert c1 == pytest.approx(-0.08, rel=1e-8)
    assert abs(spectral_coefficient(nu, z, 2)) < 1e-8
    assert abs(spectral_coefficient(nu, z, 3)) < 1e-8
