"""VIX pricer tests: density suite, payoffs against an independent
re-derivation, price-level properties."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist
from scipy.stats import ncx2 as scipy_ncx2

from mssv import (HiddenState, ModelParams, Ncx2Params, QuadratureConfig,
                  QuadratureError, Quote, VixOptionSpec, ncx2_pdf, payoff_h0,
                  payoff_h1star, price_quotes, price_vix,
                  price_vix_heston_strike_batch, price_vix_strike_batch,
                  vix_weights)
from mssv.model import TAU0

from .conftest import FITTED

DOF_GRID = (0.5, 2.0, 10.0, 50.0)
LAM_GRID = (0.0, 1.0, 10.0, 100.0)


@pytest.mark.parametrize("dof", DOF_GRID)
@pytest.mark.parametrize("lam", LAM_GRID)
def test_ncx2_normalization_and_mean(dof, lam):
    p = Ncx2Params(dof=dof, lam=lam, delta=1.0)
    hi = dof + lam + 60 * math.sqrt(2 * (dof + 2 * lam)) + 20
    mass = quad(lambda z: ncx2_pdf(z, p), 0, hi, limit=500)[0]
    mean = quad(lambda z: z * ncx2_pdf(z, p), 0, hi, limit=500)[0]
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert mean == pytest.approx(dof + lam, abs=1e-6)


@pytest.mark.parametrize("dof", DOF_GRID)
@pytest.mark.parametrize("lam", LAM_GRID)
def test_ncx2_matches_scipy(dof, lam):
    p = Ncx2Params(dof=dof, lam=lam, delta=1.0)
    zs = np.linspace(0.05, dof + lam + 30, 60)
    mine = ncx2_pdf(zs, p)
    ref = scipy_ncx2.pdf(zs, dof, lam)
    assert np.allclose(mine, ref, rtol=1e-10, atol=1e-300)


def test_ncx2_central_case_closed_form():
    # lambda = 0: central chi-square = Gamma(dof/2, scale 2)
    p = Ncx2Params(dof=3.7, lam=0.0, delta=1.0)
    zs = np.linspace(0.01, 30, 40)
    ref = gamma_dist.pdf(zs, a=3.7 / 2, scale=2.0)
    assert np.allclose(ncx2_pdf(zs, p), ref, rtol=1e-12)


def test_ncx2_reproduces_cir_conditional_mean(params):
    # delta*(dof + lam) = z e^{-kappa tau} + theta (1 - e^{-kappa tau})
    z, tau = 0.0194, TAU0
    p = Ncx2Params.from_cir(params.kappa, params.theta, params.sigma, z, tau)
    lhs = p.delta * (p.dof + p.lam)
    rhs = z * math.exp(-params.kappa * tau) + params.theta * (
        1 - math.exp(-params.kappa * tau))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ncx2_negative_and_zero_arguments():
    p = Ncx2Params(dof=2.5, lam=3.0, delta=1.0)
    assert ncx2_pdf(-1.0, p) == 0.0
    assert ncx2_pdf(0.0, p) == 0.0  # dof > 2
    p_low = Ncx2Params(dof=1.0, lam=3.0, delta=1.0)
    assert math.isinf(ncx2_pdf(0.0, p_low))


def test_payoff_h0_kink_and_floor(params):
    w = vix_weights(params.kappa, params.epsilon)
    K = 18.0
    vstar = ((K / 100) ** 2 - (1 + w.a4_star) * params.theta) / w.a2_star
    assert payoff_h0(vstar, params, K) == pytest.approx(0.0, abs=1e-12)
    assert payoff_h0(vstar * 0.7, params, K) == 0.0
    assert payoff_h0(vstar * 1.3, params, K) > 0.0


def test_payoff_h0_zero_strike_always_on(params):
    w = vix_weights(params.kappa, params.epsilon)
    for v in (0.0, 0.01, 0.2):
        expected = 100 * math.sqrt(w.a2_star * v + (1 + w.a4_star) * params.theta)
        assert payoff_h0(v, params, 0.0) == pytest.approx(expected, rel=1e-14)


def test_payoff_h0_at_long_run_level(params):
    # a2* + a4* = 1 makes h0(theta) = 100 sqrt(2 theta) - K exactly
    assert payoff_h0(params.theta, params, 15.0) == pytest.approx(
        5.493901531919197, rel=1e-12)


def test_payoff_h1star_vanishes_at_fixed_point(params):
    st = HiddenState(y=0.03, z=0.03)
    assert payoff_h1star(params.theta, st, TAU0, params, 15.0) == \
        pytest.approx(0.0, abs=1e-15)


def test_payoff_h1star_transient_underflow_regime(params, state_high_y):
    # tau/eps = 26: the y - z term is ~5e-12 of the kappa*eps term
    w = vix_weights(params.kappa, params.epsilon)
    v = 0.03
    val = payoff_h1star(v, state_high_y, 0.25, params, 15.0)
    dominant = (params.kappa * params.epsilon * w.a2_star * (v - params.theta)
                * 100.0 / (4 * math.sqrt(w.a2_star * v
                                         + (1 + w.a4_star) * params.theta)))
    assert val == pytest.approx(dominant, rel=1e-8)
    # far past the underflow threshold the transient is exactly zero
    deep = ModelParams(**{**FITTED, "epsilon": 1e-4})
    v2 = payoff_h1star(v, state_high_y, 0.25, deep, 15.0)
    assert math.exp(-0.25 / 1e-4) == 0.0 if 0.25 / 1e-4 > 745 else True
    assert math.isfinite(v2)


def test_payoff_h1star_against_expansion_rederivation(params, state_high_y):
    """Second implementation from the generic first-order expansion:
    the correction payoff equals eps * h1 evaluated at the frozen fast
    factor u = v + e^{-tau/eps}(y - z), with h1 written via the raw
    exponential weights rather than the packed a-coefficients."""
    kappa, theta, eps = params.kappa, params.theta, params.epsilon
    w = vix_weights(kappa, eps)
    y, z = state_high_y.y, state_high_y.z
    for (v, tau, K) in [(0.03, TAU0, 18.0), (0.05, 5 / 365, 20.0),
                        (0.022, 0.1, 15.0)]:
        u = v + math.exp(-tau / eps) * (y - z)
        numer = ((1 - math.exp(-TAU0 / eps)) * (u - v)
                 + (1 - math.exp(-kappa * TAU0)) * (v - theta))
        root = math.sqrt(w.a2_star * v + (1 + w.a4_star) * theta)
        vstar = ((K / 100) ** 2 - (1 + w.a4_star) * theta) / w.a2_star
        ref = eps * 100.0 * numer / (2 * TAU0 * root) * (v >= vstar)
        assert payoff_h1star(v, state_high_y, tau, params, K) == \
            pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_price_monotone_in_strike(params, state_high_y):
    prices = [price_vix(VixOptionSpec(k, TAU0), state_high_y, params).total
              for k in (15.0, 20.0, 25.0)]
    assert prices[0] > prices[1] > prices[2] > 0


def test_price_convex_nonincreasing_grid(params, state_low_y):
    strikes = np.arange(14.0, 30.0, 1.0)
    prices = np.array([
        price_vix(VixOptionSpec(k, TAU0), state_low_y, params).total
        for k in strikes
    ])
    assert np.all(np.diff(prices) <= 1e-8)
    assert np.all(np.diff(prices, 2) >= -1e-8)


def test_correction_increases_in_y_when_transient_alive(params):
    # d P_v1 / d y > 0 while tau/eps <= 5
    tau = 5 * params.epsilon
    z = 0.02
    lo = price_vix(VixOptionSpec(20.0, tau), HiddenState(y=0.015, z=z),
                   params).correction
    hi = price_vix(VixOptionSpec(20.0, tau), HiddenState(y=0.030, z=z),
                   params).correction
    assert hi > lo


def _call_put_zero(strike, calls, r):
    """The call and put at strike and the K = 0 call, in one batch."""
    return price_quotes([Quote(strike, TAU0, True, math.nan),
                         Quote(strike, TAU0, False, math.nan),
                         Quote(0.0, TAU0, True, math.nan)], calls, r)


def test_forward_and_put_parity(params, state_high_y):
    call, put, zero = _call_put_zero(
        22.0, lambda ks, tau: price_vix_strike_batch(ks, tau, state_high_y,
                                                     params), params.r)
    fwd = zero.total * math.exp(params.r * TAU0)
    disc = math.exp(-params.r * TAU0)
    assert call.total - put.total == pytest.approx(disc * (fwd - 22.0), abs=1e-10)
    assert put.total > 0


def test_zero_strike_call_is_discounted_forward(params, state_high_y):
    zero = price_vix(VixOptionSpec(0.0, TAU0), state_high_y, params)
    fwd = zero.total * math.exp(params.r * TAU0)
    assert zero.total == pytest.approx(fwd * math.exp(-params.r * TAU0),
                                       rel=1e-12)
    # sanity: forward sits near the current VIX level
    assert 18.0 < fwd < 22.0


def test_uncorrected_price_depends_on_z_only(params):
    a = price_vix(VixOptionSpec(20.0, TAU0), HiddenState(y=0.01, z=0.02),
                  params, include_correction=False)
    b = price_vix(VixOptionSpec(20.0, TAU0), HiddenState(y=0.09, z=0.02),
                  params, include_correction=False)
    assert a.total == b.total
    assert a.correction == 0.0


def test_heston_vix_pricer_monotone_and_parity():
    kappa, theta, sigma, r = 3.43, 0.04, 0.424, 0.02
    z = 0.04
    prices = [price_vix_heston_strike_batch([k], TAU0, z, kappa, theta, sigma,
                                            r)[0] for k in (15.0, 20.0, 25.0)]
    assert prices[0] > prices[1] > prices[2] > 0
    call, put, fwd = (d.total for d in _call_put_zero(
        20.0, lambda ks, tau: price_vix_heston_strike_batch(
            ks, tau, z, kappa, theta, sigma, r), r))
    assert call - put == pytest.approx(fwd - math.exp(-r * TAU0) * 20.0,
                                       abs=1e-10)


def test_node_budget_below_breakpoint_panels_raises(params, state_high_y):
    # 50 strikes put 50 kinks into the core integral: 58 panels, 870 nodes
    strikes = np.linspace(15.0, 30.0, 50)
    with pytest.raises(QuadratureError):
        price_vix_strike_batch(strikes, TAU0, state_high_y, params,
                               QuadratureConfig(max_nodes=500))


def test_spec_validation():
    with pytest.raises(ValueError):
        VixOptionSpec(strike=-1.0, tau=0.1)
    with pytest.raises(ValueError):
        VixOptionSpec(strike=20.0, tau=0.0)
    with pytest.raises(ValueError):
        Ncx2Params(dof=0.0, lam=1.0, delta=1.0)
