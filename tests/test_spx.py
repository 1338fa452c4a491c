"""SPX pricer tests: transform terms against the ODE oracle, correction
factors against their integral definitions, price-level properties."""

import math

import numpy as np
import pytest

import mssv.quadrature
import mssv.spx
from mssv import (CharFnOverflowError, DomainError, HiddenState, ModelParams,
                  QuadratureConfig, price_heston_call_batch,
                  price_spx_strike_batch)
from mssv.spx import (SpxOptionSpec, _cf_terms, _correction_factors,
                      effective_heston, price_spx)

from .conftest import FITTED
from .oracles import char_fn_ode, f0_hat_quad, f1_hat_quad

CONTOUR_KS = [0.3 + 1.5j, 1.0 + 1.5j, -2.0 + 1.5j, 7.0 + 1.5j, 25.0 + 1.5j]


def _terms(tau, k, params):
    """C, D, d, g, E = exp(tau*d) of the contour pass at one k."""
    terms = _cf_terms(tau, np.asarray([k], dtype=complex),
                      *effective_heston(params))
    return [t[0] for t in terms]


def _char_fn(tau, k, xi, params):
    """exp(C + xi*D) at one (tau, k), as the contour pass forms it."""
    C, D, _, _, _ = _terms(tau, k, params)
    return np.exp(C + xi * D)


def test_char_fn_small_k_normalization(params):
    # G -> 1 as k -> 0 under the branch rule
    val = _char_fn(0.25, 1e-10 + 0j, 0.04, params)
    assert abs(val - 1.0) < 1e-8


def test_char_fn_matches_riccati_oracle(params):
    for k in CONTOUR_KS + [1.0 + 1.5j]:
        mine = _char_fn(0.25, k, 0.042, params)
        ref = char_fn_ode(0.25, k, 0.042, params.kappa, params.theta,
                          params.sigma, params.rho)
        assert abs(mine - ref) <= 1e-8 * max(1.0, abs(ref))


def test_char_fn_continuity_along_contour(params):
    # dense sweep: no branch-cut jumps in C (log stays on one sheet)
    us = np.linspace(-60.0, 60.0, 1201)
    cs = np.array([_terms(0.5, u + 1.5j, params)[0] for u in us])
    jumps = np.abs(np.diff(cs.imag))
    assert jumps.max() < 1.0  # a cut crossing would show a ~2*pi jump


def test_char_fn_overflow_guard(params):
    # xi = 2z = 1e8 overflows the transform exponent on the contour
    with pytest.raises(CharFnOverflowError):
        price_spx_strike_batch(2000.0, [2000.0], 0.25,
                               HiddenState(y=0.0, z=5e7), params)


def _factors(tau, k, params):
    _, _, d, g, E = _terms(tau, k, params)
    return _correction_factors(tau, d, g, E)


def test_correction_factors_vanish_at_zero_maturity(params):
    for tau in (1e-8, 1e-6):
        f0, f1 = _factors(tau, 1.0 + 1.5j, params)
        assert abs(f0) < 1e-5
        assert abs(f1) < 1e-4


def test_correction_factors_match_integral_definitions(params):
    for k in (1.0 + 1.5j, 5.0 + 1.5j, -3.0 + 1.5j):
        f0, f1 = _factors(0.25, k, params)
        f1_ref = f1_hat_quad(0.25, k, params.kappa, params.sigma, params.rho)
        f0_ref = f0_hat_quad(0.25, k, params.kappa, params.sigma, params.rho)
        assert abs(f1 - f1_ref) < 1e-8
        assert abs(f0 - f0_ref) < 1e-8


def test_correction_eta_scaling(params, state_high_y):
    # the correction is exactly linear in w3_eps
    spec = SpxOptionSpec(x=2000.0, strike=2100.0, tau=0.25)
    base = price_spx(spec, state_high_y, params)
    doubled = price_spx(
        spec, state_high_y,
        ModelParams(**{**FITTED, "w3_eps": 2 * FITTED["w3_eps"]}))
    assert doubled.correction == pytest.approx(2 * base.correction, rel=1e-9)
    assert doubled.leading == pytest.approx(base.leading, rel=1e-12)


def test_zero_w3_kills_correction(params, state_high_y):
    p0 = ModelParams(**{**FITTED, "w3_eps": 0.0})
    d = price_spx(SpxOptionSpec(2000.0, 2000.0, 0.25), state_high_y, p0)
    assert d.correction == 0.0


def test_heston_reduction(params, state_high_y):
    # with the correction off, the price is the one-factor price under
    # the mapped parameters (kappa, 2 theta, sqrt(2) sigma, rho/sqrt(2))
    p0 = ModelParams(**{**FITTED, "w3_eps": 0.0})
    ke, te, se, re_ = effective_heston(p0)
    for strike in (1800.0, 2000.0, 2200.0):
        spec = SpxOptionSpec(2000.0, strike, 0.25)
        mine = price_spx(spec, state_high_y, p0).total
        ref = price_heston_call_batch(2000.0, [strike], 0.25, p0.r, ke, te,
                                      se, re_, 2 * state_high_y.z)[0]
        assert mine == pytest.approx(ref, rel=1e-12)


def test_price_homogeneity(params, state_high_y):
    lam = 2.0
    a = price_spx(SpxOptionSpec(2000.0, 2100.0, 0.25), state_high_y, params)
    b = price_spx(SpxOptionSpec(lam * 2000.0, lam * 2100.0, 0.25),
                  state_high_y, params)
    assert b.total == pytest.approx(lam * a.total, rel=1e-10)


def test_put_call_parity(params, state_high_y):
    spec_c = SpxOptionSpec(2000.0, 2050.0, 0.25, is_call=True)
    spec_p = SpxOptionSpec(2000.0, 2050.0, 0.25, is_call=False)
    call = price_spx(spec_c, state_high_y, params)
    put = price_spx(spec_p, state_high_y, params)
    lhs = call.total - put.total
    rhs = 2000.0 - 2050.0 * math.exp(-params.r * 0.25)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # the parity shift lives entirely in the leading term
    assert put.correction == call.correction


def test_deep_itm_put_asymptote(params, state_high_y):
    strike = 20000.0
    put = price_spx(SpxOptionSpec(2000.0, strike, 0.25, is_call=False),
                    state_high_y, params)
    bound = strike * math.exp(-params.r * 0.25) - 2000.0
    assert put.total == pytest.approx(bound, abs=1e-4)
    assert put.total >= bound - 1e-10


def test_intrinsic_lower_bound(params, state_high_y):
    quad = QuadratureConfig()
    for strike in (1500.0, 1800.0, 2000.0):
        d = price_spx(SpxOptionSpec(2000.0, strike, 0.25), state_high_y,
                      params, quad)
        intrinsic = max(2000.0 - strike * math.exp(-params.r * 0.25), 0.0)
        assert d.leading >= intrinsic - quad.abs_tol * strike


def test_monotone_and_convex_in_strike(params, state_high_y):
    # the truncated expansion is only trusted near the money (the far
    # OTM wing can go negative once the correction dominates), so the
    # shape checks run on the +-12% moneyness band the study works in
    quad = QuadratureConfig()
    strikes = np.linspace(1760.0, 2240.0, 17)
    prices = np.array([
        price_spx(SpxOptionSpec(2000.0, k, 0.25), state_high_y, params,
                  quad).total
        for k in strikes
    ])
    tol = quad.abs_tol * strikes.max()
    assert np.all(np.diff(prices) <= tol)
    assert np.all(np.diff(prices, 2) >= -tol)


def test_short_maturity_warning(params, state_high_y):
    d = price_spx(SpxOptionSpec(2000.0, 2000.0, 0.5 / 365), state_high_y,
                  params)
    assert d.short_maturity_warning
    d2 = price_spx(SpxOptionSpec(2000.0, 2000.0, 0.1), state_high_y, params)
    assert not d2.short_maturity_warning


class _Captured(Exception):
    pass


def _contour_integrand(monkeypatch, price):
    """The integrand a contour pass hands to the quadrature."""
    seen = []

    def capture(f, *args, **kwargs):
        seen.append(f)
        raise _Captured

    monkeypatch.setattr(mssv.spx, "integrate_with_tail_doubling", capture)
    with pytest.raises(_Captured):
        price()
    return seen[0]


@pytest.mark.parametrize("tau", (1 / 365, 30 / 365, 0.25, 2.0))
@pytest.mark.parametrize("rho, sigma", ((-1.0, 0.347), (0.0, 0.347),
                                        (-1.0, 1.2), (0.0, 2.5)))
def test_contour_integrand_is_conjugate_symmetric(monkeypatch, state_high_y,
                                                  rho, sigma, tau):
    # the transform is conjugate symmetric, so the real rows the pass
    # integrates are even, f(-u) = f(u) exactly, for the leading and
    # correction rows alike: the pass integrates 2 f over [0, inf) in
    # place of f over the real line
    params = ModelParams(**{**FITTED, "rho": rho, "sigma": sigma})
    strikes = [1500.0, 2000.0, 2500.0]
    u = np.concatenate([np.linspace(0.0, 200.0, 401),
                        np.geomspace(200.0, 12_800.0, 61)])
    passes = [lambda: price_spx_strike_batch(2000.0, strikes, tau,
                                             state_high_y, params),
              lambda: price_heston_call_batch(
                  2000.0, strikes, tau, 0.02, 3.43, 0.04, sigma, rho, 0.04)]
    for price, rows in zip(passes, (2 * len(strikes), len(strikes))):
        f = _contour_integrand(monkeypatch, price)
        right, left = f(u), f(-u)
        assert right.shape == (rows, len(u))
        assert right.dtype == np.float64
        assert np.array_equal(left, right)


def test_wide_contour_passes_use_no_more_nodes_than_before(monkeypatch,
                                                          params,
                                                          state_high_y):
    # the benchmark's 301-strike SPX grids: the complex contour's node
    # counts (two-factor and benchmark at 0.25 and 0.5 years) bound the
    # real one's
    strikes = list(np.linspace(1700.0, 2200.0, 301))
    nodes, integrate = [], mssv.quadrature.integrate

    def counted(*args, **kwargs):
        out = integrate(*args, **kwargs)
        nodes[-1] += out[2]
        return out

    monkeypatch.setattr(mssv.quadrature, "integrate", counted)
    before = {(0.25, "msv"): 360, (0.5, "msv"): 360,
              (0.25, "heston"): 480, (0.5, "heston"): 420}
    for (tau, model), bound in before.items():
        nodes.append(0)
        if model == "msv":
            price_spx_strike_batch(2000.0, strikes, tau, state_high_y, params)
        else:
            price_heston_call_batch(2000.0, strikes, tau, 0.02, 3.43, 0.04,
                                    0.424, -1.0, 0.04)
        assert 0 < nodes[-1] <= bound, (tau, model)


@pytest.mark.parametrize("strikes", ([math.nan, 2000.0], [2000.0, math.nan],
                                     [2000.0, math.inf]))
def test_non_finite_inputs_fail_before_quadrature(monkeypatch, params,
                                                  state_high_y, strikes):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on a non-finite input")

    monkeypatch.setattr(mssv.spx, "integrate_with_tail_doubling",
                        no_quadrature)
    two_factor = lambda x, ks, tau: price_spx_strike_batch(
        x, ks, tau, state_high_y, params)
    benchmark = lambda x, ks, tau: price_heston_call_batch(
        x, ks, tau, 0.02, 3.43, 0.04, 0.424, -1.0, 0.04)
    for price in (two_factor, benchmark):
        with pytest.raises(DomainError):
            price(2000.0, strikes, 0.1)
        with pytest.raises(DomainError):
            price(math.nan, [2000.0], 0.1)
        with pytest.raises(DomainError):
            price(2000.0, [2000.0], math.inf)
    # the benchmark takes its parameters and v0 as plain numbers
    base = dict(r=0.02, kappa=3.43, theta=0.04, sigma=0.424, rho=-1.0,
                v0=0.04)
    bad = [{key: value} for key in base for value in (math.nan, math.inf)] \
        + [{key: value} for key in ("kappa", "theta", "sigma")
           for value in (0.0, -1.0)] + [{"v0": -0.01}]
    for change in bad:
        with pytest.raises(DomainError):
            price_heston_call_batch(2000.0, [2000.0], 0.1,
                                    **{**base, **change})


def test_empty_grid_is_checked_then_priced_empty(params, state_high_y):
    two_factor = lambda x, tau: price_spx_strike_batch(
        x, [], tau, state_high_y, params)
    benchmark = lambda x, tau: price_heston_call_batch(
        x, [], tau, 0.02, 3.43, 0.04, 0.424, -1.0, 0.04)
    for price in (two_factor, benchmark):
        assert price(2000.0, 0.1) == []
        for x, tau in ((2000.0, -1.0), (2000.0, math.nan), (-1.0, 0.1)):
            with pytest.raises(DomainError):
                price(x, tau)


def test_spec_validation():
    with pytest.raises(ValueError):
        SpxOptionSpec(x=-1.0, strike=100.0, tau=0.1)
    with pytest.raises(ValueError):
        SpxOptionSpec(x=100.0, strike=100.0, tau=0.0)
