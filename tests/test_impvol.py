"""Implied-vol inversion tests: round trips, boundaries, closed forms."""

import math

import pytest
from scipy.stats import norm

import mssv.impvol
from mssv import (NoRootError, PriceDecomposition, Quote, bs_call_price,
                  bs_implied_vol, vix_normal_implied_vol, vix_normal_price)
from mssv.cli import _vols


def test_normal_price_degenerate_vol():
    assert vix_normal_price(20.0, 18.0, 0.1, 0.0) == 2.0
    assert vix_normal_price(20.0, 22.0, 0.1, 0.0) == 0.0


def test_normal_price_atm_closed_form():
    tau, sigma = 30 / 365, 4.0
    assert vix_normal_price(20.0, 20.0, tau, sigma) == pytest.approx(
        sigma * math.sqrt(tau) / math.sqrt(2 * math.pi), rel=1e-14)


def test_normal_price_against_scipy_evaluation():
    # same formula through an independent normal cdf/pdf implementation
    v, k, tau, sig = 20.0, 18.0, 30 / 365, 6.0
    d = (v - k) / (sig * math.sqrt(tau))
    ref = (v - k) * norm.cdf(d) + sig * math.sqrt(tau) * norm.pdf(d)
    assert vix_normal_price(v, k, tau, sig) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("sigma", [1.0, 5.0, 10.0])
@pytest.mark.parametrize("moneyness", [-1.0, 0.0, 1.5])
def test_normal_round_trip(sigma, moneyness):
    # strikes scaled by sigma*sqrt(tau): far outside that band the price
    # collapses onto intrinsic and no vol is identifiable
    tau = 30 / 365
    strike = 20.0 + moneyness * sigma * math.sqrt(tau)
    price = vix_normal_price(20.0, strike, tau, sigma)
    back = vix_normal_implied_vol(price, 20.0, strike, tau)
    assert back == pytest.approx(sigma, abs=1e-8)


def test_normal_no_root_at_intrinsic():
    with pytest.raises(NoRootError):
        vix_normal_implied_vol(2.0, 20.0, 18.0, 0.1)  # price == intrinsic
    with pytest.raises(NoRootError):
        vix_normal_implied_vol(float("inf"), 20.0, 18.0, 0.1)


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.5])
@pytest.mark.parametrize("strike", [1700.0, 2000.0, 2400.0])
def test_bs_round_trip(sigma, strike):
    price = bs_call_price(2000.0, strike, 0.5, 0.02, sigma)
    back = bs_implied_vol(price, 2000.0, strike, 0.5, 0.02)
    assert back == pytest.approx(sigma, abs=1e-8)


def test_bs_no_root_outside_band():
    intrinsic = 2000.0 - 1800.0 * math.exp(-0.02 * 0.5)
    with pytest.raises(NoRootError):
        bs_implied_vol(intrinsic, 2000.0, 1800.0, 0.5, 0.02)
    with pytest.raises(NoRootError):
        bs_implied_vol(2000.1, 2000.0, 1800.0, 0.5, 0.02)


def test_bs_atm_one_year_reference():
    # forward-pricer check: price(sigma = 0.2) = 0.0796557 x at r = 0
    x = 1000.0
    price = bs_call_price(x, x, 1.0, 0.0, 0.2)
    assert price == pytest.approx(x * (2 * norm.cdf(0.1) - 1), rel=1e-13)
    iv = bs_implied_vol(0.07966 * x, x, x, 1.0, 0.0)
    assert iv == pytest.approx(0.20, abs=1e-4)


def test_prices_reject_a_non_finite_vol_or_no_time_left():
    with pytest.raises(ValueError, match="tau must be positive"):
        bs_call_price(2000.0, 2000.0, 0.0, 0.02, 0.2)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            bs_call_price(2000.0, 2000.0, 0.25, 0.02, bad)
        with pytest.raises(ValueError, match="sigma_n must be finite"):
            vix_normal_price(20.0, 20.0, 0.1, bad)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_prices_and_inversions_reject_a_non_finite_input(bad):
    # a nan maturity, rate, spot, level or strike is an input error, not a
    # failed inversion
    bs = {"x": 2000.0, "strike": 2100.0, "tau": 0.25, "r": 0.02}
    vix = {"vix_level": 20.0, "strike": 21.0, "tau": 0.1}
    for name in bs:
        args = {**bs, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            bs_call_price(**args, sigma=0.2)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            bs_implied_vol(50.0, **args)
    for name in vix:
        args = {**vix, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            vix_normal_price(**args, sigma_n=4.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            vix_normal_implied_vol(1.0, **args)


def test_invert_point_flags_failures():
    # the surface's inversion writes nan where a point has no root
    grid = [Quote(20.0, 0.1, True, math.nan), Quote(18.0, 0.1, True, math.nan)]
    prices = [PriceDecomposition(2.5, 0.0),
              PriceDecomposition(1.0, 0.0)]  # below intrinsic
    (good,), (bad,) = _vols(lambda p, k, tau: vix_normal_implied_vol(
        p, 20.0, k, tau), grid, prices, 2)
    assert good > 0
    assert math.isnan(bad)


def test_residual_tolerance():
    tau = 0.25
    for price in (0.5, 2.0, 5.0):
        vol = vix_normal_implied_vol(price, 20.0, 21.0, tau)
        resid = vix_normal_price(20.0, 21.0, tau, vol) - price
        assert abs(resid) < 1e-10 * (1 + price)


def test_inversion_failures_are_no_root_errors(monkeypatch):
    # a nan price inside the bracket (here from a pricer that returns nan
    # at every vol above 0), and a root not reached within the iteration
    # cap, raise NoRootError, never the root finder's own ValueError or
    # RuntimeError
    real = mssv.impvol.vix_normal_price
    with monkeypatch.context() as patch:
        patch.setattr(mssv.impvol, "vix_normal_price",
                      lambda *args: math.nan if args[-1] else real(*args))
        with pytest.raises(NoRootError, match="NaN"):
            vix_normal_implied_vol(1.0, 20.0, 20.0, 0.1)
    monkeypatch.setattr(mssv.impvol, "_MAX_ITER", 2)
    price = bs_call_price(2000.0, 2100.0, 0.5, 0.02, 0.2)
    with pytest.raises(NoRootError, match="converge"):
        bs_implied_vol(price, 2000.0, 2100.0, 0.5, 0.02)
    with pytest.raises(NoRootError, match="converge"):
        vix_normal_implied_vol(1.0, 20.0, 20.5, 0.1)
