"""Model-core tests: weights, VIX algebra, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mssv import (DomainError, HiddenState, InfeasibleStateError, ModelParams,
                  QuadratureConfig, TAU0, heston_star_weights, vix_from_state,
                  vix_limit_from_z, vix_weights)
from mssv.calibration import _pinned

from .oracles import feller_ok, vix_from_z_heston

# frozen by direct 30-digit evaluation of the weight formulas
A1_REF = 0.11677765562718464
A2_REF = 1.6425087357088212
A2_STAR_REF = 1.732609818223518
Z_GIVEN_Y_REF = 0.019611717354111241
VIX_PAIR1 = 19.912873322645110
VIX_PAIR2 = 19.920458661570014


def test_weights_direct_values():
    w = vix_weights(3.58, 0.0096)
    assert w.a1 == pytest.approx(A1_REF, rel=1e-14)
    assert w.a2 == pytest.approx(A2_REF, rel=1e-14)
    assert w.a2_star == pytest.approx(A2_STAR_REF, rel=1e-14)


def test_weights_against_numerical_integration():
    # independent route: integrate the factor-expectation kernels directly
    from scipy.integrate import quad
    kappa, eps = 3.58, 0.0096
    c = 1.0 / (1.0 - kappa * eps)
    a1 = quad(lambda s: math.exp(-s / eps), 0, TAU0)[0] / TAU0
    a2 = quad(lambda s: math.exp(-kappa * s)
              + c * (math.exp(-kappa * s) - math.exp(-s / eps)),
              0, TAU0)[0] / TAU0
    w = vix_weights(kappa, eps)
    assert w.a1 == pytest.approx(a1, rel=1e-10)
    assert w.a2 == pytest.approx(a2, rel=1e-10)


@given(kappa=st.floats(0.05, 19.0), epsilon=st.floats(1e-4, 0.05))
@settings(max_examples=200, deadline=None)
def test_weight_complements(kappa, epsilon):
    if kappa * epsilon >= 1.0:
        return
    w = vix_weights(kappa, epsilon)
    assert w.a1 + w.a3 == pytest.approx(1.0, abs=1e-15)
    assert w.a2 + w.a4 == pytest.approx(1.0, abs=1e-15)
    assert w.a2_star + w.a4_star == pytest.approx(1.0, abs=1e-15)
    assert 0.0 < w.a1 < 1.0
    for v in (w.a1, w.a2, w.a3, w.a4):
        assert math.isfinite(v)


def test_b_weights_complement():
    b2, b4 = heston_star_weights(3.43)
    assert b2 + b4 == pytest.approx(1.0, abs=1e-15)


def test_limit_weights_are_closed_form_and_limits():
    # a2 approaches a2_star monotonically through an epsilon sequence
    kappa = 3.58
    a2s = vix_weights(kappa, 1e-2).a2_star
    gaps = [abs(vix_weights(kappa, e).a2 - a2s) for e in (1e-2, 1e-3, 1e-4)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_weights_degenerate_timescales():
    with pytest.raises(DomainError):
        vix_weights(20.0, 0.05)  # kappa*eps = 1
    with pytest.raises(DomainError):
        vix_weights(-1.0, 0.01)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_weights_reject_a_non_finite_input(bad):
    for weights in (lambda: vix_weights(bad, 0.01),
                    lambda: vix_weights(3.0, bad),
                    lambda: heston_star_weights(bad)):
        with pytest.raises(DomainError, match="finite"):
            weights()


def test_vix_from_state_fitted_pairs(params, state_high_y, state_low_y):
    # the study reports these states as producing a VIX of 20; with the
    # published rounded parameters the exact relation gives ~19.91-19.92
    assert vix_from_state(state_high_y, params) == pytest.approx(VIX_PAIR1, rel=1e-12)
    assert vix_from_state(state_low_y, params) == pytest.approx(VIX_PAIR2, rel=1e-12)


def test_vix_stationary_point(params):
    th = params.theta
    st_ = HiddenState(y=th, z=th)
    assert vix_from_state(st_, params) == pytest.approx(100 * math.sqrt(2 * th),
                                                        rel=1e-14)


def test_vix_monotone_in_state(params):
    grid = np.linspace(0.005, 0.08, 12)
    for z in (0.01, 0.03):
        vals = [vix_from_state(HiddenState(y=y, z=z), params) for y in grid]
        assert np.all(np.diff(vals) > 0)
    for y in (0.01, 0.03):
        vals = [vix_from_state(HiddenState(y=y, z=z), params) for z in grid]
        assert np.all(np.diff(vals) > 0)


# the VIX relation solved for one state coordinate by calibration's
# pinning helper: (vix/100)^2 = weight v + floor_weight theta
def y_max_for_vix(vix, params):
    w = vix_weights(params.kappa, params.epsilon)
    return _pinned(vix, w.a1, w.a3 + w.a4, params.theta)


def z_from_vix_given_y(vix, y, params):
    # a1 y joins the state-free part of the floor
    w = vix_weights(params.kappa, params.epsilon)
    return _pinned(vix, w.a2, 1.0, w.a1 * y + (w.a3 + w.a4) * params.theta)


def z_from_vix_heston(vix, kappa, theta):
    return _pinned(vix, *heston_star_weights(kappa), theta)


def test_z_from_vix_given_y_reference(params):
    z = z_from_vix_given_y(20.0, 0.0234, params)
    assert z == pytest.approx(Z_GIVEN_Y_REF, rel=1e-12)
    # the study's rounded state pair sits close to the exact inversion
    assert z == pytest.approx(0.0194, abs=3e-4)


def test_z_from_vix_stationary_identity(params):
    th = params.theta
    vix = 100 * math.sqrt(2 * th)
    assert z_from_vix_given_y(vix, th, params) == pytest.approx(th, rel=1e-12)


@given(vix=st.floats(12.0, 45.0), yfrac=st.floats(0.0, 0.95))
@settings(max_examples=200, deadline=None)
def test_z_inversion_round_trip(vix, yfrac):
    params = ModelParams(**{
        "kappa": 3.58, "theta": 0.021, "sigma": 0.347, "rho": -1.0,
        "epsilon": 0.0096, "w3_eps": 0.015})
    y = yfrac * y_max_for_vix(vix, params)
    z = z_from_vix_given_y(vix, y, params)
    back = vix_from_state(HiddenState(y=y, z=z), params)
    assert back == pytest.approx(vix, rel=1e-12)


def test_z_inversion_infeasible(params):
    ymax = y_max_for_vix(15.0, params)
    with pytest.raises(InfeasibleStateError):
        z_from_vix_given_y(15.0, ymax * 1.01, params)


def test_heston_z_inversion():
    # (vix/100)^2 = theta makes z = theta for any kappa
    assert z_from_vix_heston(20.0, 3.43, 0.04) == pytest.approx(0.04, rel=1e-12)
    assert z_from_vix_heston(100 * math.sqrt(0.04), 1.7, 0.04) == \
        pytest.approx(0.04, rel=1e-12)


@given(vix=st.floats(12.0, 50.0), kappa=st.floats(0.2, 15.0))
@settings(max_examples=100, deadline=None)
def test_heston_z_round_trip(vix, kappa):
    try:
        z = z_from_vix_heston(vix, kappa, 0.04)
    except InfeasibleStateError:
        return
    assert vix_from_z_heston(z, kappa, 0.04) == pytest.approx(vix, rel=1e-12)


def test_heston_z_infeasible():
    # far below the theta floor
    with pytest.raises(InfeasibleStateError):
        z_from_vix_heston(3.0, 3.43, 0.04)


def test_delta_vix_sq_consistency():
    """The first-order expansion of VIX^2 - (limit VIX)^2 has an O(eps^2)
    defect with a stable constant."""
    kappa, theta = 3.58, 0.021
    y, z = 0.03, 0.028
    consts = []
    for eps in (1e-2, 1e-3):
        params = ModelParams(kappa=kappa, theta=theta, sigma=0.347, rho=-1.0,
                             epsilon=eps, w3_eps=0.0)
        vix2 = (vix_from_state(HiddenState(y=y, z=z), params) / 100.0) ** 2
        lim2 = (vix_limit_from_z(z, params) / 100.0) ** 2
        first_order = (eps / TAU0) * (
            (1 - math.exp(-TAU0 / eps)) * (y - z)
            + (1 - math.exp(-kappa * TAU0)) * (z - theta))
        defect = abs(vix2 - lim2 - first_order)
        consts.append(defect / eps**2)
    assert 0.3 < consts[0] / consts[1] < 3.0


def test_param_validation():
    base = dict(kappa=3.58, theta=0.021, sigma=0.347, rho=-1.0,
                epsilon=0.0096, w3_eps=0.015)
    ModelParams(**base)
    for bad in (dict(base, kappa=-1.0), dict(base, theta=0.0),
                dict(base, rho=0.5), dict(base, rho=-1.5),
                dict(base, epsilon=0.5)):  # kappa*eps > 1
        with pytest.raises(ValueError):
            ModelParams(**bad)
    with pytest.raises(ValueError):
        HiddenState(y=-0.01, z=0.02)
    for bad in (dict(abs_tol=math.nan), dict(abs_tol=math.inf),
                dict(rel_tol=math.nan), dict(rel_tol=math.inf),
                dict(abs_tol=0.0), dict(rel_tol=-1e-8)):
        with pytest.raises(ValueError):
            QuadratureConfig(**bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_params_and_states_name_the_field(value):
    base = dict(kappa=3.58, theta=0.021, sigma=0.347, rho=-1.0,
                epsilon=0.0096, w3_eps=0.015, r=0.02)
    for name in base:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ModelParams(**dict(base, **{name: value}))
    for name in ("y", "z"):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            HiddenState(**dict(dict(y=0.02, z=0.02), **{name: value}))


def test_feller_recorded_not_enforced():
    p = ModelParams(kappa=0.5, theta=0.01, sigma=1.0, rho=-0.5,
                    epsilon=0.01, w3_eps=0.0)
    assert not feller_ok(p)  # constructs fine regardless
