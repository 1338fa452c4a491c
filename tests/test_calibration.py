"""Calibration mechanics on small fixtures: the objective, the inner
state fit, constraint preservation, determinism, step decoupling.
(Full parameter-recovery round trips run in the acceptance suite.)"""

import numpy as np
import pytest

from mssv import (CalibrationConfig, DateSlice, HiddenState, ModelParams,
                  Quote, QuadratureConfig, calibrate_heston, calibrate_msv,
                  inner_state_fit, price_vix_strike_batch, vix_from_state,
                  weighted_sse, y_max_for_vix)
from mssv.calibration import _Box, _nelder_mead
from mssv.exceptions import MssvError

QUAD = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
FAST = CalibrationConfig(max_iter=60, restarts=1, seed=0)


def test_weighted_sse_examples():
    assert weighted_sse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert weighted_sse([1.1], [1.0]) == pytest.approx(1.0 / 121.0, rel=1e-14)
    # the price floor breaks scale invariance
    m, p = [1.1, 2.3], [1.0, 2.0]
    assert weighted_sse([2 * v for v in m], [2 * v for v in p]) != \
        pytest.approx(weighted_sse(m, p), rel=1e-6)
    with pytest.raises(ValueError):
        weighted_sse([1.0], [1.0, 2.0])


def _vix_slice(params, state, date="2016-01-05", taus=(30 / 365, 60 / 365)):
    vix = vix_from_state(state, params)
    quotes = []
    for tau in taus:
        strikes = [round(vix * m) for m in (0.9, 1.05, 1.2)]
        decomps = price_vix_strike_batch(strikes, tau, state, params, QUAD)
        quotes += [Quote(k, tau, True, d.total)
                   for k, d in zip(strikes, decomps)]
    return DateSlice(date=date, spx_level=2000.0, vix_level=vix,
                     vix_quotes=tuple(quotes))


def test_inner_state_fit_round_trip(params):
    truth = HiddenState(y=0.0234, z=0.0194)
    sl = _vix_slice(params, truth)
    state, obj = inner_state_fit(sl, params.kappa, params.theta, params.sigma,
                                 params.epsilon, params.r, QUAD)
    assert state.y == pytest.approx(truth.y, abs=1e-3)
    assert state.z == pytest.approx(truth.z, abs=1e-3)
    assert obj < 1e-8
    # constraint preserved exactly
    assert vix_from_state(state, params) == pytest.approx(sl.vix_level,
                                                          rel=1e-10)


def test_inner_state_fit_boundary_is_evaluable(params):
    truth = HiddenState(y=0.0234, z=0.0194)
    sl = _vix_slice(params, truth)
    ymax = y_max_for_vix(sl.vix_level, params)
    # objective is finite on the whole feasible interval including ymax
    state, obj = inner_state_fit(sl, params.kappa, params.theta, params.sigma,
                                 params.epsilon, params.r, QUAD)
    assert 0.0 <= state.y <= ymax
    assert np.isfinite(obj)


def test_inner_state_fit_single_quote_returns_a_minimizer(params):
    truth = HiddenState(y=0.02, z=0.021)
    vix = vix_from_state(truth, params)
    d = price_vix_strike_batch([20.0], 30 / 365, truth, params, QUAD)[0]
    sl = DateSlice(date="2016-01-05", spx_level=None, vix_level=vix,
                   vix_quotes=(Quote(20.0, 30 / 365, True, d.total),))
    state, obj = inner_state_fit(sl, params.kappa, params.theta, params.sigma,
                                 params.epsilon, params.r, QUAD)
    assert obj < 1e-7  # some minimizer; uniqueness not guaranteed


def test_inner_state_fit_requires_vix_data(params):
    empty = DateSlice(date="2016-01-05", spx_level=2000.0, vix_level=None)
    with pytest.raises(MssvError):
        inner_state_fit(empty, params.kappa, params.theta, params.sigma,
                        params.epsilon, params.r, QUAD)


def _tiny_dataset(params):
    slices = []
    for i, (y, z) in enumerate([(0.0234, 0.0194), (0.0110, 0.0203),
                                (0.0300, 0.0260)]):
        state = HiddenState(y=y, z=z)
        sl = _vix_slice(params, state, date=f"2016-01-{5 + i:02d}",
                        taus=(30 / 365,))
        slices.append(sl)
    return slices


def test_calibrate_heston_runs_and_snaps_bounds(params):
    slices = _tiny_dataset(params)
    res = calibrate_heston(slices, FAST, QUAD, r=params.r)
    assert res.model == "heston"
    assert set(res.params) == {"kappa", "theta", "sigma", "rho", "r"}
    assert -1.0 <= res.params["rho"] <= 0.0
    assert len(res.states) == 3
    # trace records the running best, which is non-increasing
    objs = [t["objective"] for t in res.trace if t["step"] == "step1"]
    assert all(a >= b for a, b in zip(objs, objs[1:]))


def test_calibrate_msv_mechanics(params):
    slices = _tiny_dataset(params)
    res = calibrate_msv(slices, FAST, QUAD, r=params.r)
    fitted = ModelParams(kappa=res.params["kappa"], theta=res.params["theta"],
                         sigma=res.params["sigma"], rho=res.params["rho"],
                         epsilon=res.params["epsilon"],
                         w3_eps=res.params["w3_eps"], r=res.params["r"])
    # time-scale separation honored
    assert fitted.kappa * fitted.epsilon < 1.0
    # every accepted state reproduces its date's VIX close exactly
    by_date = {sl.date: sl for sl in slices}
    for entry in res.states:
        state = HiddenState(y=entry["y"], z=entry["z"])
        vix = vix_from_state(state, fitted)
        assert vix == pytest.approx(by_date[entry["date"]].vix_level,
                                    rel=1e-10)
    # step 2 never touches step-1 output: states recompute bit-identically
    for entry in res.states:
        st, _ = inner_state_fit(by_date[entry["date"]], fitted.kappa,
                                fitted.theta, fitted.sigma, fitted.epsilon,
                                fitted.r, QUAD, FAST.weight_floor,
                                FAST.inner_xtol)
        assert st.y == entry["y"] and st.z == entry["z"]


def test_calibration_determinism(params):
    slices = _tiny_dataset(params)
    a = calibrate_heston(slices, FAST, QUAD, r=params.r)
    b = calibrate_heston(slices, FAST, QUAD, r=params.r)
    assert a.params == b.params
    assert a.step_objectives == b.step_objectives


def test_infeasible_dates_are_skipped_not_fatal(params):
    slices = _tiny_dataset(params)
    # a date whose VIX sits below the state-free floor of any candidate
    bad = DateSlice(date="2016-02-01", spx_level=2000.0, vix_level=4.0,
                    vix_quotes=(Quote(5.0, 30 / 365, True, 0.8),))
    res = calibrate_heston(slices + [bad], FAST, QUAD, r=params.r)
    assert res.n_skipped_dates >= 1
    assert len(res.states) == 3


def test_no_usable_dates_raises(params):
    empty = DateSlice(date="2016-01-05", spx_level=2000.0, vix_level=None)
    with pytest.raises(MssvError):
        calibrate_msv([empty], FAST, QUAD)


def test_trace_numbers_evaluations_within_each_step():
    calls = []

    def logged(x):
        calls.append(float((x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2))
        return calls[-1]

    cfg = CalibrationConfig(max_iter=40, restarts=2, seed=3)
    trace = []
    _nelder_mead(lambda x: 1.0, [0.0, 0.0], _Box([(-1, 1), (-1, 1)]), cfg,
                 trace, "step1")
    _nelder_mead(logged, [0.5, 0.5], _Box([(-1, 1), (-1, 1)]), cfg, trace,
                 "step2")
    step2 = [t for t in trace if t["step"] == "step2"]
    assert len(step2) > 3
    for entry in step2:
        assert calls[entry["eval"]] == entry["objective"]


def test_config_validation():
    with pytest.raises(ValueError):
        CalibrationConfig(weight_floor=0.0)
    with pytest.raises(ValueError):
        CalibrationConfig(bounds={"kappa": (2.0, 1.0)})
