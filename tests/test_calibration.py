"""Calibration mechanics on small fixtures: the objective, the inner
state fit, constraint preservation, determinism, step decoupling.
(Full parameter-recovery round trips run in the acceptance suite.)"""

import contextlib
import json
import multiprocessing
import os
import signal

import numpy as np
import pytest

import mssv.calibration as calibration
import mssv.vix
from mssv import (CalibrationConfig, DateSlice, HiddenState, ModelParams,
                  Quote, QuadratureConfig, calibrate_heston, calibrate_msv,
                  inner_state_fit, make_synthetic_quotes,
                  price_vix_strike_batch, to_date_slices, vix_from_state,
                  weighted_sse, y_max_for_vix)
from mssv.calibration import (_Box, _DateMap, _msv_step1_objective,
                              _nelder_mead, _sum_over_dates)
from mssv.exceptions import DomainError, MssvError

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


def test_inner_fit_prices_every_candidate_on_the_fixed_rule(monkeypatch,
                                                            params):
    slices = _tiny_dataset(params)
    passes = []
    real = mssv.vix._density_pass
    monkeypatch.setattr(mssv.vix, "_density_pass",
                        lambda *a, **k: passes.append(1) or real(*a, **k))
    for sl in slices:
        state, obj = inner_state_fit(sl, params.kappa, params.theta,
                                     params.sigma, params.epsilon, params.r,
                                     QUAD)
        assert obj < 1e-8
    assert passes == []  # no candidate fell back to the adaptive pass


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
                                fitted.r, QUAD, calibration._WEIGHT_FLOOR,
                                calibration._INNER_XTOL)
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
    assert res.skipped_dates == [{"date": "2016-02-01",
                                  "error": "InfeasibleStateError"}]
    assert res.n_skipped_dates == len(res.skipped_dates)


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


def test_restart_outcomes_are_recorded(monkeypatch, params):
    evals = {"step1": 0, "step2": 0}

    def counted(factory, step):
        def build(*args):
            fun = factory(*args)

            def objective(x):
                evals[step] += 1
                return fun(x)
            return objective
        return build

    for step in evals:
        name = f"_heston_{step}_objective"
        monkeypatch.setattr(calibration, name,
                            counted(getattr(calibration, name), step))
    cfg = CalibrationConfig(max_iter=30, restarts=2, seed=0)
    res = calibrate_heston(_tiny_dataset(params), cfg, QUAD, r=params.r)
    assert [(e["step"], e["restart"]) for e in res.restarts] == [
        ("step1", 0), ("step1", 1), ("step2", 0), ("step2", 1)]
    for step, n in evals.items():
        # the optimizer's evaluations, plus one at the snapped minimizer
        assert sum(e["nfev"] for e in res.restarts
                   if e["step"] == step) == n - 1
    for e in res.restarts:
        assert isinstance(e["success"], bool) and e["nit"] > 0 and e["message"]
    json.dumps(res.as_dict())


# ---------------------------------------------------------------------------
# per-date terms on forked workers
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the test if the block outlasts seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _five_date_panel(params):
    rng = np.random.default_rng(5)
    states = [(f"2016-03-{7 + i:02d}",
               HiddenState(y=params.theta * float(np.exp(0.4 * a)),
                           z=params.theta * float(np.exp(0.4 * b))))
              for i, (a, b) in enumerate(rng.standard_normal((5, 2)))]
    quotes = make_synthetic_quotes(params, states, vix_taus=(30 / 365,),
                                   spx_taus=(0.1,),
                                   spx_moneyness=(0.95, 1.0, 1.05),
                                   vix_moneyness=(0.9, 1.1, 1.3), quad=QUAD)
    return to_date_slices(quotes)


def test_fits_do_not_depend_on_the_core_count(monkeypatch, params):
    slices = _five_date_panel(params)
    points = [(3.0, 0.03, 0.4, 0.02), (3.58, 0.021, 0.347, 0.0096),
              (8.0, 0.05, 1.2, 0.09)]
    cfg = CalibrationConfig(max_iter=12, restarts=1, seed=4)
    values, fits = {}, {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(calibration, "usable_cores", lambda: cores)
        maps = []

        def date_map(dates, fn):
            maps.append(_DateMap(dates, fn))
            return maps[-1]

        fun = _msv_step1_objective(slices, params.r, 0.1, QUAD, 1e-6,
                                   date_map)
        try:
            assert len(maps[0].workers) == cores - 1
            values[cores] = [fun(x) for x in points]
        finally:
            maps[0].close()
        fits[cores] = calibrate_msv(slices, cfg, QUAD, r=params.r).as_dict()
        assert multiprocessing.active_children() == []
    assert values[1] == values[2] == values[3]
    assert fits[1] == fits[2] == fits[3]
    assert len(fits[1]["states"]) == 5 and fits[1]["trace"]


def test_failed_dates_are_skipped_alike_on_any_core_count(monkeypatch):
    def term(date, scale):
        if date % 2:
            raise DomainError(f"date {date}")
        return scale * (date + 1.0)

    results = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(calibration, "usable_cores", lambda: cores)
        terms = _DateMap(range(5), term)
        try:
            out = terms(0.1)
            results[cores] = ([type(t) for t in out], _sum_over_dates(out))
        finally:
            terms.close()
    assert results[1] == results[2] == results[3]
    assert results[1][0] == [float, DomainError] * 2 + [float]
    assert results[1][1] == pytest.approx(0.1 + 0.3 + 0.5 + 2 * 10.0 * 0.3)


def test_worker_error_is_raised_in_the_caller(monkeypatch, params):
    monkeypatch.setattr(calibration, "usable_cores", lambda: 2)
    slices = _tiny_dataset(params)
    # with two processes the date at index 1 is the worker's
    bad_level, real = slices[1].vix_level, calibration.z_from_vix_heston

    def broken(vix, kappa, theta):
        if vix == bad_level:
            raise ZeroDivisionError(f"injected in {os.getpid()}")
        return real(vix, kappa, theta)

    monkeypatch.setattr(calibration, "z_from_vix_heston", broken)
    with _deadline(60), pytest.raises(ZeroDivisionError) as err:
        calibrate_heston(slices, FAST, QUAD, r=params.r)
    assert str(err.value) != f"injected in {os.getpid()}"
    assert "broken" in "".join(err.value.__notes__)
    assert multiprocessing.active_children() == []
