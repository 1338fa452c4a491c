"""Calibration mechanics on small fixtures: the residuals and their
Jacobian pattern, the inner state fit, constraint preservation,
determinism, step decoupling.  (Full parameter-recovery round trips run
in the acceptance suite.)"""

import contextlib
import dataclasses
import datetime as dt
import json
import math
import multiprocessing
import os
import signal
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array

import mssv.calibration as calibration
from mssv import (CalibrationConfig, DateSlice, HiddenState, ModelParams,
                  Quote, QuadratureConfig, apply_filters, calibrate_heston,
                  calibrate_msv, load_quotes, make_synthetic_quotes,
                  price_quotes, price_spx_strike_batch,
                  price_vix_strike_batch, to_date_slices, vix_from_state,
                  vix_weights, write_quotes_csv)
from mssv.calibration import (_BOUNDS, _charged, _DateMap,
                              _heston_step1_objective, _jac_over_dates,
                              _least_squares, _msv_line, _msv_step1_objective,
                              _msv_step2_objective, _pinned, _rho_search,
                              inner_state_fit)
from mssv.exceptions import DomainError, MssvError

from .oracles import (dense_pattern_jacobian, difference_jacobian,
                      nelder_mead_min, synthetic_grid, weighted_sse)

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


def y_max_for_vix(vix, params):
    """The largest fast factor the VIX close admits (its z is then 0)."""
    w = vix_weights(params.kappa, params.epsilon)
    return _pinned(vix, w.a1, w.a3 + w.a4, params.theta)


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


def _line_state(sl, params, s):
    """The state at s on the date's VIX-close line under params."""
    _, ymax, z0 = _msv_line(sl, params.kappa, params.theta, params.epsilon)
    return HiddenState(y=s * ymax, z=(1.0 - s) * z0)


def test_inner_state_fit_round_trip(params):
    truth = HiddenState(y=0.0234, z=0.0194)
    sl = _vix_slice(params, truth)
    s, obj = inner_state_fit(sl, params.kappa, params.theta, params.sigma,
                             params.epsilon, params.r, QUAD)
    state = _line_state(sl, params, s)
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
    s, obj = inner_state_fit(sl, params.kappa, params.theta, params.sigma,
                             params.epsilon, params.r, QUAD)
    assert 0.0 <= _line_state(sl, params, s).y <= ymax
    assert np.isfinite(obj)


def test_inner_state_fit_single_quote_returns_a_minimizer(params):
    truth = HiddenState(y=0.02, z=0.021)
    vix = vix_from_state(truth, params)
    d = price_vix_strike_batch([20.0], 30 / 365, truth, params, QUAD)[0]
    sl = DateSlice(date="2016-01-05", spx_level=None, vix_level=vix,
                   vix_quotes=(Quote(20.0, 30 / 365, True, d.total),))
    _, obj = inner_state_fit(sl, params.kappa, params.theta, params.sigma,
                             params.epsilon, params.r, QUAD)
    assert obj < 1e-7  # some minimizer; uniqueness not guaranteed


def test_inner_state_fit_requires_vix_data(params):
    empty = DateSlice(date="2016-01-05", spx_level=2000.0, vix_level=None)
    with pytest.raises(MssvError):
        inner_state_fit(empty, params.kappa, params.theta, params.sigma,
                        params.epsilon, params.r, QUAD)


def _state_panel(params, states, taus=(30 / 365,)):
    """One VIX-only date per state, priced at params."""
    return [_vix_slice(params, st, date=f"2016-01-{5 + i:02d}", taus=taus)
            for i, st in enumerate(states)]


TINY_STATES = [HiddenState(0.0234, 0.0194), HiddenState(0.0110, 0.0203),
               HiddenState(0.0300, 0.0260)]


def _tiny_dataset(params):
    """Three dates of `_state_panel`, each joined by SPX calls at one
    maturity priced at params and the date's state."""
    strikes, tau = (1900.0, 2000.0, 2100.0), 0.1
    return [dataclasses.replace(sl, spx_quotes=tuple(
        Quote(k, tau, True, d.total) for k, d in zip(
            strikes, price_spx_strike_batch(sl.spx_level, strikes, tau, st,
                                            params, QUAD))))
        for sl, st in zip(_state_panel(params, TINY_STATES), TINY_STATES)]


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
    # step 2 never touches step-1 output: the states and parameters
    # reprice the VIX quotes to the step-1 objective
    sse = 0.0
    for entry in res.states:
        sl = by_date[entry["date"]]
        state = HiddenState(y=entry["y"], z=entry["z"])
        sse += weighted_sse(
            [d.total for d in price_quotes(
                sl.vix_quotes, lambda ks, tau: price_vix_strike_batch(
                    ks, tau, state, fitted, QUAD), fitted.r)],
            [q.price for q in sl.vix_quotes])
    assert sse == pytest.approx(res.step_objectives[0], rel=1e-12, abs=1e-30)


def test_calibration_determinism(params):
    slices = _tiny_dataset(params)
    a = calibrate_heston(slices, FAST, QUAD, r=params.r)
    b = calibrate_heston(slices, FAST, QUAD, r=params.r)
    assert a.params == b.params
    assert a.step_objectives == b.step_objectives


def test_infeasible_dates_are_skipped_not_fatal(monkeypatch, params):
    slices = _tiny_dataset(params)
    # a date whose VIX sits below the state-free floor of any candidate:
    # it fails at every start fit and step-1 evaluation, and gets one
    # record, none from step 2
    bad = DateSlice(date="2016-02-01", spx_level=2000.0, vix_level=4.0,
                    vix_quotes=(Quote(5.0, 30 / 365, True, 0.8),))
    for cores in (1, 2):
        monkeypatch.setattr(calibration, "usable_cores", lambda: cores)
        for fit in (calibrate_heston, calibrate_msv):
            res = fit(slices + [bad], FAST, QUAD, r=params.r)
            assert res.n_skipped_dates >= 1
            assert len(res.states) == 3
            assert res.skipped_dates == [{"date": "2016-02-01",
                                          "error": "InfeasibleStateError"}]
            assert res.n_skipped_dates == len(res.skipped_dates)


@pytest.mark.parametrize("cores", [1, 2])
def test_a_date_step2_cannot_price_is_recorded_once(monkeypatch, params,
                                                   cores):
    monkeypatch.setattr(calibration, "usable_cores", lambda: cores)
    clean = _tiny_dataset(params)
    # a zero strike: the loader rejects the row, a slice made in code not
    bad = dataclasses.replace(clean[1], spx_quotes=clean[1].spx_quotes
                              + (Quote(0.0, 0.1, True, 2000.0),))
    res = calibrate_heston([clean[0], bad, clean[2]], FAST, QUAD, r=params.r)
    assert res.skipped_dates == [{"date": bad.date, "error": "DomainError",
                                  "step": "step2"}]
    assert res.n_skipped_dates == 1
    # the date keeps its state; step 1 never reads SPX quotes
    ref = calibrate_heston(clean, FAST, QUAD, r=params.r)
    assert res.states == ref.states
    assert res.step_objectives[0] == ref.step_objectives[0]
    assert ref.skipped_dates == []


@pytest.mark.parametrize("fit", [calibrate_heston, calibrate_msv])
def test_step2_is_skipped_without_spx_quotes(fit, params):
    res = fit(_state_panel(params, TINY_STATES[:2]),
              CalibrationConfig(max_iter=10, restarts=1), QUAD, r=params.r)
    assert not {"rho", "w3_eps"} & set(res.params)
    assert res.step_objectives[1] is None
    assert len(res.states) == 2
    assert res.restarts[-1] == {
        "step": "step2", "restart": 0, "success": False, "nit": 0,
        "nfev": 0,
        "message": "step 2 skipped: no date has SPX quotes and a state"}
    assert [e["step"] for e in res.restarts] == ["step1", "step2"]
    assert all(t["step"] == "step1" for t in res.trace)


def test_no_usable_dates_raises(params):
    empty = DateSlice(date="2016-01-05", spx_level=2000.0, vix_level=None)
    with pytest.raises(MssvError):
        calibrate_msv([empty], FAST, QUAD)


def test_trace_numbers_evaluations_within_each_step():
    calls, at = {"step1": [], "step2": []}, []

    def residuals(x):
        at.append(x)
        calls["step1"].append(np.array([x[0] - 0.3, x[1] + 0.2,
                                        0.1 * x[0] * x[1]]))
        return calls["step1"][-1]

    def jac():  # at the point evaluated last
        x = at[-1]
        return np.array([[1.0, 0.0], [0.0, 1.0], [0.1 * x[1], 0.1 * x[0]]])

    def logged(rho):
        calls["step2"].append((rho + 0.4) ** 2)
        return calls["step2"][-1]

    cfg = CalibrationConfig(max_iter=40, restarts=2, seed=3)
    trace = []
    _least_squares(residuals, [0.5, 0.5], [(-1.0, 1.0)] * 2, jac, cfg, trace)
    _rho_search(logged, cfg, trace, "step2")
    for step, values in calls.items():
        entries = [t for t in trace if t["step"] == step]
        assert len(entries) > 3
        for entry in entries:
            value = values[entry["eval"]]
            assert entry["objective"] == (value @ value if step == "step1"
                                          else value)
        objs = [t["objective"] for t in entries]
        assert objs == sorted(objs, reverse=True)


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
    solves, real = [], calibration.least_squares
    monkeypatch.setattr(calibration, "least_squares",
                        lambda *a, **k: solves.append(real(*a, **k))
                        or solves[-1])
    cfg = CalibrationConfig(max_iter=30, restarts=2, seed=0)
    res = calibrate_heston(_tiny_dataset(params), cfg, QUAD, r=params.r)
    # one least-squares solve per step-1 start; step 2 searches rho once
    assert [(e["step"], e["restart"]) for e in res.restarts] == [
        ("step1", 0), ("step1", 1), ("step2", 0)]
    for step, n in evals.items():
        # every evaluation of the residuals
        assert sum(e["nfev"] for e in res.restarts
                   if e["step"] == step) == n
    for e, sol in zip(res.restarts, solves, strict=False):
        assert e["nit"] == sol.njev > 0 and e["success"] == sol.success
        # the Jacobians are read off the evaluations' own density passes,
        # so a solve evaluates the residuals no more often than it counts
        assert e["message"] == sol.message and e["nfev"] == sol.nfev
    assert len(solves) == 2
    json.dumps(res.as_dict())


def _synthetic_panel(tmp_path, params, n_dates, state_seed, noise=0.0,
                     seed=0):
    """make-synthetic's panel: weekly dates from 2016-01-05, each state's
    y and z theta e^N(0, 1/4) drawn from state_seed, written to its CSV
    (prices to 10 digits) and loaded and filtered as calibrate loads it."""
    rng = np.random.default_rng(state_seed)
    states = [((dt.date(2016, 1, 5) + dt.timedelta(days=7 * i)).isoformat(),
               HiddenState(y=params.theta * math.exp(0.5 * a),
                           z=params.theta * math.exp(0.5 * b)))
              for i, (a, b) in enumerate(rng.standard_normal((n_dates, 2)))]
    path = tmp_path / "quotes.csv"
    write_quotes_csv(path, make_synthetic_quotes(
        params, states, noise=noise, seed=seed, quad=QUAD))
    quotes, rejects = load_quotes(path)
    assert not rejects
    return to_date_slices(apply_filters(quotes)[0])


def test_step1_recovers_the_study_panel(tmp_path, params):
    # make-synthetic's default 2-date panel (state seed 1), as the
    # benchmark's study workload fits it; dogbox takes 7 two-factor and 5
    # benchmark evaluations (TRF took 40 and 8)
    slices = _synthetic_panel(tmp_path, params, 2, state_seed=1)
    cfg = CalibrationConfig(max_iter=200, restarts=1, seed=1)
    res = calibrate_msv(slices, cfg, QUAD, r=params.r)
    assert res.step_objectives[0] <= 1e-15
    for name in ("kappa", "theta", "sigma", "epsilon"):
        assert res.params[name] == pytest.approx(getattr(params, name),
                                                 rel=1e-4), name
    assert res.restarts[0]["success"] and res.restarts[0]["nfev"] <= 10
    bench = calibrate_heston(slices, cfg, QUAD, r=params.r).restarts[0]
    assert bench["success"] and bench["nfev"] <= 6


def test_step1_converges_on_a_noisy_six_date_panel(tmp_path, params):
    # 6 dates at 1% noise (seed and state seed 5): TRF left this solve
    # unconverged at its 200 evaluations; dogbox stops on ftol after 9
    slices = _synthetic_panel(tmp_path, params, 6, state_seed=5, noise=0.01,
                              seed=5)
    res = calibrate_msv(slices, CalibrationConfig(max_iter=200, restarts=1),
                        QUAD, r=params.r)
    assert res.restarts[0]["success"] and res.restarts[0]["nfev"] < 50


def test_step1_returns_a_point_it_evaluated():
    # dogbox evaluates clip(x + step) and then snaps the coordinate its
    # step took to the bound: here it evaluates (0.75, 6.2e-33) and calls
    # (0.75, 0) its solution, so the solve returns the evaluated point
    a, c = np.array([[2.0, 1.0], [0.0, -1.0], [-2.0, -2.0]]), [1.0, 3.0, -2.0]
    seen = []

    def fun(x):
        seen.append(np.copy(x))
        return a @ x - c

    x, sse, outcomes = _least_squares(fun, [0.3, 0.6], [(0.0, 1.0)] * 2,
                                      lambda: a, FAST, [])
    assert outcomes[0]["success"] and x[1] != 0.0
    assert any(np.array_equal(x, point) for point in seen)
    assert sse == float(fun(x) @ fun(x))


def test_step1_is_no_worse_than_nelder_mead_on_a_noisy_panel(monkeypatch,
                                                              params):
    # three dates quoted with 1% noise (one SPX quote each, so step 2 is
    # cheap); Nelder-Mead minimises the same step-1 SSE over the same box
    # (each date's s_i included) from the same start, and converges
    # within its 2000 iterations
    monkeypatch.setattr(calibration, "usable_cores", lambda: 1)
    rng = np.random.default_rng(3)
    states = [(f"2016-03-{7 + i:02d}",
               HiddenState(y=params.theta * float(np.exp(0.4 * a)),
                           z=params.theta * float(np.exp(0.4 * b))))
              for i, (a, b) in enumerate(rng.standard_normal((3, 2)))]
    with synthetic_grid(SPX_TAUS=(0.1,), SPX_MONEYNESS=(1.0,)):
        quotes = make_synthetic_quotes(params, states, noise=0.01, seed=7,
                                       quad=QUAD)
    nm_obj, real = [], calibration._least_squares

    def alongside(fun, x0, bounds, *args):
        nm_obj.append(nelder_mead_min(lambda x: float((r := fun(x)) @ r), x0,
                                      bounds, restarts=1, max_iter=2000))
        return real(fun, x0, bounds, *args)

    monkeypatch.setattr(calibration, "_least_squares", alongside)
    res = calibrate_msv(to_date_slices(quotes),
                        CalibrationConfig(max_iter=200, restarts=1), QUAD,
                        r=params.r)
    assert res.restarts[0]["success"] and nm_obj[0] > 0
    assert res.step_objectives[0] <= nm_obj[0] * (1.0 + 1e-6)


def test_step1_converges_on_the_noisy_vix_only_panel(monkeypatch, params):
    # the noisy panel above quoted on VIX alone (other noise draws), which
    # the finite-difference Jacobian left on its evaluation budget, 9.2e-7
    # relative above Nelder-Mead
    monkeypatch.setattr(calibration, "usable_cores", lambda: 1)
    rng = np.random.default_rng(3)
    states = [(f"2016-03-{7 + i:02d}",
               HiddenState(y=params.theta * float(np.exp(0.4 * a)),
                           z=params.theta * float(np.exp(0.4 * b))))
              for i, (a, b) in enumerate(rng.standard_normal((3, 2)))]
    with synthetic_grid(SPX_TAUS=()):
        quotes = make_synthetic_quotes(params, states, noise=0.01, seed=7,
                                       quad=QUAD)
    nm_obj, real = [], calibration._least_squares

    def alongside(fun, x0, bounds, *args):
        nm_obj.append(nelder_mead_min(lambda x: float((r := fun(x)) @ r), x0,
                                      bounds, restarts=1, max_iter=2000))
        return real(fun, x0, bounds, *args)

    monkeypatch.setattr(calibration, "_least_squares", alongside)
    cfg = CalibrationConfig(max_iter=200, restarts=1)
    res = calibrate_msv(to_date_slices(quotes), cfg, QUAD, r=params.r)
    solve = res.restarts[0]
    assert solve["success"] and solve["nfev"] < cfg.max_iter
    assert 0 < res.step_objectives[0] <= nm_obj[0] * (1.0 + 1e-6)


def test_a_solve_needs_an_evaluation():
    with pytest.raises(ValueError, match="max_iter"):
        CalibrationConfig(max_iter=0)


@pytest.mark.parametrize("restarts", [0, -2])
def test_a_fit_needs_a_start(restarts):
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        CalibrationConfig(restarts=restarts)


def test_a_seed_is_not_negative():
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        CalibrationConfig(seed=-1)


def test_jac_sparsity_matches_the_residual_rows(monkeypatch, params):
    monkeypatch.setattr(calibration, "usable_cores", lambda: 1)
    slices = _state_panel(params, [HiddenState(0.0234, 0.0194),
                                   HiddenState(0.0110, 0.0203)],
                          taus=(30 / 365, 60 / 365))
    slices.append(_state_panel(params, [HiddenState(0.03, 0.026)])[0])
    msv = np.array([params.kappa, params.theta, params.sigma, params.epsilon,
                    0.3, 0.5, 0.7])
    for factory, n_params, x in ((_msv_step1_objective, 4, msv),
                                 (_heston_step1_objective, 3, msv[:3])):
        with _step1(factory, slices, params.r, QUAD, n_params) as (fun, jac):
            base = fun(x)
            built = jac()
            # the entries the Jacobian stores, zero or not
            stored = csr_array((np.ones_like(built.data), built.indices,
                                built.indptr), shape=built.shape).toarray()
            assert base.shape == (6 + 6 + 3,) and stored.shape == (15, len(x))
            # every parameter moves every row; s_i its date's rows alone
            for j in range(len(x)):
                step = x.copy()
                step[j] += 1e-4
                moved = fun(step) != base
                assert np.array_equal(moved, stored[:, j] == 1), j


def test_states_at_both_ends_of_the_vix_line(monkeypatch, params):
    # one date at s = 0 (y = 0) and one at s = 1 (z = 0)
    monkeypatch.setattr(calibration, "usable_cores", lambda: 1)
    probe = _vix_slice(params, HiddenState(0.0234, 0.0194))
    ymax = y_max_for_vix(probe.vix_level, params)
    truth = [HiddenState(0.0, 0.0194), HiddenState(ymax, 0.0),
             HiddenState(0.0110, 0.0203)]
    slices = _state_panel(params, truth, taus=(30 / 365, 60 / 365))
    monkeypatch.setattr(calibration, "_MSV_START", {
        n: getattr(params, n) for n in ("kappa", "theta", "sigma", "epsilon")})
    res = calibrate_msv(slices, CalibrationConfig(max_iter=100, restarts=1),
                        QUAD, r=params.r)
    assert res.step_objectives[0] < 1e-12
    # y enters the VIX prices through the e^{-tau/eps} transient alone, so
    # it is the weaker-identified coordinate: its fraction s of ymax is
    # recovered to 1e-4, z to 1e-7
    for entry, st, sl in zip(res.states, truth, slices):
        ymax = y_max_for_vix(sl.vix_level, params)
        assert entry["y"] / ymax == pytest.approx(st.y / ymax, abs=1e-4)
        assert entry["z"] == pytest.approx(st.z, abs=1e-7)
        assert entry["y"] >= 0.0 and entry["z"] >= 0.0


def test_time_scales_stay_apart_in_the_whole_box(monkeypatch, params):
    # kappa epsilon < 0.999 is a bound: the box's corner satisfies it, and
    # a fit started at that corner stays below it
    assert _BOUNDS["kappa"][1] * _BOUNDS["epsilon"][1] < 0.999
    monkeypatch.setattr(calibration, "_MSV_START", {
        "kappa": 20.0, "theta": 0.03, "sigma": 0.4, "epsilon": 0.0499})
    seen, real = [], calibration._msv_step1_objective

    def watched(*args):
        fun = real(*args)
        return lambda x: seen.append(x[0] * x[3]) or fun(x)

    monkeypatch.setattr(calibration, "_msv_step1_objective", watched)
    res = calibrate_msv(_tiny_dataset(params),
                        CalibrationConfig(max_iter=8, restarts=2, seed=1),
                        QUAD, r=params.r)
    assert seen and max(seen) < 0.999
    assert res.params["kappa"] * res.params["epsilon"] < 0.999


def test_the_starts_lie_in_the_box():
    # step 1 starts from these values as they are, unclipped
    for start in (calibration._HESTON_START, calibration._MSV_START):
        for name, value in start.items():
            lo, hi = _BOUNDS[name]
            assert lo <= value <= hi, name


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


def _five_date_states(params):
    rng = np.random.default_rng(5)
    return [(f"2016-03-{7 + i:02d}",
             HiddenState(y=params.theta * float(np.exp(0.4 * a)),
                         z=params.theta * float(np.exp(0.4 * b))))
            for i, (a, b) in enumerate(rng.standard_normal((5, 2)))]


def _five_date_panel(params):
    with synthetic_grid(VIX_TAUS=(30 / 365,), SPX_TAUS=(0.1,),
                        SPX_MONEYNESS=(0.95, 1.0, 1.05),
                        VIX_MONEYNESS=(0.9, 1.1, 1.3)):
        quotes = make_synthetic_quotes(params, _five_date_states(params),
                                       quad=QUAD)
    return to_date_slices(quotes)


def test_fits_do_not_depend_on_the_core_count(monkeypatch, params):
    slices = _five_date_panel(params)
    points = [(3.0, 0.03, 0.4, 0.02), (3.58, 0.021, 0.347, 0.0096),
              (8.0, 0.05, 1.2, 0.09)]
    states = [(0.0, 0.25, 0.5, 0.75, 1.0), (0.6,) * 5]
    cfg = CalibrationConfig(max_iter=12, restarts=1, seed=4)
    values, fits = {}, {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(calibration, "usable_cores", lambda: cores)
        dates = _DateMap(slices)
        fun = _msv_step1_objective(dates, params.r, QUAD)
        try:
            assert len(dates.workers) == cores - 1
            values[cores] = [fun(np.array(x + s)).tolist()
                             for x in points for s in states]
        finally:
            dates.close()
        fits[cores] = calibrate_msv(slices, cfg, QUAD, r=params.r).as_dict()
        assert multiprocessing.active_children() == []
    assert values[1] == values[2] == values[3]
    assert fits[1] == fits[2] == fits[3]
    assert len(fits[1]["states"]) == 5 and fits[1]["trace"]


def _odd_dates_fail(i, date, scale):
    """A map's term: scale (date + 1), or DomainError for an odd date."""
    if date % 2:
        raise DomainError(f"date {date}")
    return scale * (date + 1.0)


def test_failed_dates_are_skipped_alike_on_any_core_count(monkeypatch):
    results = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(calibration, "usable_cores", lambda: cores)
        terms = _DateMap(range(5))
        try:
            out = terms(_odd_dates_fail, 0.1)
            results[cores] = ([type(t) for t in out], sum(_charged(out)))
        finally:
            terms.close()
    assert results[1] == results[2] == results[3]
    assert results[1][0] == [float, DomainError] * 2 + [float]
    assert results[1][1] == pytest.approx(0.1 + 0.3 + 0.5 + 2 * 10.0 * 0.3)


@pytest.mark.parametrize("fit", [calibrate_heston, calibrate_msv])
def test_one_map_serves_the_whole_fit(monkeypatch, params, fit):
    # the start fits and both steps run on one map's workers
    slices, real = _five_date_panel(params), calibration._DateMap
    cfg = CalibrationConfig(max_iter=12, restarts=1, seed=4)
    for cores in (1, 2, 3):
        monkeypatch.setattr(calibration, "usable_cores", lambda: cores)
        workers = []

        def counted(dates):
            made = real(dates)
            workers.append(len(made.workers))
            return made

        monkeypatch.setattr(calibration, "_DateMap", counted)
        res = fit(slices, cfg, QUAD, r=params.r)
        assert workers == [min(cores, len(slices)) - 1]
        assert multiprocessing.active_children() == []
        assert res.restarts[-1]["step"] == "step2" and "rho" in res.params


def test_worker_error_is_raised_in_the_caller(monkeypatch, params):
    monkeypatch.setattr(calibration, "usable_cores", lambda: 2)
    slices = _tiny_dataset(params)
    # with two processes the date at index 1 is the worker's
    bad_level, real = slices[1].vix_level, calibration._pinned

    def broken(vix, *weights_and_theta):
        if vix == bad_level:
            raise ZeroDivisionError(f"injected in {os.getpid()}")
        return real(vix, *weights_and_theta)

    monkeypatch.setattr(calibration, "_pinned", broken)
    with _deadline(60), pytest.raises(ZeroDivisionError) as err:
        calibrate_heston(slices, FAST, QUAD, r=params.r)
    assert str(err.value) != f"injected in {os.getpid()}"
    assert "broken" in "".join(err.value.__notes__)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# step 2: a bounded search over rho with w3_eps profiled out
# ---------------------------------------------------------------------------

def _step2_dates(params, scale=(1.0, 1.0)):
    """The five-date panel made under params, each date's SPX calls joined
    by puts at the same strikes (priced by parity), paired with its state
    as (y, z) scaled by scale (1 reproduces the quotes' own states)."""
    dates = []
    for sl, (_, st) in zip(_five_date_panel(params),
                           _five_date_states(params)):
        puts = tuple(Quote(q.strike, q.tau, False, q.price - sl.spx_level
                           + q.strike * math.exp(-params.r * q.tau))
                     for q in sl.spx_quotes)
        dates.append((dataclasses.replace(sl, spx_quotes=sl.spx_quotes + puts),
                      {"y": st.y * scale[0], "z": st.z * scale[1]}))
    return dates


def _date_prices(date, params, rho, w3_eps):
    """A date's SPX quote prices, one pass per maturity at (rho, w3_eps)."""
    sl, st = date
    at = dataclasses.replace(params, rho=rho, w3_eps=w3_eps)
    return price_quotes(sl.spx_quotes, lambda ks, tau: price_spx_strike_batch(
        sl.spx_level, ks, tau, HiddenState(**st), at, QUAD), params.r,
        sl.spx_level)


def _direct_sse(dates, params, rho, w3_eps):
    """Step 2's objective as passes priced at (rho, w3_eps) give it."""
    return sum(weighted_sse([d.total for d in _date_prices(date, params, rho,
                                                           w3_eps)],
                            [q.price for q in date[0].spx_quotes])
               for date in dates)


def _profiled(dates, params):
    """The two-factor objective(rho) under params' step-1 values, and the
    dict it sets the profiled w3_eps in; dates are (slice, state) pairs."""
    p = {n: getattr(params, n) for n in ("kappa", "theta", "sigma", "epsilon")}
    profiled = {}
    fun = _msv_step2_objective(_DateMap(sl for sl, _ in dates),
                               [st for _, st in dates], p, params.r, QUAD,
                               profiled=profiled)
    return fun, profiled


def test_one_pass_at_unit_w3_eps_prices_every_w3_eps(params):
    # calls and puts: the parity shift sits in the leading term only.
    # Measured deviation 3e-11 index points; the passes' own absolute
    # tolerance is abs_tol x max strike, about 2e-4
    date = _step2_dates(params)[0]
    assert not all(q.is_call for q in date[0].spx_quotes)
    for rho in (-1.0, -0.4):
        unit = _date_prices(date, params, rho, 1.0)
        for w in (-0.5, 0.015, 0.5):
            direct = _date_prices(date, params, rho, w)
            for d1, dw in zip(unit, direct):
                assert abs(d1.leading + w * d1.correction - dw.total) <= 1e-9


@pytest.mark.parametrize("truth, expected", ((0.015, None), (2.0, 0.5),
                                             (-2.0, -0.5)))
def test_profiled_w3_eps_is_the_constrained_minimiser(monkeypatch, params,
                                                      truth, expected):
    monkeypatch.setattr(calibration, "usable_cores", lambda: 1)
    dates = _step2_dates(dataclasses.replace(params, w3_eps=truth))
    fun, profiled = _profiled(dates, params)
    fun(params.rho)
    brute = calibration.minimize_scalar(
        lambda w: _direct_sse(dates, params, params.rho, w),
        bounds=_BOUNDS["w3_eps"], method="bounded", options={"xatol": 1e-10})
    # to the brute force's own tolerance, about 3 sqrt(eps) |w|
    assert profiled["w3_eps"] == pytest.approx(brute.x, abs=1e-7)
    if expected is None:  # the quotes are priced at their own maturities
        assert profiled["w3_eps"] == pytest.approx(truth, abs=1e-9)
    else:
        assert profiled["w3_eps"] == expected
    # priced as the brute force prices it; the profiled objective itself
    # carries the w3_eps = 1 pass's quadrature error (1e-15 at truth
    # 0.015, where the directly priced SSE is 1e-24)
    assert (_direct_sse(dates, params, params.rho, profiled["w3_eps"])
            <= brute.fun * (1.0 + 1e-6) + 1e-20)


def test_step2_charges_a_failed_date_as_sum_over_dates(monkeypatch, params):
    monkeypatch.setattr(calibration, "usable_cores", lambda: 1)
    dates = _step2_dates(params, scale=(1.2, 0.9))
    bad_y, real = dates[2][1]["y"], calibration.price_spx_strike_batch

    def failing(x, strikes, tau, state, *args):
        if state.y == bad_y:
            raise DomainError("injected")
        return real(x, strikes, tau, state, *args)

    monkeypatch.setattr(calibration, "price_spx_strike_batch", failing)
    fun, profiled = _profiled(dates, params)
    value, w = fun(-0.8), profiled["w3_eps"]
    # w3_eps minimises the priced dates' SSE alone
    priced = dates[:2] + dates[3:]
    alone, alone_profiled = _profiled(priced, params)
    alone(-0.8)
    assert alone_profiled["w3_eps"] == w
    terms = [_direct_sse([d], params, -0.8, w) for d in priced]
    expected = sum(_charged(terms[:2] + [DomainError("failed")] + terms[2:]))
    assert value == pytest.approx(expected, rel=1e-8)


def test_profiled_step2_is_no_worse_than_nelder_mead_over_both(monkeypatch,
                                                               params):
    monkeypatch.setattr(calibration, "usable_cores", lambda: 1)
    # states off the quotes' own, so no (rho, w3_eps) fits exactly
    dates = _step2_dates(params, scale=(1.2, 0.9))
    fun, profiled = _profiled(dates, params)
    rho, obj, outcome = _rho_search(fun, CalibrationConfig(), [], "step2")
    assert [e["restart"] for e in outcome] == [0] and outcome[0]["success"]
    nm_obj = nelder_mead_min(
        lambda x: _direct_sse(dates, params, x[0], x[1]), [-0.7, 0.01],
        [_BOUNDS["rho"], _BOUNDS["w3_eps"]], restarts=2, seed=0,
        max_iter=200)
    assert obj <= nm_obj * (1.0 + 1e-9)
    assert obj == pytest.approx(
        _direct_sse(dates, params, rho, profiled["w3_eps"]), rel=1e-6)


def test_rho_at_a_bound_takes_two_evaluations():
    # every study fit lands on rho = -1: the bound is tried first
    values = []
    rho, value, outcome = _rho_search(
        lambda rho: values.append((rho + 1.2) ** 2) or values[-1],
        CalibrationConfig(), [], "step2")
    assert rho == -1.0 and value == pytest.approx(0.04)
    assert len(values) == outcome[0]["nfev"] == 2 and values[-1] == value


@pytest.mark.parametrize("centre, expected", ((-0.4, -0.4), (-0.9995, -1.0),
                                              (-0.0004, 0.0)))
def test_rho_search_matches_bounded_brent(centre, expected):
    values = []
    rho, value, outcome = _rho_search(
        lambda rho: values.append(1.0 + (rho - centre) ** 2) or values[-1],
        CalibrationConfig(), [], "step2")
    assert rho == pytest.approx(expected, abs=1e-5)
    assert value == values[-1] and outcome[0]["nfev"] == len(values)
    assert outcome[0]["success"]


# ---------------------------------------------------------------------------
# step 1's exact Jacobian
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _step1(factory, slices, r, quad, n_params):
    """(fun, jac) of a step-1 objective: the residual vector and, after
    it, the exact sparse Jacobian at the point it evaluated last."""
    dates = _DateMap(slices)
    try:
        yield factory(dates, r, quad), lambda: _jac_over_dates(
            dates.last, slices, n_params, n_params == 4)
    finally:
        dates.close()


def _panel_with_puts(params):
    """Three VIX dates at two maturities, each with a put 20% out of the
    money (priced by parity through the zero-strike forward leg)."""
    slices = []
    for sl in _state_panel(params, TINY_STATES, taus=(30 / 365, 60 / 365)):
        puts = tuple(Quote(round(0.8 * sl.vix_level), tau, False, 0.05)
                     for tau in (30 / 365, 60 / 365))
        slices.append(dataclasses.replace(sl,
                                          vix_quotes=sl.vix_quotes + puts))
    return slices


@pytest.mark.parametrize("model, x", [
    # the fitted parameters, one date at s = 0 (y = 0) and one at s = 1
    # (z = 0, so the ncx2 noncentrality is 0)
    ("msv", (3.58, 0.021, 0.347, 0.0096, 0.3, 0.0, 1.0)),
    # dof = 4 kappa theta / sigma^2 = 0.5 < 2
    ("msv", (1.5, 0.03, 0.6, 0.02, 0.5, 0.7, 0.2)),
    ("heston", (3.43, 0.04, 0.424)),
    ("heston", (1.0, 0.02, 0.5))])  # dof 0.32
def test_step1_jacobian_equals_central_differences(monkeypatch, params,
                                                   model, x):
    monkeypatch.setattr(calibration, "usable_cores", lambda: 1)
    tight = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)
    slices = _panel_with_puts(params)
    assert not all(q.is_call for sl in slices for q in sl.vix_quotes)
    factory, n_params = ((_msv_step1_objective, 4) if model == "msv"
                         else (_heston_step1_objective, 3))
    x = np.array(x)
    with _step1(factory, slices, params.r, tight, n_params) as (fun, jac):
        fun(x)
        exact = jac().toarray()
        steps = [1e-5 * v for v in x[:n_params]] + [1e-5] * (len(x)
                                                              - n_params)
        diff = difference_jacobian(fun, x, steps, [0.0] * len(x),
                                   [math.inf] * n_params
                                   + [1.0] * (len(x) - n_params))
    for j in range(len(x)):
        scale = np.abs(diff[:, j]).max()
        assert scale > 0, j
        assert np.abs(exact[:, j] - diff[:, j]).max() <= 1e-6 * scale, j


@pytest.mark.parametrize("n_params, state_columns", ((4, True), (3, False)))
def test_step1_jacobian_is_built_from_the_date_blocks(n_params,
                                                      state_columns):
    # the paper's sample size, 750 dates of 30 VIX quotes (29 on every
    # third date), with random jets and one failed date: the CSR arrays
    # are the dense pattern's, and no rows x columns array is made
    rng = np.random.default_rng(0)
    slices = [DateSlice(date=f"d{i}", spx_level=None, vix_level=20.0,
                        vix_quotes=(Quote(20.0, 0.1, True, 1.0),)
                        * (30 - (i % 3 == 2)))
              for i in range(750)]
    terms = [rng.standard_normal((len(sl.vix_quotes),
                                  1 + n_params + state_columns))
             for sl in slices]
    terms[7] = DomainError("failed")
    tracemalloc.start()
    try:
        built = _jac_over_dates(terms, slices, n_params, state_columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    oracle = dense_pattern_jacobian(terms, slices, n_params, state_columns)
    assert built.shape == oracle.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(built, name), getattr(oracle, name))
    first = sum(len(sl.vix_quotes) for sl in slices[:7])
    assert built[first:first + 30].count_nonzero() == 0
    assert built[first + 30].count_nonzero() == n_params + state_columns


def test_step1_jacobian_does_not_depend_on_the_core_count(monkeypatch,
                                                          params):
    # a date whose VIX close is below every state-free floor fails: its
    # rows carry its charge, and its Jacobian rows are 0
    bad = DateSlice(date="2016-03-09", spx_level=2000.0, vix_level=4.0,
                    vix_quotes=(Quote(5.0, 30 / 365, True, 0.8),
                                Quote(6.0, 30 / 365, False, 0.5)))
    slices = _five_date_panel(params)
    slices = slices[:2] + [bad] + slices[2:]
    n = sum(len(sl.vix_quotes) for sl in slices[:2])
    cases = [(_msv_step1_objective, 4, (3.58, 0.021, 0.347, 0.0096,
                                        0.0, 0.25, 0.5, 0.75, 1.0, 0.6)),
             (_msv_step1_objective, 4, (8.0, 0.05, 1.2, 0.09) + (0.4,) * 6),
             (_heston_step1_objective, 3, (3.43, 0.04, 0.424))]
    seen = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(calibration, "usable_cores", lambda: cores)
        seen[cores] = []
        for factory, n_params, x in cases:
            with _step1(factory, slices, params.r, QUAD, n_params) as (fun,
                                                                       jac):
                rows = fun(np.array(x))
                dense = jac().toarray()
                seen[cores].append((rows.tobytes(), dense.tobytes()))
                assert np.all(rows[n:n + 2] > 0)
                assert not dense[n:n + 2].any() and dense[:n].any()
        assert multiprocessing.active_children() == []
    assert seen[1] == seen[2] == seen[3]
