"""Tests of the benchmark's own checks: each must reject a wrong output.

Kept out of the package's test suite (pytest's testpaths is tests/).
Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import mssv.quadrature  # noqa: E402
import mssv.vix  # noqa: E402


def _bs_grid(strikes, x=2000.0, tau=0.25, r=0.02, vol=0.2):
    return [checks.bs_call(x, k, tau, r, vol) for k in strikes]


# -- reference pricers -------------------------------------------------------

def test_heston_reference_reduces_to_black_scholes():
    # vol-of-vol -> 0 with v0 = theta and no correlation: constant
    # variance 0.04, vol 0.2, up to O(sigma^2)
    for k in (1800.0, 2000.0, 2200.0):
        got = checks.heston_call(2000.0, k, 0.25, 0.02, 2.0, 0.04, 1e-3, 0.0,
                                 0.04)
        assert got == pytest.approx(checks.bs_call(2000.0, k, 0.25, 0.02, 0.2),
                                    rel=1e-6)


def test_vix_reference_zero_strike_is_the_mean_of_the_payoff():
    # K = 0 with slope 1, intercept 0: e^{-r tau} 100 E[sqrt(Z_tau)], and
    # E[Z_tau] reproduces the CIR mean through E[(sqrt Z)^2]
    kappa, theta, sigma, z, tau, r = 3.0, 0.03, 0.4, 0.02, 0.1, 0.0
    decay = math.exp(-kappa * tau)
    delta = (1.0 - decay) * sigma**2 / (4.0 * kappa)
    law = checks.stats.ncx2(4.0 * kappa * theta / sigma**2, z * decay / delta)
    mean_sqrt = checks.integrate.quad(
        lambda s: math.sqrt(delta * s) * law.pdf(s), 0.0, np.inf)[0]
    got = checks.vix_leading_call(0.0, tau, z, kappa, theta, sigma, r, 1.0, 0.0)
    assert got == pytest.approx(100.0 * mean_sqrt, rel=1e-8)


def test_reprice_formulas_round_trip_against_package_inversions():
    from mssv.impvol import bs_implied_vol, vix_normal_implied_vol
    price = checks.bs_call(2000.0, 2100.0, 0.25, 0.02, 0.18)
    assert bs_implied_vol(price, 2000.0, 2100.0, 0.25, 0.02) == \
        pytest.approx(0.18, rel=1e-9)
    price = checks.bachelier_call(20.0, 22.0, 0.1, 6.0)
    assert vix_normal_implied_vol(price, 20.0, 22.0, 0.1) == \
        pytest.approx(6.0, rel=1e-9)


# -- checks reject wrong outputs ---------------------------------------------

def test_close_rejects_a_price_perturbed_by_1e_4_relative():
    ref = _bs_grid([1900.0, 2000.0, 2100.0])
    assert checks.check_close("p", ref, ref, rel=1e-6) == []
    bad = list(ref)
    bad[1] *= 1.0 + 1e-4
    assert len(checks.check_close("p", bad, ref, rel=1e-6)) == 1


def test_reprice_rejects_a_wrong_vol():
    vols = [0.2, 0.21]
    prices = [checks.bs_call(2000.0, k, 0.25, 0.02, v)
              for k, v in zip((1900.0, 2100.0), vols)]
    repriced = [checks.bs_call(2000.0, k, 0.25, 0.02, v * (1 + 1e-6))
                for k, v in zip((1900.0, 2100.0), vols)]
    assert checks.check_close("iv", repriced, prices, rel=1e-8, abs_=1e-8)


def test_parity_rejects_a_put_priced_as_a_call():
    ks = [1900.0, 2000.0, 2100.0]
    calls = _bs_grid(ks)
    puts = [c - 2000.0 + k * math.exp(-0.02 * 0.25) for c, k in zip(calls, ks)]
    assert checks.check_spx_parity("s", ks, calls, puts, 2000.0, 0.02, 0.25) == []
    assert len(checks.check_spx_parity("s", ks, calls, calls, 2000.0, 0.02,
                                       0.25)) == 3
    disc = math.exp(-0.02 * 0.1)
    vix_calls, zero = [2.0, 1.0, 0.4], disc * 20.0
    vix_puts = [c - zero + disc * k for c, k in zip(vix_calls, (18, 20, 22))]
    assert checks.check_vix_parity("v", (18, 20, 22), vix_calls, vix_puts,
                                   zero, 0.02, 0.1) == []
    assert checks.check_vix_parity("v", (18, 20, 22), vix_calls, vix_calls,
                                   zero, 0.02, 0.1)


def test_shape_rejects_a_kink_and_a_rise():
    # at the wide grids' spacing a 1e-4 bump outweighs the natural convexity
    ks = list(np.linspace(1700.0, 2200.0, 301))
    calls = _bs_grid(ks)
    assert checks.check_decreasing_convex("c", ks, calls, 1e-7) == []
    bad = list(calls)
    bad[180] *= 1.0 + 1e-4
    assert checks.check_decreasing_convex("c", ks, bad, 1e-7)
    assert checks.check_decreasing_convex("c", ks, calls[::-1], 1e-7)


def test_params_reject_a_value_outside_tolerance():
    truth = workloads.FITTED
    fitted = dict(truth)
    assert checks.check_params("m", fitted, truth, workloads.MSV_TOL) == []
    fitted["kappa"] = truth["kappa"] * 1.06
    fitted["epsilon"] = truth["epsilon"] * 1.2
    fails = checks.check_params("m", fitted, truth, workloads.MSV_TOL)
    assert len(fails) == 1 and "kappa" in fails[0]
    fitted["epsilon"] = truth["epsilon"] * 1.3
    assert len(checks.check_params("m", fitted, truth, workloads.MSV_TOL)) == 2


def test_monte_carlo_gates():
    fwd = 2000.0 - math.exp(-0.02 * 0.1) * 1.0
    assert checks.check_mc_martingale("m", fwd + 0.2, 0.25, 2000.0, 1.0,
                                      0.02, 0.1) == []
    assert checks.check_mc_martingale("m", fwd + 1.1, 0.25, 2000.0, 1.0,
                                      0.02, 0.1)
    assert checks.check_mc_agreement("v", [(20.0, 1.78, 1.80, 0.005)]) == []
    assert checks.check_mc_agreement("v", [(20.0, 1.78, 1.806, 0.005)])


# -- parsers -----------------------------------------------------------------

def test_parsers_read_the_cli_layouts():
    table = ("strike      leading          correction       total\n"
             "1900        120.1            -1.5             118.6\n")
    assert checks.parse_price_table(table) == [(1900.0, 120.1, -1.5, 118.6)]
    report = ("SPX tau=0.25 x=2000 paths=10000 (scheme=exact)\n"
              "strike      analytic         mc               se            dev/se\n"
              "1           1999.0           1998.9           0.25          +0.4\n"
              "VIX tau=0.08 paths=10000\n"
              "strike      analytic         mc               se            dev/se\n"
              "20          1.78             1.79             0.006         -1.6\n"
              "points outside 3 SE: 0\n")
    assert checks.parse_validate(report) == {
        "SPX": [(1.0, 1999.0, 1998.9, 0.25)], "VIX": [(20.0, 1.78, 1.79, 0.006)]}
    surface = "strike,0.1,0.25\n1900,0.21,0.2\n2000,0.19,0.18\n"
    assert checks.parse_surface_csv(surface) == (
        [1900.0, 2000.0], [0.1, 0.25], [[0.21, 0.2], [0.19, 0.18]])


# -- whole workloads ---------------------------------------------------------

@pytest.fixture(scope="module")
def surface_round(tmp_path_factory):
    wl = workloads.Surface(3, tmp_path_factory.mktemp("surface"))
    rnd = workloads.Round()
    wl.run_round(rnd)
    assert rnd.failed == 0, rnd.errors
    return wl, rnd.outputs


def test_surface_round_passes_its_checks(surface_round):
    wl, out = surface_round
    assert wl.check(out) == []


def test_surface_checks_reject_a_put_priced_as_a_call(surface_round):
    wl, out = surface_round
    bad = copy.deepcopy(out)
    bad["spx_put_0.25"] = bad["spx_call_0.25"]
    assert any("parity" in f for f in wl.check(bad))


def test_surface_checks_reject_a_perturbed_batch_price(surface_round):
    wl, out = surface_round
    for key in ("heston_batch_0.5", "vix_heston_batch_0.16"):
        bad = copy.deepcopy(out)
        bad[key][0] *= 1.0 + 1e-4  # the first strike is in the sample
        assert any("vs" in f for f in wl.check(bad)), key


def test_mc_validate_checks_reject_a_shifted_estimate(tmp_path):
    wl = workloads.McValidate(1, tmp_path)
    lines = ["SPX tau=0.08 x=2000 paths=200000",
             "strike      analytic         mc               se            dev/se"]
    lines += [f"{k:g}  {2000 - k + 1:.6f}  {2000 - k * math.exp(-0.02 * wl.TAU):.6f}"
              f"  0.25  +0.0" for k in wl.SPX_STRIKES]
    lines += ["VIX tau=0.08 paths=200000",
              "strike      analytic         mc               se            dev/se"]
    lines += [f"{k:g}  1.0  1.0  0.005  +0.0" for k in wl.VIX_STRIKES]
    good = {"validate": {"stdout": "\n".join(lines)}}
    assert wl.check(good) == []
    shifted = "\n".join(lines[:-1] + ["25  1.0  1.03  0.005  +0.0"])
    assert wl.check({"validate": {"stdout": shifted}})


# -- tracing -----------------------------------------------------------------

def test_tracer_counts_nodes_at_the_integrand_and_restores_names():
    original = mssv.quadrature.integrate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_round()
        evaluated = []

        def f(points):
            evaluated.append(len(points))
            return np.cos(points)

        # 50 breakpoints add panels that the returned node count misses
        _, _, nodes_used = mssv.vix.integrate(
            f, 0.0, 1.0, breakpoints=list(np.linspace(0.01, 0.99, 50)))
        counts = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert counts["quadrature.nodes"] == sum(evaluated)
    assert counts["quadrature.rounds"] == len(evaluated)
    assert counts["quadrature.calls"] == 1
    assert nodes_used < sum(evaluated)
    assert mssv.quadrature.integrate is original
    assert mssv.vix.integrate is original


def test_study_checks_reject_a_bad_fit_and_a_worse_two_factor_error(tmp_path):
    wl = workloads.Study(1, tmp_path)
    quotes, heston, msv, table = wl.quotes, wl.heston, wl.msv, wl.table
    states = [{"date": f"2016-01-0{i}", "y": 0.02, "z": 0.02}
              for i in range(wl.N_DATES)]
    fit = {"params": dict(workloads.FITTED), "states": states,
           "n_skipped_dates": 0}
    header = "underlying,stat,total:heston,total:ours"
    out = {
        "synthetic": {str(quotes): "date,underlying,type,strike,expiry,"
                        "price\n2016-01-05,VIX,call,20,2016-02-04,1.5\n"},
        "heston": {str(heston): json.dumps(fit)},
        "msv": {str(msv): json.dumps(fit)},
        "report": {str(table): f"{header}\nSPX,mean,0.02,0.01\n,std,0,0\n"
                                 "VIX,mean,0.05,0.03\n,std,0,0\n"},
    }
    assert wl.check(out) == []
    bad = copy.deepcopy(out)
    bad_fit = copy.deepcopy(fit)
    bad_fit["params"]["epsilon"] *= 1.3
    bad["msv"][str(msv)] = json.dumps(bad_fit)
    assert any("epsilon" in f for f in wl.check(bad))
    bad = copy.deepcopy(out)
    bad["report"][str(table)] = (f"{header}\nSPX,mean,0.02,0.01\n,std,0,0\n"
                                   "VIX,mean,0.03,0.05\n,std,0,0\n")
    assert any("VIX" in f for f in wl.check(bad))
