"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured numbers.

Runs the Monte Carlo oracle at 10^6 paths where a criterion says so;
expect several minutes of total runtime.  The (eta, nu) split for oracle
runs is eta = -1 (the minimum-nu point of the iso-w3 curve), which
minimizes the approximation-error constant of the analytic formulas; the
split-invariance of prices is itself covered by the MC test module.

Criteria 1, 3 and the VIX half of criterion 5 fail with the published
parameter values; the failures are real properties of the approximation
(see the printed measurements), not of this implementation, and the
tolerances are asserted exactly as specified.
"""

import datetime as dtm
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from mssv import (CalibrationConfig, HiddenState, McConfig, McModelParams,
                  ModelParams, Ncx2Params, QuadratureConfig, bs_call_price, bs_implied_vol,
                  calibrate_heston, calibrate_msv, error_report,
                  make_synthetic_quotes, ncx2_pdf, price_heston_call_batch,
                  price_spx_strike_batch,
                  price_vix_heston_strike_batch, price_vix_strike_batch,
                  to_date_slices, vix_from_state, vix_limit_from_z,
                  vix_normal_implied_vol, vix_normal_price)
from mssv.data import BUCKET_LABELS, OptionQuote
from mssv.mc import mc_price_spx_strikes, mc_price_vix_strikes
from mssv.model import TAU0
from mssv.spx import effective_heston

from .conftest import FITTED, FITTED_HESTON
from .oracles import (VixOptionSpec, heston_call_gil_pelaez_ode,
                      mc_params_from_eta_nu, price_vix, spectral_coefficient,
                      synthetic_grid, vix_from_z_heston)

PARAMS = ModelParams(**FITTED)
STATE_1 = HiddenState(y=0.0234, z=0.0194)   # y > z
STATE_2 = HiddenState(y=0.0110, z=0.0203)   # y < z
MP = McModelParams(PARAMS, eta=-1.0)
X0 = 2000.0
SPX_STRIKES = [1800.0, 1900.0, 2000.0, 2100.0, 2200.0]  # +-10% moneyness
VIX_STRIKES = [15.0, 20.0, 25.0]
QUAD = QuadratureConfig()


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. SPX Monte Carlo agreement at 10^6 paths
# ---------------------------------------------------------------------------

def test_criterion_1_spx_mc_agreement():
    rows = []
    ok = True
    for tau in (TAU0, 0.25):
        cfg = McConfig(paths=1_000_000, seed=101, steps_per_eps=10)
        ests = mc_price_spx_strikes(MP, STATE_1, X0, SPX_STRIKES, tau, cfg)
        decomps = price_spx_strike_batch(X0, SPX_STRIKES, tau, STATE_1,
                                         PARAMS, QUAD)
        for k, est, d in zip(SPX_STRIKES, ests, decomps):
            dev = (d.total - est.mean) / est.standard_error
            good = abs(dev) <= 3.0
            ok &= good
            rows.append(f"tau={tau:.4f} K={k:.0f}: analytic={d.total:.4f} "
                        f"mc={est.mean:.4f} se={est.standard_error:.4f} "
                        f"dev={dev:+.1f}SE {'ok' if good else 'OUT'}")
    detail = "|analytic - MC| <= 3 SE at 1e6 paths\n  " + "\n  ".join(rows)
    assert _report(1, ok, detail), \
        "SPX analytic prices outside 3 MC standard errors (see report)"


# ---------------------------------------------------------------------------
# 2. VIX Monte Carlo agreement
# ---------------------------------------------------------------------------

def test_criterion_2_vix_mc_agreement():
    rows = []
    ok = True
    for state, name in ((STATE_1, "y>z"), (STATE_2, "y<z")):
        cfg = McConfig(paths=1_000_000, seed=202, steps_per_eps=10)
        ests = mc_price_vix_strikes(MP, state, VIX_STRIKES, TAU0, cfg)
        decomps = price_vix_strike_batch(VIX_STRIKES, TAU0, state, PARAMS, QUAD)
        for k, est, d in zip(VIX_STRIKES, ests, decomps):
            err = d.total - est.mean
            tol = 3.0 * est.standard_error + 1e-2
            good = abs(err) <= tol
            ok &= good
            rows.append(f"{name} K={k:.0f}: analytic={d.total:.5f} "
                        f"mc={est.mean:.5f} err={err:+.5f} tol={tol:.5f} "
                        f"{'ok' if good else 'OUT'}")
    detail = "|analytic - MC| <= 3 SE + 0.01 points\n  " + "\n  ".join(rows)
    assert _report(2, ok, detail)


# ---------------------------------------------------------------------------
# 3. VIX level reproduction
# ---------------------------------------------------------------------------

def test_criterion_3_vix_level():
    v1 = vix_from_state(STATE_1, PARAMS)
    v2 = vix_from_state(STATE_2, PARAMS)
    ok = abs(v1 - 20.0) <= 0.05 and abs(v2 - 20.0) <= 0.05
    detail = (f"states map to VIX {v1:.4f} and {v2:.4f}; required 20.0 +- 0.05 "
              "(the whole rounding box of the published values reaches at "
              "most 19.966 and 19.974; see README)")
    assert _report(3, ok, detail), detail


# ---------------------------------------------------------------------------
# 4. Heston reduction against ODE-integrated characteristic function
# ---------------------------------------------------------------------------

def test_criterion_4_heston_reduction():
    p0 = ModelParams(**{**FITTED, "w3_eps": 0.0})
    ke, te, se, re_ = effective_heston(p0)
    rows = []
    ok = True
    for tau in (TAU0, 0.25):
        decomps = price_spx_strike_batch(X0, SPX_STRIKES[::2], tau, STATE_1,
                                         p0, QUAD)
        for k, d in zip(SPX_STRIKES[::2], decomps):
            ref = heston_call_gil_pelaez_ode(X0, k, tau, p0.r, ke, te, se,
                                             re_, 2 * STATE_1.z)
            rel = abs(d.total - ref) / abs(ref)
            good = rel <= 1e-6
            ok &= good
            rows.append(f"tau={tau:.4f} K={k:.0f}: rel err {rel:.2e} "
                        f"{'ok' if good else 'OUT'}")
    detail = ("mapped parameters (kappa, 2 theta, sqrt2 sigma, rho/sqrt2) "
              "vs ODE+Gil-Pelaez oracle\n  " + "\n  ".join(rows))
    assert _report(4, ok, detail)


# ---------------------------------------------------------------------------
# 5. asymptotic order in epsilon
# ---------------------------------------------------------------------------

EPS_SET = (0.04, 0.02, 0.01)


def _slope(errs):
    return float(np.polyfit(np.log(EPS_SET), np.log(errs), 1)[0])


def test_criterion_5a_spx_epsilon_slope():
    # fixed (eta, nu) = (-0.5, 0.433); w3_eps scales with sqrt(eps)
    errs = []
    for i, eps in enumerate(EPS_SET):
        mp = mc_params_from_eta_nu(
            ModelParams(**{**FITTED, "epsilon": eps}), eta=-0.5, nu=0.433)
        cfg = McConfig(paths=1_000_000, seed=510 + i, steps_per_eps=10)
        ests = mc_price_spx_strikes(mp, STATE_1, X0, SPX_STRIKES, 0.25, cfg)
        decomps = price_spx_strike_batch(X0, SPX_STRIKES, 0.25, STATE_1,
                                         mp.params, QUAD)
        errs.append(float(np.mean([abs(d.total - e.mean)
                                   for d, e in zip(decomps, ests)])))
    slope = _slope(errs)
    ok = 0.7 <= slope <= 1.3
    detail = (f"SPX mean |err| over strikes at eps={EPS_SET}: "
              f"{[f'{e:.4f}' for e in errs]}, slope {slope:.3f} "
              "(required [0.7, 1.3])")
    assert _report("5a", ok, detail)


def test_criterion_5b_vix_epsilon_slope():
    errs = []
    for i, eps in enumerate(EPS_SET):
        mp = mc_params_from_eta_nu(
            ModelParams(**{**FITTED, "epsilon": eps}), eta=-0.5, nu=0.433)
        cfg = McConfig(paths=2_000_000, seed=550 + i, steps_per_eps=10)
        ests = mc_price_vix_strikes(mp, STATE_1, [18.0, 20.0, 22.0], 0.25, cfg)
        decomps = price_vix_strike_batch([18.0, 20.0, 22.0], 0.25, STATE_1,
                                         mp.params, QUAD)
        errs.append(float(np.mean([abs(d.total - e.mean)
                                   for d, e in zip(decomps, ests)])))
    slope = _slope(errs)
    ok = 1.5 <= slope <= 2.5
    detail = (f"VIX mean |err| at eps={EPS_SET}: "
              f"{[f'{e:.4f}' for e in errs]}, slope {slope:.3f} "
              "(required [1.5, 2.5]; the measured error is dominated by "
              "a sub-quadratic component at every resolvable epsilon)")
    assert _report("5b", ok, detail)


# ---------------------------------------------------------------------------
# 6. spectral projection of the fast factor
# ---------------------------------------------------------------------------

def test_criterion_6_spectral_check():
    nu, z = 0.4, 0.04
    c = [spectral_coefficient(nu, z, n) for n in range(4)]
    ok = (abs(c[0]) < 1e-10
          and abs(c[1] + nu * math.sqrt(z)) < 1e-8 * nu * math.sqrt(z)
          and abs(c[2]) < 1e-8 and abs(c[3]) < 1e-8)
    detail = (f"c0={c[0]:.2e} c1={c[1]:.10f} (target {-nu * math.sqrt(z)}) "
              f"c2={c[2]:.2e} c3={c[3]:.2e}")
    assert _report(6, ok, detail)


# ---------------------------------------------------------------------------
# 7. non-central chi-square suite
# ---------------------------------------------------------------------------

def test_criterion_7_ncx2_suite():
    ok = True
    worst_mass, worst_mean = 0.0, 0.0
    for dof in (0.5, 2.0, 10.0, 50.0):
        for lam in (0.0, 1.0, 10.0, 100.0):
            p = Ncx2Params(dof=dof, lam=lam, delta=1.0)
            hi = dof + lam + 60 * math.sqrt(2 * (dof + 2 * lam)) + 20
            mass = scipy_quad(lambda t: ncx2_pdf(t, p), 0, hi, limit=500)[0]
            mean = scipy_quad(lambda t: t * ncx2_pdf(t, p), 0, hi, limit=500)[0]
            worst_mass = max(worst_mass, abs(mass - 1.0))
            worst_mean = max(worst_mean, abs(mean - (dof + lam)))
            ok &= abs(mass - 1.0) <= 1e-8 and abs(mean - (dof + lam)) <= 1e-6
    detail = (f"dof in [0.5, 50] x lam in [0, 100]: worst |mass-1| = "
              f"{worst_mass:.2e} (<=1e-8), worst |mean-(dof+lam)| = "
              f"{worst_mean:.2e} (<=1e-6)")
    assert _report(7, ok, detail)


# ---------------------------------------------------------------------------
# 8 + 9. calibration round trips and the two-model synthetic study
# ---------------------------------------------------------------------------

CAL_QUAD = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
MSV_TOL = {"kappa": 0.05, "theta": 0.05, "sigma": 0.05, "epsilon": 0.25,
           "rho": 0.10, "w3_eps": 0.10}


class _PricedQuote:
    """Just the fields the error report reads."""

    def __init__(self, underlying_kind, tau, mid_price):
        self.underlying_kind = underlying_kind
        self.tau = tau
        self.mid_price = mid_price


def _msv_states(seed=7, n=6):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        y = PARAMS.theta * float(np.exp(0.55 * rng.standard_normal()))
        z = PARAMS.theta * float(np.exp(0.45 * rng.standard_normal()))
        date = dtm.date(2016, 1, 5) + dtm.timedelta(days=7 * i)
        out.append((date.isoformat(), HiddenState(y=y, z=z)))
    return out


@pytest.fixture(scope="module")
def msv_fixture_quotes():
    # maturities chosen so both underlyings populate every tau >= 0.05
    # bucket (day counts round, so 0.11 rather than 0.10); the VIX
    # maturities are the grid's own, 30 and 60 days
    with synthetic_grid(SPX_TAUS=(0.06, 0.11, 0.25)):
        return make_synthetic_quotes(PARAMS, _msv_states(), quad=CAL_QUAD)


@pytest.fixture(scope="module")
def msv_fit(msv_fixture_quotes):
    cfg = CalibrationConfig(max_iter=250, restarts=2, seed=3)
    return calibrate_msv(to_date_slices(msv_fixture_quotes), cfg, CAL_QUAD,
                         r=PARAMS.r)


@pytest.fixture(scope="module")
def heston_fit_on_msv_data(msv_fixture_quotes):
    cfg = CalibrationConfig(max_iter=250, restarts=2, seed=3)
    return calibrate_heston(to_date_slices(msv_fixture_quotes), cfg, CAL_QUAD,
                            r=PARAMS.r)


def test_criterion_8_noiseless_msv_round_trip(msv_fit):
    truth = {k: FITTED[k] for k in MSV_TOL}
    rows, ok = [], True
    for name, tv in truth.items():
        got = msv_fit.params[name]
        rel = abs(got - tv) / abs(tv)
        good = rel <= MSV_TOL[name]
        ok &= good
        rows.append(f"{name}: truth {tv} fitted {got:.6g} "
                    f"rel {100 * rel:.2f}% (tol {100 * MSV_TOL[name]:.0f}%) "
                    f"{'ok' if good else 'OUT'}")
    detail = "noiseless two-factor recovery\n  " + "\n  ".join(rows)
    assert _report("8 (msv)", ok, detail)


def _heston_synthetic(noise=0.0, seed=0, n_dates=4):
    kap, th, sig, rho = (FITTED_HESTON[k] for k in
                         ("kappa", "theta", "sigma", "rho"))
    rng = np.random.default_rng(seed)
    quotes = []
    for i in range(n_dates):
        date = dtm.date(2016, 1, 5) + dtm.timedelta(days=7 * i)
        z = th * float(np.exp(0.4 * rng.standard_normal()))
        vix = vix_from_z_heston(z, kap, th)
        for tau in (30 / 365, 60 / 365):
            expiry = date + dtm.timedelta(days=round(tau * 365))
            ks = [float(round(m * vix)) for m in (0.85, 1.0, 1.15, 1.3)]
            ps = price_vix_heston_strike_batch(ks, tau, z, kap, th, sig,
                                               PARAMS.r, CAL_QUAD)
            for k, p in zip(ks, ps):
                p *= 1.0 + noise * rng.standard_normal() if noise else 1.0
                if p > 0:
                    quotes.append(OptionQuote(date, "VIX", "call", k, expiry,
                                              p, 100.0, vix))
        for tau in (0.1, 0.25):
            days = round(tau * 365)  # priced at the written expiry
            expiry, tau = date + dtm.timedelta(days=days), days / 365
            ks = [float(round(m * X0)) for m in (0.9, 0.95, 1.0, 1.05, 1.1)]
            ps = price_heston_call_batch(X0, ks, tau, PARAMS.r, kap, th, sig,
                                         rho, z, CAL_QUAD)
            for k, p in zip(ks, ps):
                p *= 1.0 + noise * rng.standard_normal() if noise else 1.0
                if p > 0:
                    quotes.append(OptionQuote(date, "SPX", "call", k, expiry,
                                              p, 100.0, X0))
    return quotes


def test_criterion_8_noiseless_heston_round_trip():
    cfg = CalibrationConfig(max_iter=250, restarts=2, seed=5)
    res = calibrate_heston(to_date_slices(_heston_synthetic()), cfg, CAL_QUAD,
                           r=PARAMS.r)
    rows, ok = [], True
    for name, tv in FITTED_HESTON.items():
        got = res.params[name]
        rel = abs(got - tv) / abs(tv)
        good = rel <= 0.05
        ok &= good
        rows.append(f"{name}: truth {tv} fitted {got:.6g} "
                    f"rel {100 * rel:.2f}% {'ok' if good else 'OUT'}")
    detail = "noiseless benchmark recovery (5%)\n  " + "\n  ".join(rows)
    assert _report("8 (heston)", ok, detail)


def test_criterion_8_noise_study():
    cfg = CalibrationConfig(max_iter=150, restarts=1, seed=5)
    worst = {k: 0.0 for k in FITTED_HESTON}
    ok = True
    for seed in range(10):
        quotes = _heston_synthetic(noise=0.01, seed=100 + seed)
        res = calibrate_heston(to_date_slices(quotes), cfg, CAL_QUAD,
                               r=PARAMS.r)
        for name, tv in FITTED_HESTON.items():
            rel = abs(res.params[name] - tv) / abs(tv)
            worst[name] = max(worst[name], rel)
            ok &= rel <= 0.15
    detail = ("1% price noise, 10 seeds, worst relative errors: "
              + ", ".join(f"{k} {100 * v:.1f}%" for k, v in worst.items())
              + " (tol 15%)")
    assert _report("8 (noise)", ok, detail)


def test_criterion_9_two_model_error_study(msv_fixture_quotes, msv_fit,
                                           heston_fit_on_msv_data, tmp_path):
    slices = to_date_slices(msv_fixture_quotes)
    m_par = msv_fit.params
    h_par = heston_fit_on_msv_data.params
    fitted = ModelParams(kappa=m_par["kappa"], theta=m_par["theta"],
                         sigma=m_par["sigma"], rho=m_par["rho"],
                         epsilon=m_par["epsilon"], w3_eps=m_par["w3_eps"],
                         r=m_par["r"])
    m_states = {s["date"]: HiddenState(y=s["y"], z=s["z"])
                for s in msv_fit.states}
    h_states = {s["date"]: s["z"] for s in heston_fit_on_msv_data.states}

    quotes, h_prices, m_prices = [], [], []
    for sl in slices:
        st = m_states[sl.date]
        hz = h_states[sl.date]
        for group, kind in ((sl.vix_quotes, "VIX"), (sl.spx_quotes, "SPX")):
            by_tau = {}
            for q in group:
                by_tau.setdefault(q.tau, []).append(q)
            for tau, qs in by_tau.items():
                ks = [q.strike for q in qs]
                if kind == "VIX":
                    hp = price_vix_heston_strike_batch(
                        ks, tau, hz, h_par["kappa"], h_par["theta"],
                        h_par["sigma"], h_par["r"], CAL_QUAD)
                    mp_ = [d.total for d in price_vix_strike_batch(
                        ks, tau, st, fitted, CAL_QUAD)]
                else:
                    hp = price_heston_call_batch(
                        sl.spx_level, ks, tau, h_par["r"], h_par["kappa"],
                        h_par["theta"], h_par["sigma"], h_par["rho"], hz,
                        CAL_QUAD)
                    mp_ = [d.total for d in price_spx_strike_batch(
                        sl.spx_level, ks, tau, st, fitted, CAL_QUAD)]
                for q, a, b in zip(qs, hp, mp_):
                    quotes.append(_PricedQuote(kind, tau, q.price))
                    h_prices.append(a)
                    m_prices.append(b)

    rep_h = error_report(h_prices, quotes)
    rep_m = error_report(m_prices, quotes)
    from mssv.data import write_error_table_csv
    out = tmp_path / "appendix_table.csv"
    write_error_table_csv(out, rep_h, rep_m)
    header = out.read_text().splitlines()[0]
    layout_ok = all(f"{lab}:{col}" in header
                    for lab in list(BUCKET_LABELS) + ["total"]
                    for col in ("heston", "ours", "o/h"))

    rows, ok = [], layout_ok
    for und in ("SPX", "VIX"):
        for lab in list(BUCKET_LABELS[1:]) + ["total"]:  # tau >= 0.05 buckets
            h = rep_h.cell(und, lab)
            m = rep_m.cell(und, lab)
            if h.count == 0:
                continue
            good = m.mean < h.mean
            ok &= good
            rows.append(f"{und} {lab}: heston {h.mean:.5f} ours {m.mean:.5f} "
                        f"o/h {100 * m.mean / h.mean:.1f}% "
                        f"{'ok' if good else 'OUT'}")
    detail = ("two-factor fit beats the benchmark in every bucket with "
              f"tau >= 0.05 (table layout ok: {layout_ok})\n  "
              + "\n  ".join(rows))
    assert _report(9, ok, detail)


# ---------------------------------------------------------------------------
# 10. implied-vol round trips and the short-maturity sign reversal
# ---------------------------------------------------------------------------

def test_criterion_10_round_trips_and_sign_reversal():
    # round trips, both conventions, 1e-8
    rt_ok = True
    for sigma in (1.0, 5.0, 10.0):
        p = vix_normal_price(20.0, 19.0, TAU0, sigma)
        rt_ok &= abs(vix_normal_implied_vol(p, 20.0, 19.0, TAU0) - sigma) < 1e-8
    for sigma in (0.1, 0.2, 0.5):
        p = bs_call_price(X0, 2100.0, 0.25, PARAMS.r, sigma)
        rt_ok &= abs(bs_implied_vol(p, X0, 2100.0, 0.25, PARAMS.r) - sigma) < 1e-8

    # surface differences (corrected minus uncorrected at z = 0.0197)
    uncorr_state = HiddenState(y=0.0197, z=0.0197)
    level_u = vix_limit_from_z(0.0197, PARAMS)
    tau = 14 / 365
    strikes = [18.0, 20.0, 22.0]
    slopes = {}
    for state, name in ((STATE_1, "y>z"), (STATE_2, "y<z")):
        level_c = vix_from_state(state, PARAMS)
        deltas = []
        for k in strikes:
            pc = price_vix(VixOptionSpec(k, tau), state, PARAMS).total
            pu = price_vix(VixOptionSpec(k, tau), uncorr_state, PARAMS,
                           include_correction=False).total
            # raises NoRootError where a point does not invert
            deltas.append(vix_normal_implied_vol(pc, level_c, k, tau)
                          - vix_normal_implied_vol(pu, level_u, k, tau))
        slopes[name] = deltas[-1] - deltas[0]
    reversal_ok = slopes["y>z"] > 0 > slopes["y<z"]
    ok = rt_ok and reversal_ok
    detail = (f"round trips to 1e-8: {rt_ok}; strike-slope of the IV "
              f"difference at tau={tau:.4f}: y>z {slopes['y>z']:+.4f}, "
              f"y<z {slopes['y<z']:+.4f} (opposite signs: {reversal_ok})")
    assert _report(10, ok, detail)
