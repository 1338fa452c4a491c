"""VIX pricer tests: density suite, payoffs against an independent
re-derivation, price-level properties."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp
from scipy.stats import gamma as gamma_dist
from scipy.stats import ncx2 as scipy_ncx2

import mssv.quadrature
import mssv.vix
from mssv import (DomainError, HiddenState, ModelParams, Ncx2Params,
                  QuadratureConfig, QuadratureError, Quote,
                  heston_star_weights, ncx2_pdf, price_quotes,
                  price_vix_heston_strike_batch, price_vix_strike_batch,
                  vix_weights)
from mssv.model import TAU0
from mssv.vix import _correction_coeffs

from .conftest import FITTED
from .oracles import (VixOptionSpec, mc_params_from_eta_nu, payoff_rows,
                      per_strike_call_pass, price_vix, vix_call_quad,
                      vix_call_z_only)

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
    for q in (p, p_low, Ncx2Params(dof=1.0, lam=0.0, delta=1.0)):
        assert ncx2_pdf(math.inf, q) == 0.0


@pytest.mark.parametrize("dof", (0.3, 1.7, 2.0, 7.5, 31.0, 84.2))
@pytest.mark.parametrize("lam", (0.0,))
def test_ncx2_pdf_bitwise_equals_scipy_logsumexp(dof, lam):
    """At lam = 0 the Poisson mixture has one term, which the shifted sum
    and scipy's logsumexp both return exactly: the central density is
    bit for bit the log-space chi-square density."""
    p = Ncx2Params(dof=dof, lam=lam, delta=1.0)
    body = np.linspace(1e-3, dof + lam + 40.0 * math.sqrt(dof + 2 * lam), 300)
    tail = (dof + lam) * np.array([5.0, 20.0, 1e3, 1e6]) + 50.0
    zeta = np.concatenate([[1e-300, 1e-30], body, tail])
    m_half = dof / 2.0
    log_chi2 = ((m_half - 1.0) * np.log(zeta) - zeta / 2.0
                - m_half * math.log(2.0) - gammaln(m_half))
    ref = np.exp(logsumexp(log_chi2[None, :], axis=0))
    assert np.array_equal(ncx2_pdf(zeta, p), ref)


@pytest.mark.parametrize("dof", (0.3, 1.7, 2.0, 7.5, 31.0, 84.2))
@pytest.mark.parametrize("lam", (0.0, 0.4, 9.0, 120.0, 500.0))
def test_ncx2_pdf_matches_scipy_on_a_wide_grid(dof, lam):
    p = Ncx2Params(dof=dof, lam=lam, delta=1.0)
    body = np.linspace(1e-3, dof + lam + 40.0 * math.sqrt(dof + 2 * lam), 300)
    tail = (dof + lam) * np.array([5.0, 20.0, 1e3, 1e6]) + 50.0
    zeta = np.concatenate([[0.0, 1e-300, 1e-30], body, tail])
    mine, ref = ncx2_pdf(zeta, p), scipy_ncx2.pdf(zeta, dof, lam)
    big = (zeta > 0) & (ref > 1e-30)  # zeta = 0 is checked below
    assert big.sum() > 100
    assert np.allclose(mine[big], ref[big], rtol=1e-10, atol=0.0)
    assert mine[-1] == 0.0  # the far tail underflows
    assert mine[0] == (math.inf if dof < 2 else
                       0.5 * math.exp(-lam / 2) if dof == 2 else 0.0)


def _strike_row(v, params, strike, state=None, tau=None):
    """One strike's last row of the two-factor per-strike payoff rows at
    v: the leading payoff, or with a state the correction payoff."""
    w = vix_weights(params.kappa, params.epsilon)
    slope, intercept = w.a2_star, (1.0 + w.a4_star) * params.theta
    coeffs = None if state is None else (
        *_correction_coeffs(state, tau, params, w), params.theta)
    ks = np.array([[float(strike)]])
    kinks = ((ks[:, 0] / 100.0) ** 2 - intercept) / slope
    row = payoff_rows(np.ravel(np.asarray(v, dtype=float)), ks, kinks,
                      slope, intercept, coeffs)[0][-1]
    return row.reshape(np.shape(v)) if np.ndim(v) else float(row[0])


def payoff_h0(v, params, strike):
    """Leading VIX call payoff in the slow-factor value v."""
    return _strike_row(v, params, strike)


def payoff_h1star(v, state, tau, params, strike):
    """First-order payoff correction, frozen at the time-t value of y - z."""
    return _strike_row(v, params, strike, state, tau)


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


def _pass_rows(monkeypatch, price, strikes):
    """The per-strike rows, as a function of v, that a strike-batch density
    pass makes of its strike-free rows: with the density set to 1 the
    rows are payoffs, and output row i is coeffs[i] times them, here gated
    at kink i node by node (the quadrature gates by panel).  Returns them
    with the pass's own slow-factor values, delta (v / delta)."""
    seen, integrate_payoff = [], mssv.vix._integrate_payoff

    def capture(integrand, ncx2, quad, kinks, coeffs=None):
        seen.append((integrand, ncx2.delta, kinks, coeffs))
        return integrate_payoff(integrand, ncx2, quad, kinks=kinks,
                                coeffs=coeffs)

    monkeypatch.setattr(mssv.vix, "_integrate_payoff", capture)
    price(strikes)
    integrand, delta, kinks, coeffs = seen[0]

    def rows(v):
        zeta = v / delta
        with monkeypatch.context() as patch:
            patch.setattr(mssv.vix, "ncx2_pdf",
                          lambda zeta, ncx2: np.ones_like(zeta))
            basis = integrand(zeta)
        # rows with a 0 coefficient add nothing, even where they are
        # infinite (K = 0's N at its kink, where the root is 0)
        block = np.array([sum(c * row for c, row in zip(cs, basis) if c)
                          for cs in coeffs])
        v = delta * zeta
        block[np.tile(v < kinks[:, None], (len(coeffs) // len(kinks), 1))] = 0
        return block, v
    return rows


def _per_strike_rows(v, slope, intercept, strike, numer=None):
    """The per-strike leading (and correction) payoff the rows replaced."""
    vstar = ((strike / 100.0) ** 2 - intercept) / slope
    gate = v >= vstar
    h0, h1 = np.zeros_like(v), np.zeros_like(v)
    h0[gate] = 100.0 * np.sqrt(slope * v[gate] + intercept) - strike
    if numer is not None:  # K = 0 at its own kink divides by a zero root
        with np.errstate(divide="ignore"):
            h1[gate] = numer[gate] * (25.0 / np.sqrt(slope * v[gate]
                                                     + intercept))
    return np.maximum(h0, 0.0), h1


@pytest.mark.parametrize("epsilon", (0.0096, 1e-4))  # tau/eps 8.6 and 822
def test_pass_payoff_block_equals_per_strike_payoffs(monkeypatch, epsilon,
                                                     state_high_y):
    params = ModelParams(**{**FITTED, "epsilon": epsilon})
    w = vix_weights(params.kappa, params.epsilon)
    slope, intercept = w.a2_star, (1.0 + w.a4_star) * params.theta
    strikes = [0.0, 12.5, 15.0, 20.0, 22.0, 35.0]
    rows = _pass_rows(monkeypatch, lambda ks: price_vix_strike_batch(
        ks, TAU0, state_high_y, params), strikes)
    kinks = [((k / 100.0) ** 2 - intercept) / slope for k in strikes]
    v = np.concatenate([np.linspace(0.0, 0.3, 301)]
                       + [np.nextafter(k, [-np.inf, k, np.inf]) for k in kinks])
    block, v = rows(v)
    n = len(strikes)
    assert block.shape == (2 * n, len(v))
    for i, k in enumerate(strikes):
        h0 = payoff_h0(v, params, k)
        h1 = payoff_h1star(v, state_high_y, TAU0, params, k)
        # h - K, which the pass does not clip at 0, and N bit for bit
        assert np.array_equal(np.maximum(block[i], 0.0), h0)
        assert np.array_equal(block[n + i], h1)
        transient = math.exp(-TAU0 / epsilon) if TAU0 / epsilon < 745 else 0.0
        numer = (2.0 * transient * w.a1 * (state_high_y.y - state_high_y.z)
                 + params.kappa * epsilon * w.a2_star * (v - params.theta))
        ref0, ref1 = _per_strike_rows(v, slope, intercept, k, numer)
        assert np.array_equal(h0, ref0) and np.array_equal(h1, ref1)
        for j in (0, len(v) - 1, len(v) // 2):
            assert payoff_h0(float(v[j]), params, k) == h0[j]
            assert payoff_h1star(float(v[j]), state_high_y, TAU0, params,
                                 k) == h1[j]
    heston, v = _pass_rows(
        monkeypatch, lambda ks: price_vix_heston_strike_batch(
            ks, TAU0, 0.04, 3.43, 0.04, 0.424, 0.02), strikes)(v)
    b2, b4 = heston_star_weights(3.43)
    assert heston.shape == (n, len(v))
    for i, k in enumerate(strikes):
        assert np.array_equal(np.maximum(heston[i], 0.0),
                              _per_strike_rows(v, b2, b4 * 0.04, k)[0])


@pytest.mark.parametrize("strikes", ([math.nan, 20.0], [20.0, math.nan],
                                     [20.0, math.inf]))
def test_non_finite_inputs_fail_before_quadrature(monkeypatch, params,
                                                  state_high_y, strikes):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on a non-finite input")

    monkeypatch.setattr(mssv.quadrature, "integrate", no_quadrature)
    two_factor = [lambda ks, tau, st: price_vix_strike_batch(
        ks, tau, st, params, include_correction=c) for c in (True, False)]
    benchmark = lambda ks, tau, st: price_vix_heston_strike_batch(
        ks, tau, st.z, 3.43, 0.04, 0.424, 0.02)
    jets = lambda ks, tau, st: mssv.vix.vix_call_pass(
        ks, tau, st.z, params.kappa, params.theta, params.sigma, params.r,
        0.9, 0.03, QuadratureConfig(), jets=True)
    for price in two_factor + [benchmark, jets]:
        with pytest.raises(DomainError):
            price(strikes, TAU0, state_high_y)
        with pytest.raises(DomainError):
            price([20.0], math.nan, state_high_y)
    # a HiddenState with a nan z cannot be built (test_model.py); the
    # benchmark takes its z as a plain number
    with pytest.raises(DomainError):
        price_vix_heston_strike_batch([20.0], TAU0, math.nan, 3.43, 0.04,
                                      0.424, 0.02)
    # and its parameters too
    base = dict(z=0.04, kappa=3.43, theta=0.04, sigma=0.424, r=0.02)
    bad = [{key: value} for key in base for value in (math.nan, math.inf)] \
        + [{key: value} for key in ("kappa", "theta", "sigma")
           for value in (0.0, -1.0)] + [{"z": -0.01}]
    for change in bad:
        with pytest.raises(DomainError):
            price_vix_heston_strike_batch([20.0], TAU0, **{**base, **change})


def _vix_modes(params, state):
    """The one density pass's four uses as strike-grid pricers at TAU0:
    corrected, uncorrected, the benchmark and step 1's jets."""
    w = vix_weights(params.kappa, params.epsilon)
    return {
        "corrected": lambda ks, tau=TAU0: price_vix_strike_batch(
            ks, tau, state, params),
        "uncorrected": lambda ks, tau=TAU0: price_vix_strike_batch(
            ks, tau, state, params, include_correction=False),
        "benchmark": lambda ks, tau=TAU0: price_vix_heston_strike_batch(
            ks, tau, state.z, 3.43, 0.04, 0.424, 0.02),
        "jets": lambda ks, tau=TAU0: mssv.vix.vix_call_pass(
            ks, tau, state.z, params.kappa, params.theta, params.sigma,
            params.r, w.a2_star, (1.0 + w.a4_star) * params.theta,
            QuadratureConfig(), *_correction_coeffs(state, TAU0, params, w),
            jets=True)}


def test_empty_grid_is_checked_then_priced_empty(params, state_high_y):
    for mode, price in _vix_modes(params, state_high_y).items():
        assert list(price([])) == [], mode
        for tau in (-1.0, 0.0, math.nan):
            with pytest.raises(DomainError):
                price([], tau)


def test_a_pass_integrates_only_the_rows_it_uses(monkeypatch, params,
                                                 state_high_y):
    passes, integrate = [], mssv.vix._integrate_payoff

    def spy(integrand, *args, **kwargs):
        heights = set()
        passes.append(heights)

        def rows(zeta):
            out = integrand(zeta)
            heights.add(out.shape[0])
            return out
        return integrate(rows, *args, **kwargs)

    monkeypatch.setattr(mssv.vix, "_integrate_payoff", spy)
    # strike-free rows: h p and p, N p with the correction, and with jets
    # those against p, p_dof and p_lam plus D p, R p, D v p and R v p
    rows = {"corrected": 3, "uncorrected": 2, "benchmark": 2, "jets": 13}
    for strikes in ([0.0, 15.0, 20.0, 25.0, 35.0], [20.0]):
        for mode, price in _vix_modes(params, state_high_y).items():
            passes.clear()
            price(strikes)
            assert passes == [{rows[mode]}], mode


@pytest.mark.parametrize("sigma", [FITTED["sigma"], 0.8])  # dof 2.5, 0.47
def test_jets_price_column_is_the_plain_pass_total(sigma):
    params = ModelParams(**{**FITTED, "sigma": sigma})
    quad = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)
    w = vix_weights(params.kappa, params.epsilon)
    strikes = [0.0, 12.0, 16.0, 20.0, 24.0, 30.0]
    for state in (HiddenState(y=0.0234, z=0.0194), HiddenState(y=0.0, z=0.02),
                  HiddenState(y=0.03, z=0.0)):
        for tau in (7 / 365, 30 / 365, 60 / 365):
            plain = price_vix_strike_batch(strikes, tau, state, params, quad)
            jets = mssv.vix.vix_call_pass(
                strikes, tau, state.z, params.kappa, params.theta,
                params.sigma, params.r, w.a2_star,
                (1.0 + w.a4_star) * params.theta, quad,
                *_correction_coeffs(state, tau, params, w), jets=True)
            assert np.abs(jets[:, 0] - [d.total for d in plain]).max() \
                <= 5e-11, (state, tau)


@pytest.mark.parametrize("sigma", [FITTED["sigma"], 0.8])  # dof 2.5, 0.47
def test_jets_price_column_adds_as_the_plain_total(monkeypatch, sigma):
    # the two passes may split panels differently (the jets' derivative
    # rows have errors of their own), so the jets pass here takes the
    # plain pass's leading and correction sums; from the same sums its
    # price column is disc lead + disc corr, PriceDecomposition.total,
    # bit for bit, on four states (s = 0 and s = 1 among them)
    params = ModelParams(**{**FITTED, "sigma": sigma})
    w = vix_weights(params.kappa, params.epsilon)
    strikes = [0.0, 5.0, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0, 30.0]
    integrate, plain_sums = mssv.vix._integrate_payoff, []

    def shared(*args, **kwargs):
        vals = integrate(*args, **kwargs)
        if plain_sums:
            sums = plain_sums.pop()
            vals[:len(sums)] = sums
        else:
            plain_sums.append(vals.copy())
        return vals

    monkeypatch.setattr(mssv.vix, "_integrate_payoff", shared)
    for state in (HiddenState(y=0.0234, z=0.0194),
                  HiddenState(y=0.0110, z=0.0203), HiddenState(y=0.0, z=0.02),
                  HiddenState(y=0.03, z=0.0)):
        for tau in (7 / 365, TAU0, 60 / 365, 91 / 365):
            plain = price_vix_strike_batch(strikes, tau, state, params)
            jets = mssv.vix.vix_call_pass(
                strikes, tau, state.z, params.kappa, params.theta,
                params.sigma, params.r, w.a2_star,
                (1.0 + w.a4_star) * params.theta, QuadratureConfig(),
                *_correction_coeffs(state, tau, params, w), jets=True)
            assert not plain_sums
            assert np.array_equal(jets[:, 0], [d.total for d in plain]), (
                state, tau)


def _values(out):
    """A pass's prices as an array: (leading, correction) pairs, the
    benchmark's calls or the jets' rows."""
    if len(out) and hasattr(out[0], "leading"):
        return np.array([(d.leading, d.correction) for d in out])
    return np.asarray(out, dtype=float)


@pytest.mark.parametrize("sigma", [FITTED["sigma"], 0.8])  # dof 2.5, 0.47
def test_passes_match_the_per_strike_reference(monkeypatch, sigma):
    # parameters with dof 2.5 and 0.47, four states (z = 0 and y = 0 among
    # them), 7 to 91 days, K = 0 to 30: the per-strike rows, gated node by
    # node, through the same quadrature give every value to rounding
    params = ModelParams(**{**FITTED, "sigma": sigma})
    strikes = [0.0, 5.0, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0, 30.0]
    for state in (HiddenState(y=0.0234, z=0.0194),
                  HiddenState(y=0.0110, z=0.0203), HiddenState(y=0.0, z=0.02),
                  HiddenState(y=0.03, z=0.0)):
        for tau in (7 / 365, TAU0, 60 / 365, 91 / 365):
            for mode, price in _vix_modes(params, state).items():
                got = _values(price(strikes, tau))
                with monkeypatch.context() as patch:
                    patch.setattr(mssv.vix, "vix_call_pass",
                                  per_strike_call_pass)
                    ref = _values(price(strikes, tau))
                tol = (1e-12 * np.maximum(np.abs(ref), 1.0) if mode == "jets"
                       else 1e-15 + 1e-13 * np.abs(ref))
                assert np.all(np.abs(got - ref) <= tol), (mode, state, tau)


def test_a_kink_past_the_core_is_a_tail_panel_edge(monkeypatch):
    # dof 0.47, z = 0, 91 days: the core ends at zeta 39.2 and its first
    # tail [39.2, 78.5] is worth ~1e-8; a strike with its kink at zeta 45
    # is gated from a tail panel's edge, not from the panel around it
    params = ModelParams(**{**FITTED, "sigma": 0.8})
    state, tau = HiddenState(y=0.03, z=0.0), 91 / 365
    w = vix_weights(params.kappa, params.epsilon)
    slope, intercept = w.a2_star, (1.0 + w.a4_star) * params.theta
    ncx2 = Ncx2Params.from_cir(params.kappa, params.theta, params.sigma,
                               state.z, tau)
    deep = 100.0 * math.sqrt(slope * ncx2.delta * 45.0 + intercept)
    cores, tail_doubling = [], mssv.vix.integrate_with_tail_doubling

    def spy(f, a, b, *args, **kwargs):
        cores.append(b)
        return tail_doubling(f, a, b, *args, **kwargs)

    monkeypatch.setattr(mssv.vix, "integrate_with_tail_doubling", spy)
    strikes = [20.0, deep]
    for include_correction in (True, False):
        got = _values(price_vix_strike_batch(strikes, tau, state, params,
                                             include_correction=
                                             include_correction))
        with monkeypatch.context() as patch:
            patch.setattr(mssv.vix, "vix_call_pass", per_strike_call_pass)
            ref = _values(price_vix_strike_batch(strikes, tau, state, params,
                                                 include_correction=
                                                 include_correction))
        assert 39.0 < cores[0] < 45.0
        assert got[1, 0] > 1e-12
        assert np.all(np.abs(got - ref) <= 1e-15 + 1e-13 * np.abs(ref))


def test_a_wide_pass_costs_its_nodes_not_strikes_times_nodes(monkeypatch,
                                                            params,
                                                            state_high_y):
    # the benchmark's 301-strike grid at 30 days: the nodes of the
    # per-strike passes, and no strikes x nodes array (11.3 MB) in memory
    strikes = list(np.linspace(17.0, 35.0, 301))
    nodes, integrate_payoff = [], mssv.vix._integrate_payoff

    def counted(integrand, *args, **kwargs):
        def rows(zeta):
            nodes[-1] += len(zeta)
            return integrand(zeta)
        nodes.append(0)
        return integrate_payoff(rows, *args, **kwargs)

    monkeypatch.setattr(mssv.vix, "_integrate_payoff", counted)
    modes = _vix_modes(params, state_high_y)
    for mode in ("corrected", "uncorrected", "benchmark"):
        modes[mode](strikes)
        block = len(strikes) * nodes[-1] * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            modes[mode](strikes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nodes[-2:] == [4680, 4680], mode
        assert peak < block, (mode, peak, block)


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


def test_expansion_error_against_z_only_price_is_second_order(state_high_y):
    # the analytic total minus the exact-weight price with Y_T := Z_T is
    # the expansion's own error, with no Monte Carlo (eta, nu as in 5b)
    tau, strikes, eps_set = 0.25, [18.0, 20.0, 22.0], (0.04, 0.02, 0.01)
    gaps = []
    for eps in eps_set:
        params = mc_params_from_eta_nu(
            ModelParams(**{**FITTED, "epsilon": eps}), eta=-0.5,
            nu=0.433).params
        totals = [d.total for d in price_vix_strike_batch(
            strikes, tau, state_high_y, params)]
        gaps.append([t - vix_call_z_only(k, tau, state_high_y.z, params)
                     for t, k in zip(totals, strikes)])
    for i, k in enumerate(strikes):
        errs = [abs(g[i]) for g in gaps]
        slope = np.polyfit(np.log(eps_set), np.log(errs), 1)[0]
        assert 1.5 <= slope <= 2.5, (k, errs, slope)


@pytest.mark.parametrize("sigma, kappa, tau, z, tol", [
    pytest.param(sigma, kappa, tau, 0.0194, (1e-8, 1e-10),
                 id=f"{sigma}-{kappa}-{tau}")
    for tau in (7 / 365, TAU0) for sigma, kappa in ((0.8, 3.58), (0.347, 1.0))
] + [pytest.param(1.17, 3.58, 7 / 365, 0.0224, (1e-7, 1e-7),
                  id="dof-0.22-lam-3.3")])
def test_zero_strike_leg_below_dof_2_matches_quadpack(sigma, kappa, tau, z,
                                                      tol):
    # dof 0.47, 0.70 and 0.22: the density is singular at 0, the K = 0
    # leg's lower limit, where the K15 - G7 estimate understates the
    # error; at dof 0.22 the grading needs 364 halvings
    params = ModelParams(**{**FITTED, "sigma": sigma, "kappa": kappa})
    state = HiddenState(y=0.0234, z=z)
    quad = QuadratureConfig(abs_tol=tol[0], rel_tol=tol[1])
    got = price_vix_strike_batch([0.0, 20.0], tau, state, params, quad)
    for d, k in zip(got, (0.0, 20.0)):
        leading, correction = vix_call_quad(k, tau, state, params)
        assert abs(d.leading - leading) <= quad.abs_tol, (k, d, leading)
        assert abs(d.correction - correction) <= quad.abs_tol, (k, d)


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


def test_node_budget_below_breakpoint_panels_raises(params, state_high_y,
                                                    monkeypatch):
    # 50 strikes put 50 kinks into the core integral: 58 panels, 870 nodes
    monkeypatch.setattr(mssv.quadrature, "MAX_NODES", 500)
    strikes = np.linspace(15.0, 30.0, 50)
    with pytest.raises(QuadratureError):
        price_vix_strike_batch(strikes, TAU0, state_high_y, params)


def test_spec_validation():
    with pytest.raises(ValueError):
        VixOptionSpec(strike=-1.0, tau=0.1)
    with pytest.raises(ValueError):
        VixOptionSpec(strike=20.0, tau=0.0)
    with pytest.raises(ValueError):
        Ncx2Params(dof=0.0, lam=1.0, delta=1.0)


@pytest.mark.parametrize("field", ["dof", "lam", "delta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ncx2_params_reject_a_non_finite_field(field, bad):
    # a nan lam would price the central density, an infinite one overflow
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Ncx2Params(**{"dof": 1.0, "lam": 1.0, "delta": 1.0, field: bad})
