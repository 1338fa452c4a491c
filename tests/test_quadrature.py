"""Quadrature driver tests against closed-form integrals."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mssv
from mssv import quadrature
from mssv.exceptions import QuadratureError
from mssv.quadrature import integrate, integrate_with_tail_doubling

#: the node budget and starting panels of one adaptive pass, both
#: required: each pricer's pass sets its own
BUDGET = {"max_nodes": 100_000, "initial_panels": 8}


def test_polynomial_exact():
    val, err, _ = integrate(lambda x: x**6, 0.0, 2.0, abs_tol=1e-10,
                            rel_tol=1e-10, **BUDGET)
    assert val[0] == pytest.approx(2.0**7 / 7.0, rel=1e-14)


def test_gaussian():
    val, _, _ = integrate(lambda x: np.exp(-x * x), -8.0, 8.0,
                          abs_tol=1e-12, rel_tol=1e-12, **BUDGET)
    assert val[0] == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_oscillatory_complex():
    # int_0^1 e^{i w x} dx = (e^{i w} - 1)/(i w)
    w = 37.0
    val, _, _ = integrate(lambda x: np.exp(1j * w * x), 0.0, 1.0,
                          abs_tol=1e-12, rel_tol=1e-12, **BUDGET)
    exact = (np.exp(1j * w) - 1.0) / (1j * w)
    assert abs(val[0] - exact) < 1e-12


def test_vector_integrand_shared_nodes():
    calls = {"n": 0}

    def f(x):
        calls["n"] += len(x)
        return np.stack([np.sin(x), np.cos(x)])

    val, _, _ = integrate(f, 0.0, math.pi / 2, abs_tol=1e-12, rel_tol=1e-12,
                          **BUDGET)
    assert val[0] == pytest.approx(1.0, rel=1e-12)
    assert val[1] == pytest.approx(1.0, rel=1e-12)
    # one pass evaluates both components on the same nodes
    assert calls["n"] <= 2000


def test_kink_needs_subdivision():
    val, _, nodes = integrate(lambda x: np.abs(x - 0.3), 0.0, 1.0,
                              abs_tol=1e-10, rel_tol=1e-10, **BUDGET)
    exact = 0.3**2 / 2 + 0.7**2 / 2
    assert val[0] == pytest.approx(exact, rel=1e-9)
    assert nodes > 8 * 15  # initial panels alone cannot resolve the kink


def test_budget_exhaustion_carries_estimate():
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0,
                  abs_tol=1e-15, rel_tol=1e-15, max_nodes=300,
                  initial_panels=8)
    est = exc.value.estimate
    assert est is not None and est[0] == pytest.approx(4.0 / 3.0, rel=1e-3)


def test_tail_doubling_gaussian():
    val, _, _ = integrate_with_tail_doubling(
        lambda x: np.exp(-0.5 * x * x), 0.0, 2.0, abs_tol=1e-10,
        rel_tol=1e-10)
    assert val[0] == pytest.approx(math.sqrt(2 * math.pi) / 2, rel=1e-9)


def test_tail_doubling_gives_up_on_fat_tails():
    # the tails of 1/(1 + x^2) shrink only like 1/b: six doublings of
    # [0, 1] leave the last above abs_tol with budget to spare
    with pytest.raises(QuadratureError, match="after 6 doublings"):
        integrate_with_tail_doubling(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0,
                                     abs_tol=1e-12, rel_tol=1e-10)


def test_node_count_includes_breakpoint_panels():
    seen = {"n": 0}

    def f(x):
        seen["n"] += len(x)
        return np.abs(x - 0.3)

    _, _, nodes = integrate(f, 0.0, 1.0, abs_tol=1e-12, rel_tol=1e-12,
                            breakpoints=np.linspace(0.01, 0.99, 50),
                            **BUDGET)
    assert nodes == seen["n"]
    assert nodes >= (8 + 50) * 15


def test_weight_columns_are_k15_and_embedded_g7():
    # the G7 column is Gauss-Legendre 7 on the odd nodes, zero elsewhere;
    # each column integrates 1 over [-1, 1] to 2
    nodes, weights = np.polynomial.legendre.leggauss(7)
    kg = quadrature._WEIGHTS_KG
    np.testing.assert_allclose(quadrature.NODES[1::2], nodes, atol=1e-14)
    np.testing.assert_allclose(kg[1::2, 1], weights, atol=1e-14)
    assert not kg[0::2, 1].any()
    np.testing.assert_allclose(kg.sum(axis=0), [2.0, 2.0], rtol=1e-14)


def _explicit_sums(f, lo, hi):
    """Per-panel loop: half * sum_j w_j f(x_j) for K15 and G7, each sum
    exact to the last bit (math.fsum), with its bound sum_j |w_j f(x_j)|."""
    kg = quadrature._WEIGHTS_KG
    sums, scales = [], []
    for a, b in zip(lo, hi):
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        vals = np.atleast_2d(f(mid + half * quadrature.NODES))
        terms = vals[:, :, None] * kg[None, :, :]  # rows x nodes x (K, G)
        exact = np.array([[complex(math.fsum(t.real), math.fsum(t.imag))
                           for t in row.T] for row in terms])
        sums.append(half * exact)
        scales.append(abs(half) * np.abs(terms).sum(axis=1))
    # rows x panels x (K, G)
    return np.stack(sums, axis=1), np.stack(scales, axis=1)


def _contour_rows(u):
    # the SPX contour's shape: one complex payoff-transform row per strike
    k = u + 1.5j
    log_ks = np.log([1800.0, 2000.0, 2200.0])
    return np.exp(-0.02 * k * k + 1j * k * np.log(2000.0)
                  - (1.0 + 1j * k) * log_ks[:, None]) / (1j * k - k * k)


@pytest.mark.parametrize("f, rows", [
    (lambda x: np.exp(-x * x), 1),
    (lambda x: np.stack([np.sin(3.0 * x), np.cos(x) / (1.0 + x * x)]), 2),
    (_contour_rows, 3),
])
def test_eval_panels_matches_explicit_sums(f, rows):
    lo = np.linspace(-2.0, 3.0, 12)[:-1]
    hi = lo + np.linspace(0.1, 0.6, 11)
    i_k, err = quadrature._eval_panels(f, lo, hi)
    assert i_k.shape == err.shape == (rows, len(lo))
    sums, scales = _explicit_sums(f, lo, hi)
    bound = 4 * 2.2e-16 * scales
    assert np.all(np.abs(i_k - sums[..., 0]) <= bound[..., 0])
    # |K - G| differs from the exact difference by at most both rounding
    # errors
    exact_err = np.abs(sums[..., 0] - sums[..., 1])
    assert np.all(np.abs(err - exact_err) <= bound.sum(axis=-1))
    if rows == 3:
        assert np.iscomplexobj(i_k)


def test_row_sums_do_not_depend_on_the_other_rows():
    # a jets pass carries each strike's price row beside its derivative
    # rows; the price row's sums must be those of the row alone
    lo = np.linspace(0.0, 4.0, 31)[:-1]
    hi = lo + 4.0 / 30

    def rows(x):
        return np.exp(-x * x)[None, :] * np.arange(1.0, 10.0)[:, None]

    alone = quadrature._eval_panels(lambda x: rows(x)[:1], lo, hi)
    beside = quadrature._eval_panels(rows, lo, hi)
    for a, b in zip(alone, beside):
        assert np.array_equal(a[0], b[0])


def _gated_rows(x):
    # two strike-free rows, e^-x and x e^-x
    return np.stack([np.exp(-x), x * np.exp(-x)])


def test_gated_components_combine_rows_from_their_kinks():
    # component i is coeffs[i] . rows from kinks[i] on; the kinks are
    # breakpoints, one inside, one below and one past [0, 5]
    coeffs = np.array([[1.0, -0.5], [0.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
    kinks = np.array([0.7, 2.3, -1.0, 6.0])
    vals, err, _ = integrate(_gated_rows, 0.0, 5.0, abs_tol=1e-12,
                             rel_tol=1e-12, max_nodes=100_000,
                             initial_panels=4, breakpoints=kinks,
                             gated=(coeffs, kinks))

    def exact(a, c0, c1):  # int_a^5 (c0 + c1 x) e^-x dx
        if a >= 5.0:
            return 0.0
        a = max(a, 0.0)
        return (c0 * (math.exp(-a) - math.exp(-5.0))
                + c1 * ((a + 1.0) * math.exp(-a) - 6.0 * math.exp(-5.0)))

    ref = [exact(k, *c) for k, c in zip(kinks, coeffs)]
    np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=1e-14)
    assert vals[3] == 0.0 and err[3] == 0.0


def test_gated_sums_do_not_depend_on_the_other_components():
    # a component's panel sums and errors are its own, as a row's are
    lo = np.linspace(0.0, 4.0, 31)[:-1]
    hi = lo + 4.0 / 30
    coeffs = np.array([[1.0, -3.0], [0.5, 2.0], [0.0, 1.0], [4.0, -1.0]])
    kinks = np.array([1.2, 0.0, 2.0, 3.6])
    alone = quadrature._eval_panels(_gated_rows, lo, hi,
                                    (coeffs[:1], kinks[:1]))
    beside = quadrature._eval_panels(_gated_rows, lo, hi, (coeffs, kinks))
    for a, b in zip(alone, beside):
        assert np.array_equal(a[0], b[0])
    # the gate: nothing left of the kink, the combined rows right of it
    plain = quadrature._eval_panels(_gated_rows, lo, hi)
    right = lo >= kinks[0]
    assert not beside[0][0, ~right].any() and not beside[1][0, ~right].any()
    np.testing.assert_allclose(beside[0][0, right],
                               (coeffs[0] @ plain[0])[right], rtol=1e-13)


def test_panel_sums_add_under_half_a_block_of_memory():
    # 602 rows (a 301-strike corrected VIX pass) on 300 panels: the
    # integrand's own output block is the one large allocation, and the
    # K15/G7 sums must not copy it
    freqs = np.arange(1.0, 603.0)
    block = {}

    def f(x):
        out = np.multiply(freqs[:, None], x[None, :],
                          out=np.empty((len(freqs), len(x))))
        block.setdefault("bytes", out.nbytes)
        return np.cos(out, out=out)

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        integrate(f, 0.0, 1.0, abs_tol=1e-8, rel_tol=1e-8,
                  max_nodes=100_000, initial_panels=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block["bytes"] == 602 * 300 * 15 * 8
    assert peak <= 1.5 * block["bytes"]


_PRICE_SCRIPT = """
import numpy as np
from mssv import HiddenState, ModelParams, QuadratureConfig
from mssv.model import vix_weights
from mssv.spx import price_spx_strike_batch
from mssv.vix import price_vix_strike_batch, vix_call_pass
params = ModelParams(kappa=3.58, theta=0.021, sigma=0.347, rho=-1.0,
                     epsilon=0.0096, w3_eps=0.0150, r=0.02)
state = HiddenState(y=0.0234, z=0.0194)
quad = QuadratureConfig()
vix = price_vix_strike_batch(list(np.linspace(17.0, 35.0, 301)), 0.16,
                             state, params, quad)
spx = price_spx_strike_batch(2000.0, list(np.linspace(1700.0, 2200.0, 301)),
                             0.25, state, params, quad)
w = vix_weights(params.kappa, params.epsilon)
jets = vix_call_pass([0.0, 18.0, 20.0, 22.5], 30 / 365, state.z,
                     params.kappa, params.theta, params.sigma, params.r,
                     w.a2_star, (1.0 + w.a4_star) * params.theta, quad,
                     1e-3, 0.05, jets=True)
print(repr([(p.leading, p.correction) for p in vix + spx]))
print(repr(jets.tolist()))
"""


def test_prices_do_not_depend_on_the_blas_thread_count():
    src = str(Path(mssv.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _PRICE_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 2 and "nan" not in outs[0]
