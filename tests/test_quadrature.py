"""Quadrature driver tests against closed-form integrals."""

import math

import numpy as np
import pytest

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
