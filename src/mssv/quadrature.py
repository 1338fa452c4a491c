"""Adaptive Gauss-Kronrod (G7/K15) quadrature with batched panel evaluation.

The integrand is called once per refinement round on every pending panel's
nodes at once, so vectorized (numpy) integrands run at C speed.  Supports
vector-valued integrands that share nodes: the SPX pricer evaluates the
leading-term and correction-term integrands in a single pass.  Each round's
panel sums are one stacked matmul of the (rows, panels, 15) values with a
(15, 2) matrix whose columns are the K15 and G7 weights.  A gated
integral combines a few strike-free rows per panel: output row i is
coeffs[i] times the rows, on the panels from its kink on, so a strike
grid costs its panels, not strikes x nodes.
"""

from __future__ import annotations

import numpy as np

from .exceptions import QuadratureError

# Kronrod-15 nodes (positive half) and weights; rows marked g7 carry the
# embedded Gauss-7 rule.
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

#: all 15 Kronrod nodes on [-1, 1], ascending
NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
# columns: the K15 weights and the Gauss-7 weights aligned with NODES
# (zeros on the Kronrod-only nodes)
_WEIGHTS_KG = np.zeros((15, 2))
_WEIGHTS_KG[:, 0] = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_KG[1:-1:2, 1] = np.concatenate([_WG[:-1], _WG[::-1]])

NODES_PER_PANEL = 15

#: node budget of one pricing pass, SPX contour and VIX density alike
MAX_NODES = 200_000


def _eval_panels(f, lo, hi, gated=None):
    """Evaluate f on all 15 nodes of each (lo, hi) panel.

    Returns (integral_k, err) with shapes (m, npanels): the Kronrod
    estimate per component and the |K15 - G7| error proxy.  Both sums
    come from one stacked (rows, npanels, 15) @ (15, 2) matmul, one small
    BLAS call per row, so a row's sums do not depend on the other rows
    of the pass.  A single 2-D gemm over every panel is large enough for
    BLAS to spread over threads, so its time depends on a free core.

    gated = (coeffs, kinks), an (m, rows) matrix and m kinks that are
    panel edges: component i is coeffs[i] times f's rows on the panels
    with lo >= kinks[i] and 0 on the others.  The combination is an
    einsum without BLAS, element by element, so a component does not
    depend on the others either.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * NODES[None, :]
    vals = np.asarray(f(pts.ravel()))
    if vals.ndim == 1:
        vals = vals[None, :]
    vals = vals.reshape(vals.shape[0], len(lo), NODES_PER_PANEL)
    kg = vals @ _WEIGHTS_KG
    # the K15 sums and the K15 - G7 differences, each (rows, npanels)
    sums = np.empty((2, *kg.shape[:2]), dtype=kg.dtype)
    np.multiply(kg[..., 0], half, out=sums[0])
    np.subtract(kg[..., 0], kg[..., 1], out=sums[1])
    sums[1] *= half
    if gated is not None:
        coeffs, kinks = gated
        sums = np.einsum("ir,krp->kip", coeffs, sums)
        np.copyto(sums, 0.0, where=lo < kinks[:, None])
    return sums[0], np.abs(sums[1])


def integrate(f, a: float, b: float, abs_tol: float, rel_tol: float,
              max_nodes: int, initial_panels: int, breakpoints=None,
              gated=None):
    """Adaptively integrate f over [a, b].

    f maps a 1-D array of points to an array of shape (m, npoints) (or
    (npoints,) for scalar integrands).  Returns (integrals, errors,
    nodes_used) where integrals and errors have shape (m,).
    breakpoints (e.g. payoff kinks) become panel edges so each panel
    sees a smooth integrand.  With gated = (coeffs, kinks), the m
    components are gated combinations of f's rows (`_eval_panels`);
    every kink inside (a, b) must be among the breakpoints.

    Raises QuadratureError unless a round meets the tolerance within
    max_nodes nodes; the exception carries the best estimate.
    """
    edges = np.linspace(a, b, initial_panels + 1)
    if breakpoints is not None:
        inner = np.asarray(breakpoints, dtype=float)
        inner = inner[(a < inner) & (inner < b)]
        if len(inner):
            edges = np.unique(np.concatenate([edges, inner]))
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _eval_panels(f, lo, hi, gated)
    nodes = len(lo) * NODES_PER_PANEL

    while True:
        total = vals.sum(axis=1)
        total_err = errs.sum(axis=1)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        if nodes <= max_nodes and np.all(total_err <= tol):
            return total, total_err, nodes
        if nodes >= max_nodes:
            raise QuadratureError(
                f"node budget {max_nodes} exhausted: error "
                f"{total_err.max():.3e} > tolerance {tol.min():.3e}",
                estimate=total, error_estimate=total_err,
            )
        # split every panel whose error exceeds its share of the budget,
        # always at least the single worst one
        panel_err = errs.sum(axis=0)
        share = panel_err.sum() / (2.0 * len(lo))
        split = panel_err >= share
        if not split.any():
            split[np.argmax(panel_err)] = True
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_vals, new_errs = _eval_panels(f, new_lo, new_hi, gated)
        nodes += len(new_lo) * NODES_PER_PANEL
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[:, keep], new_vals], axis=1)
        errs = np.concatenate([errs[:, keep], new_errs], axis=1)


def integrate_with_tail_doubling(f, a: float, b: float, abs_tol: float,
                                 rel_tol: float, tail):
    """Integrate f over [a, inf): the core [a, b] as `integrate` does from
    4 panels, then 4-panel tails [b, 2b], [2b, 4b], ... of the integrand
    tail on what is left of the MAX_NODES budget, until every component
    of a tail is below abs_tol.  The SPX contour's core integrates the
    real part f of its complex transform, and its tails the transform.

    Used where the integrand decays fast but the safe truncation is not
    known in advance.  Raises QuadratureError when the budget is spent
    or after 6 tails.
    """
    total, err, nodes = integrate(f, a, b, abs_tol, rel_tol, MAX_NODES, 4)
    lo = b
    for _ in range(6):
        if nodes >= MAX_NODES:
            raise QuadratureError(
                f"node budget {MAX_NODES} spent before the tail",
                estimate=total, error_estimate=err)
        part, terr, tn = integrate(tail, lo, 2.0 * lo, abs_tol, rel_tol,
                                   MAX_NODES - nodes, 4)
        nodes += tn
        total = total + part
        err = err + terr
        if np.all(np.abs(part) < abs_tol):
            return total, err, nodes
        lo *= 2.0
    raise QuadratureError(f"tail not under abs_tol after 6 doublings "
                          f"(upper limit {lo})",
                          estimate=total, error_estimate=err)
