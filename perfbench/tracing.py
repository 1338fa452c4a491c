"""Per-layer tracing from outside the package.

`Tracer.install()` replaces module-level names in `mssv` with wrappers
that open a frame on entry and close it on exit; `uninstall()` puts the
originals back.  Nothing under `src/` changes: every wrapped name is a
public function of a layer, or a module-level name a layer calls through
(for example `mssv.vix.integrate`, which the VIX pricer looks up at call
time).

A frame's self time is its duration minus the time of the frames opened
inside it, so the self times of all layers add up to the traced time.
Counts are kept per round.  Coarse frames (CLI steps, calibration runs,
objective evaluations, pricing passes, Monte Carlo simulations) are kept
as spans in memory and written out when the run ends; the quadrature
calls and integrand rounds inside a pass are too many to keep one by
one, so they only add to their layer's counts and self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import mssv.calibration
import mssv.cli
import mssv.mc
import mssv.model
import mssv.quadrature
import mssv.spx
import mssv.vix

LAYERS = ("quadrature", "spx", "vix", "calibration", "model", "mc",
          "impvol", "data")

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("quadrature.calls", "count"),
    ("quadrature.rounds", "count"),
    ("quadrature.nodes", "count"),
    ("quadrature.self_s", "s"),
    ("spx.contour_passes", "count"),
    ("spx.nodes_per_pass", "nodes/pass"),
    ("spx.tail_doublings", "count"),
    ("spx.strikes_per_pass", "strikes/pass"),
    ("spx.busy_s", "s"),
    ("vix.density_passes", "count"),
    ("vix.nodes_per_pass", "nodes/pass"),
    ("vix.strikes_per_pass", "strikes/pass"),
    ("vix.ncx2_points", "count"),
    ("vix.busy_s", "s"),
    ("calibration.step1_evals", "count"),
    ("calibration.step2_evals", "count"),
    ("calibration.nm_iterations", "count"),
    ("calibration.nm_converged_restarts", "count"),
    ("calibration.inner_fits", "count"),
    ("calibration.inner_evals", "count"),
    ("calibration.step1_eval_s", "s"),
    ("calibration.density_passes_per_step1_eval", "passes/eval"),
    ("calibration.skipped_dates", "count"),
    ("model.vix_weights_calls", "count"),
    ("mc.path_steps", "count"),
    ("mc.chunks", "count"),
    ("mc.simulate_s", "s"),
    ("mc.payoff_s", "s"),
    ("impvol.inversions", "count"),
    ("impvol.busy_s", "s"),
    ("data.rows_loaded", "count"),
    ("data.rows_filtered", "count"),
    ("data.load_s", "s"),
)


class _Frame:
    __slots__ = ("layer", "name", "start", "child", "span_id")

    def __init__(self, layer, name, start, span_id):
        self.layer = layer
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Frames, counters and spans of one benchmark run (single thread)."""

    def __init__(self):
        self.spans = []          # (id, parent id, layer, name, start, end, round)
        self.rounds = []         # per-round counter dicts
        self._stack = []
        self._patches = []
        self._round = -1
        self.counts = defaultdict(float)
        self.self_time = defaultdict(float)

    # -- frames -------------------------------------------------------------

    def enter(self, layer, name, keep=True):
        span_id = len(self.spans) if keep else -1
        if keep:
            self.spans.append(None)  # filled on exit
        frame = _Frame(layer, name, time.perf_counter(), span_id)
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        self.self_time[frame.layer] += dur - frame.child
        if self._stack:
            self._stack[-1].child += dur
        if frame.span_id >= 0:
            parent = next((f.span_id for f in reversed(self._stack)
                           if f.span_id >= 0), -1)
            self.spans[frame.span_id] = (frame.span_id, parent, frame.layer,
                                         frame.name, frame.start, end,
                                         self._round)
        return dur

    @contextlib.contextmanager
    def span(self, layer, name):
        """A frame opened by the benchmark itself."""
        frame = self.enter(layer, name)
        try:
            yield
        finally:
            self.exit(frame)

    def _inside(self, layers):
        for f in reversed(self._stack):
            if f.layer in layers:
                return f.layer
        return None

    def _in_frame(self, name):
        return any(f.name == name for f in self._stack)

    # -- rounds -------------------------------------------------------------

    def begin_round(self):
        self._round += 1
        self.counts = defaultdict(float)
        self.self_time = defaultdict(float)

    def end_round(self):
        self.rounds.append(self.layer_metrics())

    def layer_metrics(self) -> dict:
        c, t = self.counts, self.self_time

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        return {
            "quadrature.calls": c["quad_calls"],
            "quadrature.rounds": c["quad_rounds"],
            "quadrature.nodes": c["quad_nodes"],
            "quadrature.self_s": t["quadrature"],
            "spx.contour_passes": c["spx_passes"],
            "spx.nodes_per_pass": ratio("spx_nodes", "spx_passes"),
            "spx.tail_doublings": c["spx_doublings"],
            "spx.strikes_per_pass": ratio("spx_strikes", "spx_passes"),
            "spx.busy_s": t["spx"],
            "vix.density_passes": c["vix_passes"],
            "vix.nodes_per_pass": ratio("vix_nodes", "vix_passes"),
            "vix.strikes_per_pass": ratio("vix_strikes", "vix_passes"),
            "vix.ncx2_points": c["ncx2_points"],
            "vix.busy_s": t["vix"],
            "calibration.step1_evals": c["step1_evals"],
            "calibration.step2_evals": c["step2_evals"],
            "calibration.nm_iterations": c["nm_iterations"],
            "calibration.nm_converged_restarts": c["nm_converged"],
            "calibration.inner_fits": c["inner_fits"],
            "calibration.inner_evals": c["inner_evals"],
            "calibration.step1_eval_s": (c["step1_time"] / c["step1_evals"]
                                         if c["step1_evals"] else 0.0),
            "calibration.density_passes_per_step1_eval":
                ratio("step1_passes", "step1_evals"),
            "calibration.skipped_dates": c["skipped_dates"],
            "model.vix_weights_calls": c["vix_weights_calls"],
            "mc.path_steps": c["path_steps"],
            "mc.chunks": c["mc_chunks"],
            "mc.simulate_s": c["simulate_time"],
            "mc.payoff_s": t["mc.price"],
            "impvol.inversions": c["inversions"],
            "impvol.busy_s": t["impvol"],
            "data.rows_loaded": c["rows_loaded"],
            "data.rows_filtered": c["rows_filtered"],
            "data.load_s": c["load_time"],
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "layer", "name", "start",
                                   "end", "round"],
                       "spans": [s for s in self.spans if s is not None],
                       "rounds": self.rounds}, fh)

    # -- instrumentation ----------------------------------------------------

    def _patch(self, module, name, make):
        original = getattr(module, name)
        self._patches.append((module, name, original))
        setattr(module, name, functools.wraps(original)(make(original)))

    def _framed(self, module, name, layer, keep=True, before=None,
                after=None):
        """Wrap module.name in a frame; before(args, kwargs) runs on entry
        and after(result, args, duration) on a normal exit."""
        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                frame = self.enter(layer, name, keep)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = self.exit(frame)
                if after is not None:
                    after(result, args, dur)
                return result
            return wrapper

        self._patch(module, name, make)

    def _counted(self, module, name, key, amount=lambda args: 1):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[key] += amount(args)
                return fn(*args, **kwargs)
            return wrapper

        self._patch(module, name, make)

    def _add(self, key, amount=1):
        self.counts[key] += amount

    def install(self):
        self._install_quadrature()
        self._install_pricers()
        self._install_calibration()
        for module in (mssv.model, mssv.vix, mssv.calibration, mssv.mc):
            self._counted(module, "vix_weights", "vix_weights_calls")
        self._install_mc()
        self._install_cli_layers()

    def uninstall(self):
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def _install_quadrature(self):
        def make_integrate(fn):
            def integrate(f, *args, **kwargs):
                owner = self._inside(("spx", "vix")) or "quadrature"

                def counted(points):
                    self._add("quad_rounds")
                    self._add("quad_nodes", len(points))
                    self._add(f"{owner}_nodes", len(points))
                    frame = self.enter(owner, "integrand", keep=False)
                    try:
                        return f(points)
                    finally:
                        self.exit(frame)

                self._add("quad_calls")
                frame = self.enter("quadrature", "integrate", keep=False)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    self.exit(frame)
            return integrate

        # integrate_with_tail_doubling and the VIX pricer both look the
        # name up at call time
        self._patch(mssv.quadrature, "integrate", make_integrate)
        self._patch(mssv.vix, "integrate", make_integrate)

        def make_tail(fn):
            def tail_doubling(*args, **kwargs):
                before = self.counts["quad_calls"]
                frame = self.enter("quadrature", "tail_doubling", keep=False)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.exit(frame)
                    # one integrate call for the core, two per doubling
                    self._add("spx_doublings",
                              (self.counts["quad_calls"] - before - 1) // 2)
            return tail_doubling

        self._patch(mssv.spx, "integrate_with_tail_doubling", make_tail)

    def _install_pricers(self):
        def spx_pass(args, kwargs):
            self._add("spx_passes")
            self._add("spx_strikes", len(args[1]))

        self._framed(mssv.spx, "_fourier_call_batch", "spx", before=spx_pass)

        def vix_pass(args, kwargs):
            # _integrate_payoff(rows, ncx2, vstar, quad, kinks): one kink
            # per strike of the batch
            kinks = kwargs["kinks"] if "kinks" in kwargs else args[4]
            self._add("vix_passes")
            self._add("vix_strikes", len(kinks))
            if self._in_frame("step1_eval"):
                self._add("step1_passes")

        self._framed(mssv.vix, "_integrate_payoff", "vix", before=vix_pass)
        self._counted(mssv.vix, "ncx2_pdf", "ncx2_points",
                      lambda args: len(args[0]))

    def _install_calibration(self):
        def wrap_objective(factory, step):
            def make(fn):
                def build(*args, **kwargs):
                    fun = fn(*args, **kwargs)

                    def objective(x):
                        frame = self.enter("calibration", f"{step}_eval")
                        try:
                            return fun(x)
                        finally:
                            self._add(f"{step}_time", self.exit(frame))
                            self._add(f"{step}_evals")
                    return objective
                return build
            self._patch(mssv.calibration, factory, make)

        for model in ("heston", "msv"):
            wrap_objective(f"_{model}_step1_objective", "step1")
            wrap_objective(f"_{model}_step2_objective", "step2")

        def nm_done(res, args, dur):
            self._add("nm_iterations", res.nit)
            self._add("nm_converged", int(res.success))

        self._framed(mssv.calibration, "minimize", "calibration", keep=False,
                     after=nm_done)
        self._framed(mssv.calibration, "minimize_scalar", "calibration",
                     keep=False,
                     after=lambda res, a, d: self._add("inner_evals", res.nfev))
        self._framed(mssv.calibration, "inner_state_fit", "calibration",
                     keep=False, before=lambda a, k: self._add("inner_fits"))
        for name in ("calibrate_heston", "calibrate_msv"):
            self._framed(mssv.cli, name, "calibration",
                         after=lambda res, a, d: self._add(
                             "skipped_dates", res.n_skipped_dates))

    def _install_mc(self):
        def chunk(args, kwargs):
            self._add("mc_chunks")
            self._add("path_steps", args[1] * args[7])  # n paths x n_steps

        self._framed(mssv.mc, "_sim_exact", "mc", keep=False, before=chunk)
        self._framed(mssv.mc, "_simulate", "mc",
                     after=lambda res, a, d: self._add("simulate_time", d))
        # a pricing frame's self time is its payoff evaluation
        for name in ("mc_price_spx_strikes", "mc_price_vix_strikes"):
            self._framed(mssv.cli, name, "mc.price")

    def _install_cli_layers(self):
        for name in ("bs_implied_vol", "vix_normal_implied_vol"):
            self._framed(mssv.cli, name, "impvol", keep=False,
                         before=lambda a, k: self._add("inversions"))
        self._framed(mssv.cli, "write_surface_csv", "impvol")

        def loaded(res, args, dur):
            quotes, rejects = res
            self._add("rows_loaded", len(quotes) + len(rejects))
            self._add("load_time", dur)

        def filtered(res, args, dur):
            self._add("rows_filtered", len(args[0]) - res[1].kept)
            self._add("load_time", dur)

        self._framed(mssv.cli, "load_quotes", "data", after=loaded)
        self._framed(mssv.cli, "apply_filters", "data", after=filtered)
        self._framed(mssv.cli, "to_date_slices", "data",
                     after=lambda res, a, d: self._add("load_time", d))
        for name in ("make_synthetic_quotes", "write_quotes_csv",
                     "error_report", "write_error_table_csv"):
            self._framed(mssv.cli, name, "data")
