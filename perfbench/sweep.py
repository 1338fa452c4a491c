"""Scaling sweep: which layer grows with the number of dates and strikes.

Not a gated workload.  Run from the repository root:

    python3 perfbench/sweep.py [--repeats 3]

It times one two-factor step-1 calibration objective evaluation on 6,
24 and 96 synthetic dates, and one strike-batch pass per underlying at
5, 50 and 500 strikes, each the median of --repeats evaluations, and
records the per-layer counts of one evaluation under the tracer.  The
table goes to stdout and perfbench/out/sweep.json.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
COUNTS = ("vix.density_passes", "vix.nodes_per_pass", "vix.ncx2_points",
          "spx.contour_passes", "spx.nodes_per_pass", "quadrature.calls",
          "quadrature.rounds", "quadrature.nodes", "calibration.inner_evals",
          "model.vix_weights_calls")


def _timed(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _counted(fn):
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_round()
        fn()
        counts = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    return {k: counts[k] for k in COUNTS if counts[k]}


def _slices(n_dates, params, quad):
    from mssv.data import make_synthetic_quotes, to_date_slices
    from mssv.model import HiddenState
    rng = np.random.default_rng(1)
    start = dt.date(2016, 1, 5)
    states = []
    for i in range(n_dates):
        y = params.theta * float(np.exp(0.5 * rng.standard_normal()))
        z = params.theta * float(np.exp(0.5 * rng.standard_normal()))
        states.append(((start + dt.timedelta(days=7 * i)).isoformat(),
                       HiddenState(y=y, z=z)))
    return to_date_slices(make_synthetic_quotes(params, states, quad=quad))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    from run import _import_package
    _import_package()
    import mssv.calibration
    import mssv.spx
    import mssv.vix
    from mssv.model import HiddenState, ModelParams, QuadratureConfig
    import workloads

    params = ModelParams(**workloads.FITTED)
    quad = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    start = (3.0, 0.03, 0.4, 0.02)  # the CLI's default step-1 start
    rows = []
    for n_dates in (6, 24, 96):
        slices = _slices(n_dates, params, quad)
        fun = mssv.calibration._msv_step1_objective(slices, params.r, 0.1,
                                                    quad, 1e-6)
        rows.append({"case": f"step1 eval, {n_dates} dates",
                     "seconds": _timed(lambda: fun(start), args.repeats),
                     **_counted(lambda: fun(start))})

    state = HiddenState(*workloads.STATE)
    for n in (5, 50, 500):
        ks = list(np.linspace(17.0, 35.0, n))
        call = lambda: mssv.vix.price_vix_strike_batch(ks, workloads.TAU0,  # noqa: E731
                                                       state, params)
        rows.append({"case": f"VIX pass, {n} strikes",
                     "seconds": _timed(call, args.repeats), **_counted(call)})
    for n in (5, 50, 500):
        ks = list(np.linspace(1700.0, 2200.0, n))
        call = lambda: mssv.spx.price_spx_strike_batch(  # noqa: E731
            workloads.X0, ks, 0.25, state, params)
        rows.append({"case": f"SPX pass, {n} strikes",
                     "seconds": _timed(call, args.repeats), **_counted(call)})

    for row in rows:
        extras = ", ".join(f"{k} {v:.6g}" for k, v in row.items()
                           if k not in ("case", "seconds"))
        print(f"{row['case']:<26} {row['seconds']:.4g} s   {extras}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "sweep.json", "w") as fh:
        json.dump(rows, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
