"""Benchmark of the mssv pricer and calibrator.

Run from the repository root:

    python3 perfbench/run.py --workload study|surface|mc-validate \
        --seed N --seconds S --trace 0|1

It imports the package from ./src, sets up (median of three fresh
set-up processes), then runs whole rounds of the workload until S
seconds have passed, checks what the first round produced against
references computed apart from the program, requires every later round
to reproduce it exactly, and prints one JSON object as its last line.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
rounds run under the tracer and the metrics are the per-layer ones.
Outputs, the result and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("study", "surface", "mc-validate")


def _import_package():
    src = Path.cwd() / "src"
    if not (src / "mssv" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src}/mssv not found; run from the "
                 "repository root")
    sys.path.insert(0, str(src))
    import mssv
    if Path(mssv.__file__).resolve().parent != (src / "mssv").resolve():
        sys.exit(f"perfbench: imported mssv from {mssv.__file__}, "
                 f"not from {src}")


def _setup(workload, seed, outdir):
    """Imports, inputs and warm-up: everything before the first timed call."""
    import workloads
    wl = workloads.WORKLOADS[workload](seed, outdir)
    workloads.warm_up()
    return wl


def _measure_setup(args) -> float:
    """Median wall time of fresh processes that only set up."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
    return statistics.median(times)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image.  VmHWM belongs to the
    image, while ru_maxrss keeps the parent's peak across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_layer(tracer, fails):
    """Counts from the first round (every round must repeat them) and
    median times over rounds."""
    import tracing
    first = tracer.rounds[0]
    for i, later in enumerate(tracer.rounds[1:], start=2):
        for name, unit in tracing.PER_LAYER:
            if unit != "s" and later[name] != first[name]:
                fails.append(f"count {name} differs in round {i}: "
                             f"{later[name]} vs {first[name]}")
    out = {}
    for name, unit in tracing.PER_LAYER:
        if unit == "s":
            value = statistics.median(r[name] for r in tracer.rounds)
        elif unit == "count":
            value = int(first[name])
        else:
            value = first[name]
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        _setup(args.workload, args.seed, outdir)
        return 0

    setup_s = _measure_setup(args)
    wl = _setup(args.workload, args.seed, outdir)
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            rnd = workloads.Round(tracer)
            if tracer:
                tracer.begin_round()
            wl.run_round(rnd)
            if tracer:
                tracer.end_round()
            rounds.append(rnd)
            if (time.perf_counter() - start >= args.seconds
                    and len(rounds) >= getattr(wl, "MIN_ROUNDS", 1)):
                break
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = _peak_rss_mb()

    first = rounds[0].outputs
    try:
        fails = wl.check(first)
    except Exception:  # output the checks cannot read is wrong output
        fails = [f"checks could not read the output:\n{traceback.format_exc()}"]
    for i, rnd in enumerate(rounds[1:], start=2):
        for key in set(first) | set(rnd.outputs):
            if rnd.outputs.get(key) != first.get(key):
                fails.append(f"round {i} output {key} differs from round 1")
    attempted = sum(r.attempted for r in rounds)
    round_s = statistics.median(r.seconds for r in rounds)
    failed = sum(r.failed for r in rounds)

    if tracer:
        metrics = _per_layer(tracer, fails)
        tracer.write(outdir / "trace.json")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "round_s": {"value": round_s, "unit": "s"},
        }
    steps = wl.step_metrics(rounds)

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} "
          f"round(s), {attempted} operations, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:.6g} {m['unit']}")
    for name, (value, unit, better) in steps.items():
        print(f"  {name:<46} {value:.6g} {unit} ({better} is better)")
    for line in getattr(wl, "report", lambda out: [])(first):
        print(f"  {line}")
    for rnd in rounds:
        for err in rnd.errors:
            print(f"FAILED {err}")
    for msg in fails:
        print(f"CHECK {msg}")

    result = {"correct": not fails, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(outdir / "result.json", "w") as fh:
        json.dump({**result, "steps": {k: {"value": v, "unit": u, "better": b}
                                       for k, (v, u, b) in steps.items()},
                   "checks": fails, "rounds": len(rounds),
                   "round_s": round_s}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
