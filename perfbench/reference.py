"""Regenerate the reference figures of perfbench/README.md.

Run from the repository root:

    python3 perfbench/reference.py [--runs 10] [--first-seed 101]

For every workload it makes --runs untraced runs, one per seed, and
reports each end-to-end metric's median and its quartile spread (the
distance between the first and third quartile as a share of the
median), then one traced run per workload for the per-layer counts and
the tracing overhead (traced minus untraced round time), and finally the
scaling sweep.  Everything also goes to perfbench/out/reference.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# paired rounds for the tracing overhead: about a minute per workload
OVERHEAD_PAIRS = {"study": 2, "surface": 15, "mc-validate": 4}


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tracing_overhead(workload, seed, pairs):
    """Traced over untraced round time, minus one: the median over pairs
    of rounds run back to back in one process, alternating which goes
    first, so both sides of a pair see the same machine speed."""
    import tracing
    import workloads
    outdir = HERE / "out" / f"{workload}-overhead"
    outdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, outdir)
    workloads.warm_up()
    ratios = []
    for i in range(pairs):
        seconds = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer = tracing.Tracer() if traced else None
            rnd = workloads.Round(tracer)
            if tracer:
                tracer.install()
                tracer.begin_round()
            try:
                wl.run_round(rnd)
            finally:
                if tracer:
                    tracer.uninstall()
            seconds[traced] = rnd.seconds
        ratios.append(seconds[True] / seconds[False])
    return statistics.median(ratios) - 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    from run import _import_package
    _import_package()
    with open(Path.cwd() / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    report = {}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = [_run(wl, seed, seconds, 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed_share": [r["failed"] / r["attempted"] for r in runs]}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry[m["name"]] = {"median": med, "spread": (q3 - q1) / med,
                                "bound": m["bound"], "values": values}
            print(f"{wl:<12} {m['name']:<12} median {med:.4g} "
                  f"{m['unit']}, spread {100 * (q3 - q1) / med:.1f}% "
                  f"(bound {100 * m['bound']:.0f}%)")
        traced = _run(wl, seeds[0], seconds, 1)
        entry["traced"] = traced["metrics"]
        entry["tracing_overhead"] = _tracing_overhead(
            wl, seeds[0], OVERHEAD_PAIRS[wl])
        print(f"{wl:<12} tracing overhead "
              f"{100 * entry['tracing_overhead']:+.1f}% "
              f"(median of {OVERHEAD_PAIRS[wl]} paired rounds)")
        entry["traced_correct"] = traced["correct"]
        report[wl] = entry
        print(f"{wl:<12} correct {entry['correct'] and traced['correct']}, "
              f"failed share {sorted(set(entry['failed_share']))}")
    with open(HERE / "out" / "reference.json", "w") as fh:
        json.dump(report, fh, indent=2)
    subprocess.run([sys.executable, str(HERE / "sweep.py")], check=True,
                   timeout=600)
    return 0


if __name__ == "__main__":
    sys.exit(main())
