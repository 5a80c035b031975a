"""ghsomkit benchmark: times seeded workloads, checks their outputs and
prints the metrics as JSON on the last line of stdout.

    python3 bench/run.py --workload fit-nested --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb, ari); ``--trace 1`` wraps the program's public functions
and reports per-layer metrics instead, writing its spans to
``bench/runs/``. Times in wall_s and setup_s are normalised to a
reference host speed (see calibrate.py). See bench/README.md for the
workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads: the sweep's two pool threads
# are then the most any workload runs, within the 2 vCPUs it was sized on
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RUNS = BENCH / "runs"

SETUP_REPS = 3
MIN_REPS = 3
# a run stops starting rounds at this multiple of --seconds even below
# MIN_REPS, so a much slower program still ends in time
HARD_STOP = 2.5

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import ghsomkit; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time of ``import ghsomkit`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def per_round(values: list[float], cycle: int) -> float:
    """Mean over a round's positions of each position's median; with
    ``cycle`` 1, the median."""
    return statistics.fmean(statistics.median(values[i::cycle]) for i in range(cycle))


def measure(workload, args, run_dir: Path) -> dict:
    from calibrate import Clock
    from tracing import LAYER_METRICS, Tracer, layer_metrics, write_spans

    clock = Clock()
    # set-up: a fresh import plus input generation, several times
    setups, state = [], None
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        t = time.perf_counter()
        state = workload.setup(args.seed, run_dir)
        setups.append(clock.normalised(imported + time.perf_counter() - t))

    # repetitions come in whole rounds of `cycle`, one per data set
    cycle = workload.cycle
    tracer = Tracer() if args.trace else None
    reps, walls, spans = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if reps and len(reps) % cycle == 0:
            typical = statistics.median(r.seconds for r in reps)
            enough = len(reps) >= MIN_REPS or elapsed >= HARD_STOP * args.seconds
            if enough and elapsed + cycle * typical > args.seconds:
                break
        if tracer:
            tracer.install()
        try:
            reps.append(workload.run(state, len(reps), tracer))
        finally:
            if tracer:
                tracer.uninstall()
                spans.append(tracer.take())
        walls.append(clock.normalised(reps[-1].seconds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check(state, reps, args.seed)
    ari = workload.ari(state, reps)
    for e in errors:
        print(f"bench: CHECK FAILED: {e}", file=sys.stderr)

    if tracer:
        per_rep = [layer_metrics(s) for s in spans]
        metrics = {name: {"value": per_round([m[name] for m in per_rep], cycle), "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
        RUNS.mkdir(exist_ok=True)
        write_spans(RUNS / f"trace-{workload.name}-seed{args.seed}.json", spans,
                    {"workload": workload.name, "seed": args.seed,
                     "raw_wall_s": [r.seconds for r in reps], "wall_s": walls,
                     "kernel_s": clock.kernel})
    else:
        metrics = {
            "wall_s": {"value": per_round(walls, cycle), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ari": {"value": ari, "unit": "1"},
        }
    print(f"{workload.name}: seed {args.seed}, {len(reps)} repetitions of "
          f"{reps[0].attempted} {workload.unit}(s), {sum(r.failed for r in reps)} failed, "
          f"raw wall {' '.join(f'{r.seconds:.3f}' for r in reps)} s, "
          f"reference kernel median {statistics.median(clock.kernel):.4f} s")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process; one merged result line."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ghsomkit" / "__init__.py").is_file():
        print(f"bench: no ghsomkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; use one of {', '.join(WORKLOADS)}"
              " or all", file=sys.stderr)
        return 2
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        result = measure(WORKLOADS[args.workload], args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
