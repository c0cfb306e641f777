"""Run one flathump benchmark workload and print its result as JSON.

From the root of a checkout:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 18 --trace 0

The workload's set-up runs once; then whole rounds run until ``--seconds``
have passed.  ``--trace 0`` reports the end-to-end metrics (set-up time,
median wall and CPU time of a round, peak RSS); ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics.  The last
line of standard output is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  The program is imported from the checkout's own
``src`` directory; without it the run exits with code 2.
"""

import os

# one compute thread: pin the BLAS and OpenMP pools before numpy loads them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ensemble", "relax", "construct", "custom")


def process_age() -> float:
    """Seconds since the kernel started this process (clock-tick resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")     # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def use_checkout_sources() -> bool:
    """Put the checkout's ``src`` first on the import path; False if it is absent."""
    src = ROOT / "src"
    if not (src / "flathump" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def timed_round(workload, tally) -> tuple[float, float]:
    """(wall, CPU) seconds of one round.

    Cyclic garbage is collected before the round, untimed: flathump leaves
    every orbit spline in a reference cycle, and when the collector happens
    to run would otherwise decide how much of it piles into the next round.
    """
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    workload.run_round(tally)
    return time.perf_counter() - wall, time.process_time() - cpu


def end_to_end(workload, tally, seconds: float) -> dict:
    setup_s = process_age()       # the first round starts now
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu = timed_round(workload, tally)
        walls.append(wall)
        cpus.append(cpu)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB")}


def per_layer(workload, tally, seconds: float, spans_path: Path) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(timed_round(workload, tally)[0])
        with tracer.installed(workloads.TRACED_FUNCTIONS, workload.coeffs):
            traced.append(timed_round(workload, tally)[0])
    tracer.save(str(spans_path))
    return workloads.per_layer_metrics(tracer.totals(), tracer.counters, len(traced),
                                       statistics.median(traced) - statistics.median(plain))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        print(f"perfbench: no flathump sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    workloads.RESULTS.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    tally = workloads.Tally()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            metrics = per_layer(workload, tally, args.seconds,
                                workloads.RESULTS / f"{args.workload}-spans.npz")
        else:
            metrics = end_to_end(workload, tally, args.seconds)
    finally:
        workload.close()

    for line in (tally.failures + tally.problems)[:20]:
        print(f"perfbench {args.workload}: {line}", file=sys.stderr)
    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    line = json.dumps(result)
    (workloads.RESULTS / f"{args.workload}{suffix}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # String hashing decides where numpy and scipy temporaries land in the
    # heap: with a random hash seed, the peak RSS of relax's v0 alignment
    # read 198 or 213 MiB from one process to the next.  Run once more with
    # a fixed one.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
