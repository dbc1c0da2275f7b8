"""Benchmark for gmlucas: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload poly_terms --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50

--trace 0 runs the workload for --seconds with nothing instrumented and
reports the end-to-end metrics. --trace 1 reports the per-layer metrics:
the direct timing grids, then the workload's first requests once untraced
and once traced. --workload all runs each workload in its own interpreter
and prints every metric by name and unit.

Every answer is checked against an int-only reference. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("verify_suite", "poly_terms", "number_terms")
SETUP_REPEATS = 21
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); from gmlucas import cli; "
              "sys.exit(cli.main(['table', '1', '--format', 'json']))")
# Requests replayed untraced and traced in a --trace 1 run: a default verify
# pass and one fault run, or two blocks of term requests.
TRACE_PREFIX = {"verify_suite": 2, "poly_terms": 40, "number_terms": 40}
TAIL_LEVEL = 90

UNITS = {
    "setup_s": "s",
    "p50_small_ms": "ms",
    "p50_large_ms": "ms",
    "tail_ms": "ms",
    "requests_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mib": "MiB",
}


def load_gmlucas() -> None:
    """Import gmlucas from this checkout's src/, never from anywhere else."""
    if not (SRC / "gmlucas" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gmlucas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gmlucas
    if Path(gmlucas.__file__).resolve().parent != SRC / "gmlucas":
        raise SystemExit(f"perfbench: imported gmlucas from {gmlucas.__file__}")


def measure_setup() -> tuple[float, int]:
    """Median seconds for a fresh interpreter to import gmlucas and answer
    ``table 1``; also the number of those answers that were wrong."""
    import workloads

    times, bad = [], 0
    for repeat in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, cwd=ROOT, timeout=60)
        if repeat:  # the first one only warms the file cache
            times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not workloads.check_table(proc.stdout):
            bad += 1
    return statistics.median(times), bad


def tail(latencies: list[float]) -> float:
    """The p90 latency (nearest rank). The level is fixed, not the highest
    one the sample count allows, so that a faster commit, which fits more
    requests into a run, still reports the same percentile."""
    ordered = sorted(latencies)
    return ordered[math.ceil(len(ordered) * TAIL_LEVEL / 100) - 1]


def latency_metrics(timed: list[tuple[bool, float]], notes: list[str]) -> dict[str, float]:
    """timed holds (large, latency_s) for each correctly answered request."""
    small = [s for large, s in timed if not large]
    large = [s for is_large, s in timed if is_large]
    values = {}
    if small:
        values["p50_small_ms"] = statistics.median(small) * 1e3
    if large:
        values["p50_large_ms"] = statistics.median(large) * 1e3
    if timed:
        values["tail_ms"] = tail(small + large) * 1e3
        values["requests_per_s"] = len(timed) / sum(small + large)
        notes.append(f"tail_ms is the p{TAIL_LEVEL} latency of {len(timed)} requests "
                     f"({len(small)} small, {len(large)} large)")
    return values


def end_to_end(outcomes, setup_s: float, probe) -> tuple[dict[str, float], list[str]]:
    """Times are given at the reference machine speed (see speed.py): each
    latency is scaled by the probe's ticks around it, and setup_s, timed
    just before the probe started, by all of the run's ticks."""
    def at_reference(start: float, seconds: float) -> float:
        return seconds * probe.scale(start, start + seconds)

    good = [o for o in outcomes if o.ok]
    as_timed = {"setup_s": setup_s}
    as_timed.update(latency_metrics([(o.request.large, o.latency_s) for o in good], []))
    notes = [f"median probe {statistics.median(probe.probe_s) * 1e3:.4f} ms "
             f"(reference {speed.PROBE_REF_S * 1e3:g} ms); as timed: "
             + ", ".join(f"{name} = {value:.6g}" for name, value in as_timed.items())]
    values = {"setup_s": setup_s * probe.run_scale()}
    values.update(latency_metrics(
        [(o.request.large, at_reference(o.start_s, o.latency_s)) for o in good], notes))
    values["ok_ratio"] = len(good) / len(outcomes)
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes.append(f"fail_ratio = {1 - values['ok_ratio']:g}")
    return values, notes


def traced_run(workload: str, seed: int):
    import grids
    import workloads
    from tracing import Tracer

    values = grids.arith_grid(seed)
    values.update(grids.route_grid())
    check_values, outcomes = grids.verify_check_grid(seed)
    values.update(check_values)
    prefix = workloads.first_requests(workload, seed, TRACE_PREFIX[workload])
    start = time.perf_counter()
    outcomes += [workloads.execute(request, seed) for request in prefix]
    untraced_s = time.perf_counter() - start
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        for index, request in enumerate(prefix):
            tracer.request = index
            outcomes.append(workloads.execute(request, seed))
        traced_s = time.perf_counter() - start
    values.update(tracer.metrics())
    values["trace_overhead_ratio"] = traced_s / untraced_s
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.dump(path, workload=workload, seed=seed,
                requests=[vars(request) for request in prefix])
    return values, outcomes, [f"spans written to {path.relative_to(ROOT)}"]


def per_layer_unit(name: str) -> str:
    for unit in ("ms", "ns", "s"):
        if f"_{unit}." in name or name.endswith(f"_{unit}"):
            return unit
    return "ratio" if name.endswith("_ratio") else "count"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_gmlucas()
    import workloads

    if trace:
        values, outcomes, notes = traced_run(workload, seed)
        units = {name: per_layer_unit(name) for name in values}
        bad_setup = 0
    else:
        setup_s, bad_setup = measure_setup()
        probe = speed.SpeedProbe()
        with probe.ticking():
            outcomes = workloads.closed_loop(workload, seed, seconds, probe.clock)
        values, notes = end_to_end(outcomes, setup_s, probe)
        units = UNITS
    failures = [o for o in outcomes if not o.ok]
    for outcome in failures[:10]:
        print(f"FAILED {outcome.request}: {outcome.detail}")
    for note in notes:
        print(f"# {workload}: {note}")
    for name, value in values.items():
        print(f"{workload}  {name} = {value:.6g} {units[name]}")
    failed = len(failures) + bad_setup
    return {
        "correct": failed == 0,
        "attempted": len(outcomes) + (0 if trace else SETUP_REPEATS + 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own fresh interpreter, one after another."""
    command = [sys.executable, str(Path(__file__).resolve())]
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
