"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ycsb-b-write --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes one traced run and prints the per-layer metrics.
``--workload all`` runs every workload, each in its own process.
The last line of standard output is the result as one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Cold set-ups per run, each in a fresh process.
SETUP_SAMPLES = 5
#: Host seconds one child process may take (builds, set-ups).
CHILD_TIMEOUT_S = 170


def git_sha():
    """The commit of this checkout, or None outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance() -> dict:
    from perfbench import scenarios

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "platform": platform.platform(), "nproc": nproc,
            "calibration_loops_per_s": scenarios.calibration(),
            # Recorded, never pinned: builtin hash() moves event counts.
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def cold_starts(workload: str, seed: int):
    """Set-up seconds of :data:`SETUP_SAMPLES` fresh processes, and the
    peak resident memory (MB) of the first, which also runs the workload."""
    samples, peak_mb = [], None
    for index in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), workload,
               str(seed)] + (["--run"] if index == 0 else [])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        samples.append(result["setup_s"])
        peak_mb = result.get("peak_rss_mb", peak_mb)
    return samples, peak_mb


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in metrics.items()}})


def run_one(args) -> None:
    from perfbench import scenarios, tracing

    spec = scenarios.WORKLOADS[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        metrics, attempted, failed = tracing.trace(spec, args.seed)
        events = [metrics["sim.kernel.events"].value]
    else:
        setup, peak_mb = cold_starts(args.workload, args.seed)
        reps = scenarios.measure(spec, args.seed, args.seconds)
        metrics = scenarios.end_to_end(spec, reps, setup, peak_mb)
        attempted = sum(len(rep.ops) for rep in reps)
        failed = sum(rep.failed for rep in reps)
        events = [rep.events for rep in reps]
        for index, rep in enumerate(reps):
            print(f"  rep {index}: input seed {rep.seed}, {rep.host_s:.4f} s "
                  f"on the clock, {rep.completed} ops, {rep.events} events, "
                  f"{rep.failed} failed")
            for finding in rep.findings:
                print(f"    FAILED: {finding}")
    for name, metric in metrics.items():
        print(f"  {name:38s} {metric.value:>14.6g} {metric.unit:9s} "
              f"{metric.note}")
    print("provenance " + json.dumps(dict(provenance(),
                                          **{"sim.kernel.events": events})))
    print(result_line(failed == 0, attempted, failed, metrics))


def run_all(args) -> None:
    """Every workload in its own process; one combined result."""
    from perfbench.scenarios import Metric, WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            sys.exit(f"perfbench: {name} failed\n{proc.stderr}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}/{metric}"] = Metric(entry["value"],
                                                 entry["unit"])
    print(result_line(correct, attempted, failed, metrics))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {ROOT / 'src'}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.scenarios import WORKLOADS, BenchError

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} "
                     "or all")
    try:
        (run_all if args.workload == "all" else run_one)(args)
    except BenchError as exc:
        sys.exit(f"perfbench: {exc}")


if __name__ == "__main__":
    main()
