"""The benchmark's own checks, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import scenarios, tracing
from perfbench.scenarios import (Rep, WORKLOADS, end_to_end, failed_ops,
                                 stale_read)
from repro.check import History, HistoryOp
from repro.core.timestamp import Timestamp

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Tiny versions of every workload; the median stands in for the tail
#: percentile, which needs 10 samples beyond it.
TINY = {
    "ycsb-b-write": dict(requests_per_client=20, tail=0.5, inputs=2),
    "ycsb-o-scope": dict(requests_per_client=20, tail=0.5, inputs=2),
    "ycsb-read-large": dict(records=500, requests_per_client=60, tail=0.5,
                            inputs=2, watermark=8),
    "check-disaster": dict(seeds=1, tail=0.5),
}


def tiny(name):
    return replace(WORKLOADS[name], **TINY[name])


def units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_emits_every_end_to_end_metric(name):
    spec = tiny(name)
    reps = scenarios.measure(spec, seed=3, seconds=0.01)
    metrics = end_to_end(spec, reps, setup_s=[0.5, 0.6], peak_rss_mb=80.0)
    assert {n: m.unit for n, m in metrics.items()} == units(
        SPEC["end_to_end"])
    assert all(m.value > 0 for m in metrics.values())
    assert sum(rep.failed for rep in reps) == 0
    # The last rep replays the first input set.
    assert reps[spec.inputs].events == reps[0].events


@pytest.mark.parametrize("name", ["ycsb-o-scope", "ycsb-read-large",
                                  "check-disaster"])
def test_traced_run_emits_every_per_layer_metric(name):
    spec = tiny(name)
    metrics, attempted, failed = tracing.trace(spec, seed=5)
    assert {n: m.unit for n, m in metrics.items()} == units(
        SPEC["per_layer"])
    assert attempted > 0 and failed == 0
    # The traced run replays the untraced run's calendar exactly.
    untraced = spec.run_once(5 * spec.inputs)
    assert metrics["sim.kernel.events"].value == untraced.events
    # Both workloads with checkpoints run CIC rounds that truncate the log.
    if name != "ycsb-o-scope":
        assert metrics["ckpt.rounds"].value > 0
        assert metrics["ckpt.truncated_entries"].value > 0


def test_client_write_path_is_charged_to_the_engine():
    spec = tiny("ycsb-b-write")
    with tracing.Tracing() as traced:
        cluster, workload, _initial = spec.build(7)
        spec.drive(cluster, workload)
    clock = traced.clock
    # Only a client's first resume starts in RecordingClient.run itself;
    # every later one resumes inside the engine call it delegates to.
    assert sum(count for (layer, _name), count in clock.resumes.items()
               if layer == "check.history") == (
        scenarios.NODES * scenarios.CLIENTS_PER_NODE)
    assert clock.resumes["core.engine", "client_write"] > 0
    assert clock.resumes["core.engine", "client_read"] > 0
    assert 0 < clock.self_s["check.history"] < clock.self_s["core.engine"]


def _op(op_id, kind, value, start, client="c0"):
    return HistoryOp(op_id=op_id, client=client, kind=kind, key="k",
                     value=value, invoked=start, responded=start + 1e-6)


def test_planted_read_of_a_never_written_value_fails():
    ops = []
    for i in range(20):
        ops.append(_op(2 * i, "write", f"v{i}", 4e-6 * i))
        ops.append(_op(2 * i + 1, "read", f"v{i}", 4e-6 * i + 2e-6))
    history = History(ops)
    assert failed_ops(history, {"k": "init"})[0] == 0
    ops.append(_op(40, "read", "never-written", 1e-3))
    failed, _report = failed_ops(History(ops), {"k": "init"})
    assert failed > 0
    rep = Rep(host_s=1.0, events=1, ops=ops, completed=len(ops),
              active_sim_s=1e-3, fingerprint=(), failed=failed,
              loops_per_s=5e6)
    metrics = end_to_end(tiny("ycsb-b-write"), [rep], [0.5], 80.0)
    assert metrics["ok_op_share"].value < 1.0


def test_a_stale_read_is_named_with_the_read_it_contradicts():
    ops = [_op(0, "write", "a", 0.0), _op(1, "write", "b", 2e-6),
           _op(2, "read", "b", 4e-6, client="c1"),
           _op(3, "read", "a", 6e-6, client="c2")]
    for op, version in zip(ops, (1, 2, 2, 1)):
        op.ts = Timestamp(version, 0)
    # The write of "b" is still running when both reads return.
    ops[1].responded = 10e-6
    assert stale_read(ops[:3]) is None
    why = stale_read(ops)
    assert why.startswith("read op 3 (c2)") and "read op 2 (c1)" in why
    assert failed_ops(History(ops), {"k": "init"})[0] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb-b-write",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
