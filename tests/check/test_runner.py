"""End-to-end schedule/crash exploration, mutation tests, and the CLI.

The mutation tests are the harness's teeth: a deliberately planted
stale-read bug and a deliberately dropped persist must both be caught,
the former with a shrunk counterexample of at most 10 events
(acceptance criterion).
"""

import json

import pytest

from repro import MINOS_B, MINOS_O, run_check
from repro.cli import main
from repro.errors import ConfigError
from repro.hw.params import us

QUICK = dict(nodes=3, ops_per_client=8, seeds=1, crash_trials=1)


class TestRunCheck:
    @pytest.mark.parametrize("arch", [MINOS_B, MINOS_O],
                             ids=["MINOS-B", "MINOS-O"])
    def test_clean_cluster_passes_with_phase_crashes(self, arch):
        report = run_check(model="synch", config=arch,
                           crash_points="phase", **QUICK)
        assert report.ok, report.to_dict()
        assert report.counterexample is None
        crashed = [r for r in report.runs if r.crash_at is not None]
        assert crashed, "phase exploration produced no crash runs"
        assert all(r.ops > 0 for r in report.runs)

    def test_crash_points_none_runs_baseline_only(self):
        report = run_check(model="event", config=MINOS_B,
                           crash_points="none", **QUICK)
        assert report.ok
        assert all(r.crash_at is None for r in report.runs)

    def test_report_json_round_trips(self):
        report = run_check(model="strict", config=MINOS_B,
                           crash_points="uniform", **QUICK)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["schema"] == "repro-check/1"
        assert payload["ok"] is True
        assert len(payload["runs"]) == len(report.runs)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            run_check(nodes=1)
        with pytest.raises(ConfigError):
            run_check(crash_points="everywhere")


def plant_stale_read_bug(cluster):
    """Node 0 serves every read of a key from the first version it ever
    cached — a classic forgotten-invalidation bug."""
    kv = cluster.nodes[0].kv
    first = {}
    real_write, real_read = kv.volatile_write, kv.volatile_read

    def spy_write(key, value, ts):
        ok = real_write(key, value, ts)
        if ok and key not in first:
            first[key] = kv.volatile_read(key)
        return ok

    def stale_read(key):
        return first.get(key, real_read(key))

    kv.volatile_write = spy_write
    kv.volatile_read = stale_read


def plant_lost_persist_bug(cluster):
    """The victim node acknowledges persists without writing NVM."""
    victim = cluster.nodes[-1].kv
    victim.persist = lambda key, value, ts, scope=None: None


class TestMutationCatches:
    def test_stale_read_bug_caught_with_small_counterexample(self):
        report = run_check(model="synch", config=MINOS_B,
                           ops_per_client=16, seeds=2,
                           crash_points="none",
                           setup=plant_stale_read_bug)
        assert not report.ok
        counterexample = report.counterexample
        assert counterexample is not None
        assert counterexample.kind == "linearizability"
        # Acceptance criterion: the shrunk counterexample is tiny.
        assert 1 <= len(counterexample.events) <= 10
        # The shrunk events must themselves still fail the checker.
        from repro.check import HistoryOp, check_key_history
        ops = [HistoryOp(op_id=e["op_id"], client=e["client"],
                         kind=e["kind"], key=e["key"], value=e["value"],
                         invoked=e["invoked"], responded=e["responded"],
                         obsolete=e["obsolete"])
               for e in counterexample.events]
        assert not check_key_history(ops).ok

    def test_lost_persist_bug_caught_by_durability_floor(self):
        report = run_check(model="synch", config=MINOS_B,
                           crash_points="uniform",
                           setup=plant_lost_persist_bug, **QUICK)
        assert not report.ok
        counterexample = report.counterexample
        assert counterexample is not None
        assert counterexample.kind == "durability"
        assert "durability-floor" in counterexample.detail

    def test_export_writes_trace_and_history(self, tmp_path):
        prefix = str(tmp_path / "counterexample")
        report = run_check(model="synch", config=MINOS_B,
                           crash_points="none", seeds=1, nodes=3,
                           ops_per_client=12,
                           setup=plant_stale_read_bug, export=prefix)
        assert not report.ok
        exported = report.counterexample.exported
        assert exported == [f"{prefix}.trace.json",
                            f"{prefix}.history.json"]
        with open(exported[1], encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["counterexample"]["kind"] == "linearizability"
        assert payload["history"], "full history must be exported"
        with open(exported[0], encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["traceEvents"], "Perfetto trace must be non-empty"


def never_answers(engine, key):
    """A read that waits on an event nobody fires."""
    yield engine.sim.event()


class TestLiveness:
    def test_unanswered_probe_is_a_liveness_violation(self, monkeypatch):
        """A probe read that never returns is bounded by max_time and
        reported against its key and node instead of spinning on the
        heartbeats forever."""
        from repro.core.baseline.engine import BaselineEngine

        monkeypatch.setattr(BaselineEngine, "client_read", never_answers)
        report = run_check(model="synch", config=MINOS_B, nodes=3, keys=2,
                           ops_per_client=4, write_fraction=1.0, seeds=1,
                           crash_points="none", max_time=us(2_000),
                           engine_mode="interpreted")
        assert not report.ok
        counterexample = report.counterexample
        assert counterexample.kind == "liveness"
        assert counterexample.key is not None
        assert "probe read" in counterexample.detail
        assert "on n0" in counterexample.detail
        run = report.runs[0]
        assert run.completed, "only the probes may hang"
        assert run.pending == 2 * 3


class TestCli:
    def test_check_command_passes_on_clean_tree(self, capsys):
        code = main(["check", "--model", "synch", "--arch", "MINOS-B",
                     "--seeds", "1", "--ops", "8",
                     "--crash-points", "phase", "--crash-trials", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all histories (durable-)linearizable" in out

    def test_check_json_payload(self, capsys):
        code = main(["check", "--model", "event", "--offload",
                     "--seeds", "1", "--ops", "8",
                     "--crash-points", "none", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["schema"] == "repro-check/1"
        assert payload["model"] == "<Lin, Event>"
        assert payload["arch"] == "MINOS-O"
        assert payload["ok"] is True

    def test_verify_json_and_offload_flag(self, capsys):
        code = main(["verify", "--model", "synch", "--offload",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["schema"] == "repro-verify/1"
        assert payload["arch"] == "MINOS-O"
        assert payload["ok"] is True
