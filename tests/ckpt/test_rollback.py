"""Rollback recovery acceptance: k-node and whole-cluster crashes.

The PR's headline criterion: a whole-cluster crash at an arbitrary
explored crash point must restore to a state that passes the
checkpoint-aware durable-linearizability rules for all five persistency
models on both architectures — and a k-node disaster under an active
fault plan must roll back and converge while the surviving clients stay
under load.

The hypothesis property pins checkpoint-line *consistency*: after a
coordinated round on a quiesced cluster, every node fenced the same
per-key state, so the restore line equals each node's own image.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (LIN_SCOPE, LIN_SYNCH, MINOS_B, MINOS_O, MinosCluster,
                   run_check)
from repro.check import restore_line
from repro.ckpt import CheckpointConfig
from repro.faults import DisasterSpec, FaultPlan
from repro.hw.params import DEFAULT_MACHINE, us
from repro.workloads.ycsb import YcsbWorkload

ARCHES = [MINOS_B, MINOS_O]
MODELS = ["synch", "strict", "renf", "event", "scope"]


class TestWholeClusterRollback:
    """run_check in disaster mode with victims == nodes: every node
    crashes at the explored crash point, rollback recovery restores the
    cluster from the surviving checkpoint images + log tails, and the
    history must pass check_rollback + linearizability."""

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize("model", MODELS)
    def test_restores_to_legal_state(self, model, config):
        report = run_check(model=model, config=config, nodes=3,
                           ops_per_client=6, seeds=1, crash_trials=1,
                           victims=3,
                           checkpoints=CheckpointConfig(watermark=6),
                           max_time=us(30_000))
        crashed = [run for run in report.runs if run.crash_at is not None]
        assert crashed, "no whole-cluster crash was explored"
        assert report.ok, (report.counterexample.detail
                           if report.counterexample else report.to_dict())
        assert all(run.durability_ok and run.linearizable
                   for run in report.runs)

    def test_k_node_subset_rollback(self):
        """victims strictly between 1 and nodes exercises the mixed
        path: crashed nodes rebuilt, survivors topped up to the line."""
        report = run_check(model="synch", config=MINOS_B, nodes=4,
                           ops_per_client=6, seeds=1, crash_trials=1,
                           victims=2,
                           checkpoints=CheckpointConfig(watermark=6),
                           max_time=us(30_000))
        assert report.ok, (report.counterexample.detail
                           if report.counterexample else report.to_dict())

    def test_survivor_write_begun_with_every_peer_excluded(self):
        """Regression: survivor n0 coordinated a write while both
        victims were excluded, so it expected no ACK and used to hold
        its RDLock forever — the post-restore probe read never
        returned."""
        report = run_check(model="synch", config="MINOS-B", nodes=3,
                           victims=2, seeds=1, base_seed=5,
                           ops_per_client=32,
                           checkpoints=CheckpointConfig(watermark=8))
        assert report.ok, (report.counterexample.detail
                           if report.counterexample else report.to_dict())

    def test_rejects_more_victims_than_nodes(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            run_check(nodes=3, victims=4)


class TestDisasterUnderFaultPlan:
    """k-node rollback with an active FaultPlan: loss + delay keep the
    retransmit machinery busy while the disaster hits, and the restored
    cluster must still pass the quiescent invariant suite."""

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize("model", [LIN_SYNCH, LIN_SCOPE],
                             ids=lambda m: m.name)
    def test_rollback_under_loss(self, config, model):
        from repro.faults import run_chaos

        plan = FaultPlan.lossy(seed=11, drop=0.01, delay=0.05)
        cluster = MinosCluster(model=model, config=config,
                               params=DEFAULT_MACHINE.with_nodes(5))
        workload = YcsbWorkload(records=12, requests_per_client=12,
                                write_fraction=0.8, seed=11)
        result = run_chaos(
            cluster, plan, workload, clients_per_node=1,
            checkpoints=CheckpointConfig(interval=us(400), watermark=30),
            disaster=DisasterSpec(at=us(500), victims=2,
                                  down_for=us(400)))
        assert result.completed, "surviving clients stalled"
        assert result.violations == [], result.violations
        assert result.restored == 2
        assert result.checks == "quiescent"
        assert result.checkpoint_rounds > 0


class TestCheckpointLineConsistency:
    """Property (hypothesis over seeds and models): a coordinated round
    on a quiesced cluster fences identical per-key durable state on
    every node — the restore line equals each node's own image, and
    every live log is empty."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           model=st.sampled_from(MODELS),
           arch=st.sampled_from([0, 1]))
    def test_round_on_quiesced_cluster_is_consistent(self, seed, model,
                                                     arch):
        from repro.core.model import model_by_name

        config = ARCHES[arch]
        cluster = MinosCluster(model=model_by_name(model),
                               config=config,
                               params=DEFAULT_MACHINE.with_nodes(3))
        manager = cluster.enable_checkpoints(CheckpointConfig())
        workload = YcsbWorkload(records=8, requests_per_client=6,
                                write_fraction=0.8, seed=seed)
        cluster.run_workload(workload, clients_per_node=1)
        cluster.sim.run_process(manager.checkpoint_now(),
                                name="prop.ckpt.round")
        assert manager.rounds_completed == 1
        line = manager.lines[-1]
        assert line.complete
        assert sorted(line.serials) == [0, 1, 2]
        snapshots = {
            node.node_id: {key: (entry.ts, entry.value) for key, entry
                           in node.kv.log.durable_snapshot().items()}
            for node in cluster.nodes}
        folded = restore_line(snapshots)
        for node_id, snapshot in snapshots.items():
            assert snapshot == folded, \
                f"node {node_id} fenced state diverging from the line"
        assert all(len(node.kv.log) == 0 for node in cluster.nodes)
