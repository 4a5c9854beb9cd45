"""Checkpointing off is calendar-transparent (acceptance criterion).

The ``ckpt`` hook follows the attachment-point contract of the obs /
robustness hooks: ``None`` (the default) keeps every site at one
attribute check, so a run that never enables checkpointing must produce
a byte-identical event calendar to the pre-checkpointing build — and an
*enabled-but-inert* manager (no interval, no watermark) must also add
zero events, because both of its mechanisms are off.

Same recording technique as ``tests/sim/test_calendar_identity.py``:
a ``schedule_observer`` at the single heap-push choke point.
"""

from repro.api import (CheckpointConfig, LIN_SYNCH, MINOS_B, MINOS_O,
                       MinosCluster, YcsbWorkload)
from repro.hw.params import DEFAULT_MACHINE


def record_calendar(sim):
    calendar = []

    def observe(event, delay):
        calendar.append((sim._now, delay))

    sim.schedule_observer = observe
    return calendar


def run_small_workload(config, setup=None):
    cluster = MinosCluster(model=LIN_SYNCH, config=config,
                           params=DEFAULT_MACHINE.with_nodes(3))
    if setup is not None:
        setup(cluster)
    calendar = record_calendar(cluster.sim)
    workload = YcsbWorkload(records=12, requests_per_client=8,
                            write_fraction=0.6, seed=7)
    metrics = cluster.run_workload(workload, clients_per_node=1)
    return {
        "calendar": calendar,
        "events_processed": cluster.sim.events_processed,
        "write_latencies": metrics.write_latency.samples,
        "read_latencies": metrics.read_latency.samples,
    }


def assert_identical(reference, candidate):
    assert candidate["events_processed"] == reference["events_processed"]
    assert candidate["calendar"] == reference["calendar"]
    assert candidate["write_latencies"] == reference["write_latencies"]
    assert candidate["read_latencies"] == reference["read_latencies"]
    assert len(reference["calendar"]) > 1000, \
        "workload too small — the comparison is vacuous"


class TestCheckpointingOffIsFree:
    def test_inert_manager_is_calendar_transparent(self):
        """Enabled-but-inert checkpointing (no driver, no watermark)
        schedules exactly the same events as no checkpointing at all."""
        def enable_inert(cluster):
            cluster.enable_checkpoints(CheckpointConfig())

        for config in (MINOS_B, MINOS_O):
            plain = run_small_workload(config)
            inert = run_small_workload(config, setup=enable_inert)
            assert_identical(plain, inert)

    def test_plain_run_schedules_no_ckpt_events(self):
        """Without enable_checkpoints the hook stays None and nothing
        checkpoint-related ever runs: no fences, no truncation, no CKPT
        traffic."""
        for config in (MINOS_B, MINOS_O):
            cluster = MinosCluster(model=LIN_SYNCH, config=config,
                                   params=DEFAULT_MACHINE.with_nodes(3))
            workload = YcsbWorkload(records=12, requests_per_client=8,
                                    write_fraction=0.6, seed=7)
            cluster.run_workload(workload, clients_per_node=1)
            assert cluster.checkpoints is None
            for node in cluster.nodes:
                assert node.engine.ckpt is None
                assert node.kv.log.checkpoints_taken == 0
                assert node.kv.log.truncated_total == 0

    def test_active_checkpointing_diverges(self):
        """Sanity check that the comparison has teeth: with a watermark
        the calendar must NOT be identical (fences add events)."""
        def enable_active(cluster):
            cluster.enable_checkpoints(CheckpointConfig(watermark=4))

        plain = run_small_workload(MINOS_B)
        active = run_small_workload(MINOS_B, setup=enable_active)
        assert active["calendar"] != plain["calendar"]
