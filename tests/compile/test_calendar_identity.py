"""The protocol compiler is calendar-transparent.

``engine_mode="compiled"`` claims to change only constant factors:
the graph-bound engine classes must schedule *exactly* the events the
interpreted reference engines schedule, in the same order, at the same
times.  These tests pin that claim with the house technique (PR 2/4/5):
a :attr:`Simulator.schedule_observer` records the full event calendar
of a small-but-real workload in both modes, and the recordings must be
identical — across every Linearizable persistency model, both
architectures (plus an offload ablation without batching, which takes
the other PCIe paths), with and without an active fault plan.

A divergence here means the compiler changed simulation semantics —
treat failures as release blockers, not flaky tests.
"""

import pytest

from repro.api import (EC_EVENT, EC_SYNCH, LIN_EVENT, LIN_RENF, LIN_SCOPE,
                       LIN_STRICT, LIN_SYNCH, MINOS_B, MINOS_O, FaultPlan,
                       MinosCluster, YcsbWorkload)
from repro.core.config import COMBINED
from repro.hw.params import DEFAULT_MACHINE

LIN_MODELS = [LIN_SYNCH, LIN_STRICT, LIN_RENF, LIN_EVENT, LIN_SCOPE]
EC_MODELS = [EC_SYNCH, EC_EVENT]
ARCHES = [MINOS_B, MINOS_O]


def record_calendar(sim):
    """Record ``(now, delay)`` per push at the single heap-push choke
    point — enough to detect any reordering, retiming, or added/removed
    event, while staying agnostic to which object instance carried it."""
    calendar = []

    def observe(event, delay):
        calendar.append((sim._now, delay))

    sim.schedule_observer = observe
    return calendar


def run_small_workload(model, config, engine_mode, faults=False):
    """One deterministic 3-node YCSB run; returns its observables."""
    cluster = MinosCluster(model=model, config=config,
                          params=DEFAULT_MACHINE.with_nodes(3),
                          engine_mode=engine_mode)
    if engine_mode == "compiled":
        # Anti-vacuity: the factory must not have silently fallen back
        # to the interpreted class, or this whole file tests nothing.
        engine_cls = type(cluster.nodes[0].engine)
        assert hasattr(engine_cls, "__compiled_dispatch__"), \
            f"compiler fell back to interpreted for {model}/{config.name}"
    if faults:
        cluster.enable_faults(FaultPlan.lossy(seed=3, drop=0.05))
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


def assert_identical(reference, candidate, min_len=1000):
    assert candidate["events_processed"] == reference["events_processed"]
    assert candidate["calendar"] == reference["calendar"]
    assert candidate["write_latencies"] == reference["write_latencies"]
    assert candidate["read_latencies"] == reference["read_latencies"]
    assert len(reference["calendar"]) > min_len, \
        "workload too small — the comparison is vacuous"


@pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
@pytest.mark.parametrize("model", LIN_MODELS, ids=lambda m: m.name)
class TestCompiledCalendarIdentity:
    def test_fault_free(self, model, config):
        interpreted = run_small_workload(model, config, "interpreted")
        compiled = run_small_workload(model, config, "compiled")
        assert_identical(interpreted, compiled)

    def test_under_fault_plan(self, model, config):
        """Loss + retransmit exercises the robustness arming
        (``watch_retransmits``/``stamp``/dedup) that the fault-free run
        never reaches."""
        interpreted = run_small_workload(model, config, "interpreted",
                                         faults=True)
        compiled = run_small_workload(model, config, "compiled",
                                      faults=True)
        assert_identical(interpreted, compiled)


@pytest.mark.parametrize("model", EC_MODELS, ids=lambda m: m.name)
def test_eventual_consistency_models(model):
    """The EC models take the other branches (``is_eventual_consistency``
    routes INV to the ``_ec_*`` handlers)."""
    for config in ARCHES:
        interpreted = run_small_workload(model, config, "interpreted")
        compiled = run_small_workload(model, config, "compiled")
        assert_identical(interpreted, compiled, min_len=500)


def test_offload_without_batching():
    """COMBINED (offload, batching off) takes the opposite branches on
    the PCIe deposit/forward paths (``envelope.is_batched``,
    per-follower ACK forwarding) — the ablation MINOS-O never covers."""
    interpreted = run_small_workload(LIN_SYNCH, COMBINED, "interpreted")
    compiled = run_small_workload(LIN_SYNCH, COMBINED, "compiled")
    assert_identical(interpreted, compiled)


def test_compiled_classes_are_cached():
    """Two clusters on the same triple share one compiled class."""
    a = MinosCluster(params=DEFAULT_MACHINE.with_nodes(3))
    b = MinosCluster(params=DEFAULT_MACHINE.with_nodes(3))
    assert type(a.nodes[0].engine) is type(b.nodes[0].engine)
    assert type(a.nodes[0].engine).__compiled_dispatch__.model == "LIN_SYNCH"
