"""The hot-path optimizations are calendar-transparent.

Every fast path in the kernel and fabric — pooled timeouts, the
skip-when-no-recorder guards in the engines, the skip-when-no-injector
branch in ``Port._deliver`` — claims to change only constant factors,
never behavior.  These tests pin that claim: they install a
:attr:`Simulator.schedule_observer` hook (called at the single
heap-push choke point, :meth:`Simulator._schedule_event`) to record
the full event calendar of a small-but-real workload and assert the
recording is *identical* with the optimization on and off.

A divergence here means an optimization changed simulation semantics,
which invalidates every figure the repo produces — treat failures as
release blockers, not flaky tests.
"""

from repro.api import (LIN_SYNCH, MINOS_B, MINOS_O, MinosCluster,
                       YcsbWorkload)
from repro.hw.params import DEFAULT_MACHINE
from repro.sim.events import Timeout, _PooledTimeout
from repro.sim.kernel import Simulator


def record_calendar(sim):
    """Install a ``schedule_observer`` so every push is recorded.

    Returns the list the pushes land in; each entry is ``(now, delay)``
    — enough to detect any reordering, retiming, or added/removed
    event, while staying agnostic to which object instance carried it
    (pooling deliberately reuses instances).
    """
    calendar = []

    def observe(event, delay):
        calendar.append((sim._now, delay))

    sim.schedule_observer = observe
    return calendar


def run_small_workload(config, setup=None):
    """One deterministic 3-node YCSB run; returns its observables."""
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


class TestTimeoutPooling:
    def test_pooling_is_calendar_transparent(self):
        """Same calendar with sleep() pooling enabled and disabled."""
        def disable_pooling(cluster):
            cluster.sim.timeout_pooling = False

        for config in (MINOS_B, MINOS_O):
            pooled = run_small_workload(config)
            unpooled = run_small_workload(config, setup=disable_pooling)
            assert_identical(pooled, unpooled)

    def test_sleep_recycles_instances(self):
        """The pool actually reuses objects (else it's dead code)."""
        sim = Simulator()

        seen = []

        def chain():
            for _ in range(8):
                timeout = sim.sleep(1e-9)
                seen.append(timeout)
                yield timeout

        sim.spawn(chain(), name="chain")
        sim.run()
        assert all(isinstance(t, _PooledTimeout) for t in seen)
        # A fired hop is recycled right after its resume callback runs,
        # so the chain alternates between two pooled instances: hop N+2
        # reuses hop N's object.
        assert seen[0] is not seen[1]
        assert seen[2] is seen[0] and seen[3] is seen[1]
        assert sim._timeout_pool, "fired timeouts were not recycled"

    def test_sleep_with_pooling_disabled_allocates_plain_timeouts(self):
        sim = Simulator()
        sim.timeout_pooling = False
        timeout = sim.sleep(1e-9)
        assert type(timeout) is Timeout

    def test_recycled_timeouts_drop_their_payload(self):
        """Recycling must not leak values into the next wait."""
        sim = Simulator()
        payload = object()

        def one_hop():
            got = yield sim.sleep(1e-9, value=payload)
            assert got is payload

        sim.run_process(one_hop(), name="hop")
        assert all(t._value is None for t in sim._timeout_pool)


class TestObsFastPath:
    def test_attaching_obs_does_not_change_the_calendar(self):
        """The span recorder claims a zero-overhead contract:
        record-only bookkeeping behind ``obs is not None`` guards.  With a recorder attached the run must schedule the
        exact same events, or the exported timeline describes a
        *different* execution than the unobserved one."""
        def attach(cluster):
            cluster.attach_obs()

        for config in (MINOS_B, MINOS_O):
            plain = run_small_workload(config)
            observed = run_small_workload(config, setup=attach)
            assert_identical(plain, observed)

    def test_obs_is_calendar_transparent_under_faults(self):
        """The retransmit/fault instrumentation must also be record-only:
        the same lossy run, with and without the recorder, schedules the
        same retransmissions at the same times."""
        from repro.faults import FaultPlan

        def install_plan(cluster):
            cluster.enable_faults(FaultPlan.lossy(seed=3, drop=0.05))

        def install_plan_and_obs(cluster):
            cluster.attach_obs()
            cluster.enable_faults(FaultPlan.lossy(seed=3, drop=0.05))

        for config in (MINOS_B, MINOS_O):
            plain = run_small_workload(config, setup=install_plan)
            observed = run_small_workload(config,
                                          setup=install_plan_and_obs)
            assert_identical(plain, observed)

    def test_obs_actually_recorded_something(self):
        """Guard against the transparency tests passing vacuously
        because the recorder was never invoked."""
        recorders = {}

        def attach(cluster):
            recorders["obs"] = cluster.attach_obs()

        run_small_workload(MINOS_O, setup=attach)
        obs = recorders["obs"]
        assert len(obs.spans) > 10
        assert len(obs.segments) > 50
        assert obs.open_segments() == []


class TestHistoryRecorderFastPath:
    """The correctness harness (repro.check) makes the same
    record-only claim as the span recorder: a run driven
    by ``RecordingClient`` + ``HistoryRecorder`` must schedule the
    byte-identical event calendar of one driven by plain
    ``ClosedLoopClient`` s — the recorded history describes exactly the
    execution that would have happened unrecorded."""

    def run_clients(self, config, recording):
        from repro import ClosedLoopClient
        from repro.check import HistoryRecorder, RecordingClient

        cluster = MinosCluster(model=LIN_SYNCH, config=config,
                               params=DEFAULT_MACHINE.with_nodes(3))
        workload = YcsbWorkload(records=12, requests_per_client=8,
                                write_fraction=0.6, seed=7)
        cluster.load_records(workload.initial_records())
        calendar = record_calendar(cluster.sim)
        recorder = HistoryRecorder(cluster.sim) if recording else None
        clients = []
        for node_id in range(3):
            engine = cluster.nodes[node_id].engine
            ops = workload.ops_for(node_id, 0)
            if recording:
                clients.append(RecordingClient(cluster, engine, ops,
                                               recorder, 0))
            else:
                clients.append(ClosedLoopClient(cluster, engine, ops, 0))
        for i, client in enumerate(clients):
            cluster.sim.spawn(client.run(), name=f"client.{i}")
        cluster.sim.run()
        return {
            "calendar": calendar,
            "events_processed": cluster.sim.events_processed,
            "history": recorder.history() if recorder else None,
        }

    def test_history_recording_is_calendar_transparent(self):
        for config in (MINOS_B, MINOS_O):
            plain = self.run_clients(config, recording=False)
            recorded = self.run_clients(config, recording=True)
            assert (recorded["events_processed"]
                    == plain["events_processed"])
            assert recorded["calendar"] == plain["calendar"]
            assert len(plain["calendar"]) > 1000, \
                "workload too small — the comparison is vacuous"

    def test_recording_run_captured_the_full_history(self):
        """Guard against vacuous transparency: the recorded run must
        have produced one completed history op per issued op."""
        recorded = self.run_clients(MINOS_O, recording=True)
        history = recorded["history"]
        assert len(history) == 3 * 8
        assert not history.pending


class _PassThroughInjector:
    """Injector-shaped object that faults nothing: every packet is
    delivered exactly once at its fault-free arrival time."""

    def deliveries(self, packet, when):
        yield packet, when


class TestInjectorFastPath:
    def test_pass_through_injector_matches_no_injector(self):
        """``Port._deliver`` skips the injector hook when none is set;
        a pass-through injector must therefore be indistinguishable
        from no injector at all."""
        def install(cluster):
            cluster.network.install_fault_injector(_PassThroughInjector())

        plain = run_small_workload(MINOS_B)
        hooked = run_small_workload(MINOS_B, setup=install)
        assert_identical(plain, hooked)
