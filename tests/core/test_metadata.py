"""Tests for record metadata and the spin primitives (Fig. 1, §III-A)."""

import pytest

from repro.core.metadata import MetadataTable, RecordMeta
from repro.core.timestamp import INITIAL_TS, NULL_TS, Timestamp
from repro.errors import ProtocolError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def meta(sim):
    return RecordMeta(sim, "key")


class TestSnatchRdlock:
    """The three Snatch-RDLock cases of §III-B."""

    def test_case_free_grabs(self, meta):
        assert meta.snatch_rdlock(Timestamp(1, 0))
        assert meta.rdlock_owner == Timestamp(1, 0)

    def test_case_older_owner_snatched(self, meta):
        meta.snatch_rdlock(Timestamp(1, 0))
        assert meta.snatch_rdlock(Timestamp(2, 1))
        assert meta.rdlock_owner == Timestamp(2, 1)

    def test_case_younger_owner_keeps_lock(self, meta):
        meta.snatch_rdlock(Timestamp(5, 0))
        assert not meta.snatch_rdlock(Timestamp(2, 1))
        assert meta.rdlock_owner == Timestamp(5, 0)

    def test_null_ts_rejected(self, meta):
        with pytest.raises(ProtocolError):
            meta.snatch_rdlock(NULL_TS)


class TestReleaseRdlock:
    def test_only_owner_releases(self, meta):
        meta.snatch_rdlock(Timestamp(3, 0))
        assert not meta.release_rdlock(Timestamp(2, 0))  # not the owner
        assert meta.rdlock_owner == Timestamp(3, 0)
        assert meta.release_rdlock(Timestamp(3, 0))
        assert meta.rdlock_free

    def test_wait_rdlock_free(self, sim, meta):
        meta.snatch_rdlock(Timestamp(1, 0))

        def reader():
            yield from meta.wait_rdlock_free()
            return sim.now

        def releaser():
            yield sim.timeout(4.0)
            meta.release_rdlock(Timestamp(1, 0))

        sim.spawn(releaser())
        assert sim.run_process(reader()) == 4.0


class TestObsolete:
    def test_newer_local_record_makes_write_obsolete(self, meta):
        meta.set_volatile(Timestamp(5, 1))
        assert meta.is_obsolete(Timestamp(4, 3))
        assert not meta.is_obsolete(Timestamp(6, 0))

    def test_initial_record_nothing_obsolete(self, meta):
        assert not meta.is_obsolete(Timestamp(1, 0))


class TestAdvance:
    def test_monotonic_max_merge(self, meta):
        meta.set_volatile(Timestamp(5, 0))
        meta.set_volatile(Timestamp(3, 0))  # older: ignored
        assert meta.volatile_ts == Timestamp(5, 0)

    def test_all_three_timestamps_independent(self, meta):
        meta.set_volatile(Timestamp(2, 0))
        meta.set_glb_volatile(Timestamp(1, 0))
        assert meta.volatile_ts == Timestamp(2, 0)
        assert meta.glb_volatile_ts == Timestamp(1, 0)
        assert meta.glb_durable_ts == INITIAL_TS


class TestSpins:
    def test_consistency_spin_waits_for_glb_volatile(self, sim, meta):
        meta.set_volatile(Timestamp(3, 1))

        def spinner():
            yield from meta.consistency_spin()
            return sim.now

        def completer():
            yield sim.timeout(2.0)
            meta.set_glb_volatile(Timestamp(3, 1))

        sim.spawn(completer())
        assert sim.run_process(spinner()) == 2.0

    def test_consistency_spin_immediate_when_caught_up(self, sim, meta):
        def spinner():
            yield from meta.consistency_spin()
            return sim.now

        assert sim.run_process(spinner()) == 0.0

    def test_persistency_spin_waits_for_glb_durable(self, sim, meta):
        meta.set_volatile(Timestamp(2, 0))
        meta.set_glb_volatile(Timestamp(2, 0))

        def spinner():
            yield from meta.persistency_spin()
            return sim.now

        def completer():
            yield sim.timeout(7.0)
            meta.set_glb_durable(Timestamp(2, 0))

        sim.spawn(completer())
        assert sim.run_process(spinner()) == 7.0

    def test_spin_with_explicit_target(self, sim, meta):
        meta.set_volatile(Timestamp(9, 0))  # newer write in flight

        def spinner():
            yield from meta.consistency_spin(target=Timestamp(2, 0))
            return sim.now

        def completer():
            yield sim.timeout(1.0)
            meta.set_glb_volatile(Timestamp(2, 0))

        sim.spawn(completer())
        # Satisfied by the explicit (lower) target even though volatileTS
        # has moved further ahead.
        assert sim.run_process(spinner()) == 1.0


class TestMetadataTable:
    def test_lazy_creation_and_identity(self, sim):
        table = MetadataTable(sim)
        assert "k" not in table
        meta = table.get("k")
        assert table.get("k") is meta
        assert "k" in table and len(table) == 1


class TestLazyPrimitives:
    """The WRLock and the change Gate exist only once something uses
    them; until then advancing the metadata wakes nobody and schedules
    nothing."""

    def test_never_waited_record_allocates_nothing(self, sim, meta):
        meta.snatch_rdlock(Timestamp(1, 0))
        meta.set_volatile(Timestamp(1, 0))
        meta.set_glb_volatile(Timestamp(1, 0))
        meta.set_glb_durable(Timestamp(1, 0))
        meta.release_rdlock(Timestamp(1, 0))
        assert meta._wrlock is None and meta._changed is None

    def test_loaded_records_allocate_nothing(self):
        from repro import LIN_SYNCH, MINOS_B
        from repro.cluster.cluster import MinosCluster
        from repro.hw.params import MachineParams

        cluster = MinosCluster(model=LIN_SYNCH, config=MINOS_B,
                               params=MachineParams(nodes=3))
        cluster.load_records((f"k{i}", i) for i in range(50))
        for node in cluster.nodes:
            assert len(node.kv.metadata) == 50
            for key in node.kv.metadata.keys():
                meta = node.kv.meta(key)
                assert meta._wrlock is None and meta._changed is None

    def test_advancing_gateless_record_schedules_nothing(self, sim, meta):
        pushed = []
        sim.schedule_observer = lambda event, delay: pushed.append(event)
        meta.set_volatile(Timestamp(2, 0))
        meta.set_glb_volatile(Timestamp(2, 0))
        meta.snatch_rdlock(Timestamp(3, 0))
        meta.release_rdlock(Timestamp(3, 0))
        assert pushed == [] and meta._changed is None
        assert meta.volatile_ts == Timestamp(2, 0)
        assert meta.glb_volatile_ts == Timestamp(2, 0)

    def test_wrlock_created_once(self, sim, meta):
        lock = meta.wrlock
        assert meta.wrlock is lock

        def holder():
            yield meta.wrlock.acquire()

        sim.run_process(holder())
        assert lock.held

    def test_gate_created_later_sees_later_fires(self, sim, meta):
        meta.set_volatile(Timestamp(4, 0))  # advanced before any gate
        assert meta._changed is None

        def spinner():
            yield from meta.consistency_spin()
            return sim.now

        def completer():
            yield sim.timeout(3.0)
            meta.set_glb_volatile(Timestamp(4, 0))

        sim.spawn(completer())
        assert sim.run_process(spinner()) == 3.0
        assert meta._changed is not None


def test_rollback_restore_visits_every_loaded_key():
    """Rollback restore walks ``metadata.keys()``: every loaded record
    has a RecordMeta on every node, touched or not.  An orphaned RDLock
    on a record no op ever touched is released on the survivor, and the
    rebuilt node holds metadata for every loaded key."""
    from repro import LIN_SYNCH, MINOS_B
    from repro.cluster.cluster import MinosCluster
    from repro.core.recovery import RecoveryManager
    from repro.hw.params import MachineParams, us

    cluster = MinosCluster(model=LIN_SYNCH, config=MINOS_B,
                           params=MachineParams(nodes=3))
    manager = RecoveryManager(cluster, heartbeat_interval=us(50),
                              timeout=us(200))
    keys = [f"k{i}" for i in range(40)]
    cluster.load_records((key, 0) for key in keys)
    orphan = cluster.nodes[0].kv.meta("k37")
    orphan.set_glb_volatile(Timestamp(1, 2))
    assert orphan.snatch_rdlock(Timestamp(1, 2))
    manager.crash(2)
    cluster.sim.run_process(manager.restore_cluster([2]))
    assert orphan.rdlock_free
    for node in cluster.nodes:
        assert set(node.kv.metadata.keys()) == set(keys)
