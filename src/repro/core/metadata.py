"""Per-record metadata (paper Figure 1(a)) and the spin primitives.

Each record in each node carries: ``RDLock_Owner``, ``WRLock``, and the
three logical timestamps ``volatileTS``, ``glb_volatileTS``,
``glb_durableTS``.  The paper's busy-wait primitives (``ConsistencySpin``,
``PersistencySpin``, waiting for the RDLock) become waits on a per-record
:class:`~repro.sim.resources.Gate` that fires whenever metadata advances —
the same visible behaviour without burning simulated CPU.

State changes here are *instantaneous*; the protocol engines charge the
platform-appropriate access costs (host CAS 42 ns, SNIC CAS 105 ns,
coherent access 60 ns) around them, since the same metadata is manipulated
from different hardware in MINOS-B vs MINOS-O.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.timestamp import INITIAL_TS, NULL_TS, Timestamp
from repro.errors import ProtocolError
from repro.sim.kernel import Simulator
from repro.sim.resources import Gate, Lock


class RecordMeta:
    """Metadata of one record replica in one node."""

    __slots__ = ("sim", "key", "rdlock_owner", "_wrlock", "volatile_ts",
                 "glb_volatile_ts", "glb_durable_ts", "_changed")

    def __init__(self, sim: Simulator, key) -> None:
        self.sim = sim
        self.key = key
        self.rdlock_owner: Timestamp = NULL_TS
        self.volatile_ts: Timestamp = INITIAL_TS
        self.glb_volatile_ts: Timestamp = INITIAL_TS
        self.glb_durable_ts: Timestamp = INITIAL_TS
        # Created on first use (see the properties below): every node
        # holds a replica of every record, and most are never locked or
        # waited on.
        self._wrlock: Optional[Lock] = None
        self._changed: Optional[Gate] = None

    @property
    def wrlock(self) -> Lock:
        """The record's WRLock, created on first access."""
        lock = self._wrlock
        if lock is None:
            lock = self._wrlock = Lock(self.sim, label=f"wrlock:{self.key}")
        return lock

    @property
    def changed(self) -> Gate:
        """Fires whenever any field of this metadata changes; created on
        first access.  Until then no process can be waiting on it, so the
        mutators below skip the (empty) fire."""
        gate = self._changed
        if gate is None:
            gate = self._changed = Gate(self.sim, label=f"meta:{self.key}")
        return gate

    # -- obsoleteness (paper "Obsolete" primitive) -------------------------------

    def is_obsolete(self, ts: Timestamp) -> bool:
        """True if a client-write stamped *ts* is older than the local
        volatile record (another write already superseded it)."""
        return ts < self.volatile_ts

    # -- RDLock ------------------------------------------------------------------

    @property
    def rdlock_free(self) -> bool:
        return self.rdlock_owner.is_null

    def snatch_rdlock(self, ts: Timestamp) -> bool:
        """The paper's "Snatch RDLock" (§III-B):

        (i) free -> grab it; (ii) held by an *older* write -> snatch it;
        (iii) held by a *younger* write -> continue without it.
        Returns whether *ts* now owns the lock.
        """
        if ts.is_null:
            raise ProtocolError("cannot lock with the null timestamp")
        if self.rdlock_owner.is_null or self.rdlock_owner < ts:
            self.rdlock_owner = ts
            if self._changed is not None:
                self._changed.fire()
            return True
        return False

    def release_rdlock(self, ts: Timestamp) -> bool:
        """Release the RDLock iff *ts* still owns it (only the current
        owner may release; a snatched-from writer's release is a no-op).
        Returns whether a release happened."""
        if self.rdlock_owner == ts:
            self.rdlock_owner = NULL_TS
            if self._changed is not None:
                self._changed.fire()
            return True
        return False

    def wait_rdlock_free(self) -> Generator:
        """Wait until the RDLock is free (read transactions stall on this)."""
        yield from self.changed.wait_for(lambda: self.rdlock_free)

    # -- timestamp advancement ------------------------------------------------------

    def _advance(self, field: str, ts: Timestamp) -> None:
        if getattr(self, field) < ts:
            setattr(self, field, ts)
            if self._changed is not None:
                self._changed.fire()

    def set_volatile(self, ts: Timestamp) -> None:
        """The local volatile replica has been updated by write *ts*."""
        self._advance("volatile_ts", ts)

    def set_glb_volatile(self, ts: Timestamp) -> None:
        """Write *ts* is consistency-complete across all replicas."""
        self._advance("glb_volatile_ts", ts)

    def set_glb_durable(self, ts: Timestamp) -> None:
        """Write *ts* is persistency-complete across all replicas."""
        self._advance("glb_durable_ts", ts)

    # -- spins (paper "ConsistencySpin" / "PersistencySpin") -------------------------

    def consistency_spin(self, target: Optional[Timestamp] = None) -> Generator:
        """Wait until the write that superseded us is consistency-complete:
        glb_volatileTS must catch up to (at least) *target*, defaulting to
        the current volatileTS — exactly "spin until glb_volatileTS in the
        local record is updated" (§III-A, Outdated Writes)."""
        goal = target if target is not None else self.volatile_ts
        yield from self.changed.wait_for(lambda: self.glb_volatile_ts >= goal)

    def persistency_spin(self, target: Optional[Timestamp] = None) -> Generator:
        """Wait until the superseding write is persistency-complete:
        glb_durableTS catches up to *target* (default: current volatileTS)."""
        goal = target if target is not None else self.volatile_ts
        yield from self.changed.wait_for(lambda: self.glb_durable_ts >= goal)


class MetadataTable:
    """All record metadata of one node, created lazily per key."""

    __slots__ = ("sim", "_records")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._records: dict = {}

    def get(self, key) -> RecordMeta:
        meta = self._records.get(key)
        if meta is None:
            meta = RecordMeta(self.sim, key)
            self._records[key] = meta
        return meta

    def __contains__(self, key) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self):
        return self._records.keys()
