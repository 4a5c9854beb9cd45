"""An open-addressing hashtable — the MINOS-KV back-end (paper §VII).

The paper's back-end in-memory application is a hashtable; we implement one
from scratch (linear probing, tombstone deletion, automatic resize) rather
than hiding behind ``dict`` so that (a) the store is a genuine substrate
with its own tests and invariants, and (b) lookup cost can be charged per
probe by the timing layer (:meth:`probes_for` reports the probe count of
the most natural charging model).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

from repro.errors import KVError

_EMPTY = object()
_TOMBSTONE = object()


class HashTable:
    """Linear-probing open-addressing hashtable.

    Grows (doubling) when the load factor — live plus tombstone slots —
    exceeds ``max_load``.  Keys must be hashable; values are arbitrary.
    """

    #: Fraction of occupied slots that triggers a resize.
    max_load = 0.7
    _MIN_CAPACITY = 8

    def __init__(self, initial_capacity: int = _MIN_CAPACITY) -> None:
        if initial_capacity < 1:
            raise KVError("initial_capacity must be >= 1")
        capacity = self._MIN_CAPACITY
        while capacity < initial_capacity:
            capacity *= 2
        self._slots: list = [_EMPTY] * capacity
        self._values: list = [None] * capacity
        self._live = 0
        self._used = 0  # live + tombstones
        self.total_probes = 0

    # -- internals ---------------------------------------------------------
    #
    # The probe loops are written out inline: every record load and every
    # timed lookup runs them, and a shared generator would cost a frame
    # per call.  Each walks the linear sequence ``hash(key) & mask, +1,
    # +2, ...`` and counts one probe per slot it reads.

    def _find(self, key: Any) -> Tuple[Optional[int], int]:
        """Locate *key*.  Returns ``(slot_index_or_None, probes)``."""
        slots = self._slots
        mask = len(slots) - 1
        index = hash(key) & mask
        probes = 1
        while True:
            slot = slots[index]
            if slot is _EMPTY:
                return None, probes
            if slot is not _TOMBSTONE and slot == key:
                return index, probes
            if probes >= len(slots):  # pragma: no cover - safety net
                raise KVError("hashtable probe loop exhausted the table")
            index = (index + 1) & mask
            probes += 1

    def _resize(self) -> None:
        """Double the table, re-inserting live keys in old-slot order.

        The fresh table has no tombstones and the live keys are pairwise
        unequal, so each key lands in the first empty slot of its probe
        sequence, exactly where :meth:`put` would place it; the probes
        are charged to :attr:`total_probes` as :meth:`put` would."""
        old_slots, old_values = self._slots, self._values
        capacity = max(self._MIN_CAPACITY, len(old_slots) * 2)
        mask = capacity - 1
        slots: list = [_EMPTY] * capacity
        values: list = [None] * capacity
        live = probes = 0
        for key, value in zip(old_slots, old_values):
            if key is _EMPTY or key is _TOMBSTONE:
                continue
            index = hash(key) & mask
            probes += 1
            while slots[index] is not _EMPTY:
                index = (index + 1) & mask
                probes += 1
            slots[index] = key
            values[index] = value
            live += 1
        self._slots = slots
        self._values = values
        self._live = self._used = live
        self.total_probes += probes

    # -- API -----------------------------------------------------------------

    def put(self, key: Any, value: Any) -> int:
        """Insert or overwrite; returns the number of probes used."""
        if (self._used + 1) / len(self._slots) > self.max_load:
            self._resize()
        slots = self._slots
        mask = len(slots) - 1
        index = hash(key) & mask
        probes = 1
        insert_at = None
        while True:
            slot = slots[index]
            if slot is _EMPTY:
                if insert_at is None:
                    insert_at = index
                    self._used += 1
                slots[insert_at] = key
                self._values[insert_at] = value
                self._live += 1
                self.total_probes += probes
                return probes
            if slot is _TOMBSTONE:
                if insert_at is None:
                    insert_at = index
            elif slot == key:
                self._values[index] = value
                self.total_probes += probes
                return probes
            index = (index + 1) & mask
            probes += 1

    def get(self, key: Any, default: Any = None) -> Any:
        index, probes = self._find(key)
        self.total_probes += probes
        if index is None:
            return default
        return self._values[index]

    def probes_for(self, key: Any) -> int:
        """Probe count a lookup of *key* costs right now (timing model)."""
        _index, probes = self._find(key)
        return probes

    def delete(self, key: Any) -> bool:
        """Remove *key*; returns whether it was present."""
        index, probes = self._find(key)
        self.total_probes += probes
        if index is None:
            return False
        self._slots[index] = _TOMBSTONE
        self._values[index] = None
        self._live -= 1
        return True

    def __contains__(self, key: Any) -> bool:
        index, _probes = self._find(key)
        return index is not None

    def __len__(self) -> int:
        return self._live

    @property
    def capacity(self) -> int:
        return len(self._slots)

    @property
    def load_factor(self) -> float:
        return self._used / len(self._slots)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        for i, slot in enumerate(self._slots):
            if slot is not _EMPTY and slot is not _TOMBSTONE:
                yield slot, self._values[i]
