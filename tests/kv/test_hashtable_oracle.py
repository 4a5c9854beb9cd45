"""Exactness of the inline-probe hashtable against the generator original.

Probe counts are charged to simulated read time, so the table's slot
layout and every per-call probe count are part of the simulator's
observable behaviour.  :class:`GeneratorHashTable` below is the earlier
implementation, kept verbatim in its probing logic as an oracle: any
sequence of operations must leave both tables with the same slot order,
return the same probe counts call by call, and accumulate the same
``total_probes``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv import hashtable
from repro.kv.hashtable import HashTable

_EMPTY = object()
_TOMBSTONE = object()


class GeneratorHashTable:
    """The generator-probing hashtable the inline loops replaced."""

    max_load = 0.7
    _MIN_CAPACITY = 8

    def __init__(self) -> None:
        self._slots = [_EMPTY] * self._MIN_CAPACITY
        self._values = [None] * self._MIN_CAPACITY
        self._live = 0
        self._used = 0
        self.total_probes = 0

    def _probe(self, key):
        mask = len(self._slots) - 1
        index = hash(key) & mask
        while True:
            yield index
            index = (index + 1) & mask

    def _find(self, key):
        probes = 0
        for index in self._probe(key):
            probes += 1
            slot = self._slots[index]
            if slot is _EMPTY:
                return None, probes
            if slot is _TOMBSTONE:
                continue
            if slot == key:
                return index, probes
        raise AssertionError("unreachable")

    def _resize(self) -> None:
        old = [(self._slots[i], self._values[i])
               for i in range(len(self._slots))
               if self._slots[i] is not _EMPTY and
               self._slots[i] is not _TOMBSTONE]
        capacity = max(self._MIN_CAPACITY, len(self._slots) * 2)
        self._slots = [_EMPTY] * capacity
        self._values = [None] * capacity
        self._live = 0
        self._used = 0
        for key, value in old:
            self.put(key, value)

    def put(self, key, value) -> int:
        if (self._used + 1) / len(self._slots) > self.max_load:
            self._resize()
        probes = 0
        insert_at = None
        for index in self._probe(key):
            probes += 1
            slot = self._slots[index]
            if slot is _TOMBSTONE:
                if insert_at is None:
                    insert_at = index
                continue
            if slot is _EMPTY:
                if insert_at is None:
                    insert_at = index
                    self._used += 1
                self._slots[insert_at] = key
                self._values[insert_at] = value
                self._live += 1
                self.total_probes += probes
                return probes
            if slot == key:
                self._values[index] = value
                self.total_probes += probes
                return probes
        raise AssertionError("unreachable")

    def get(self, key):
        index, probes = self._find(key)
        self.total_probes += probes
        return None if index is None else self._values[index]

    def probes_for(self, key) -> int:
        return self._find(key)[1]

    def delete(self, key) -> bool:
        index, probes = self._find(key)
        self.total_probes += probes
        if index is None:
            return False
        self._slots[index] = _TOMBSTONE
        self._values[index] = None
        self._live -= 1
        return True


def layout(slots, empty, tombstone):
    """A slot list with the module-private sentinels made comparable."""
    return ["<empty>" if slot is empty else
            "<tombstone>" if slot is tombstone else slot
            for slot in slots]


def assert_same_state(table: HashTable, oracle: GeneratorHashTable) -> None:
    assert layout(table._slots, hashtable._EMPTY, hashtable._TOMBSTONE) \
        == layout(oracle._slots, _EMPTY, _TOMBSTONE)
    assert table._values == oracle._values
    assert (table._live, table._used, table.total_probes) \
        == (oracle._live, oracle._used, oracle.total_probes)


#: Ints and strings: a dense key range collides heavily once masked.
KEYS = st.one_of(st.integers(min_value=0, max_value=400),
                 st.integers(min_value=0, max_value=60).map(
                     lambda i: f"user{i}"))


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(
    st.sampled_from(["put", "put", "put", "get", "probes", "delete"]),
    KEYS, st.integers()), min_size=50, max_size=500))
def test_identical_to_generator_oracle(ops):
    """Same slot order, per-call probe counts and total_probes after
    every operation, across several resizes and tombstone reuse."""
    table, oracle = HashTable(), GeneratorHashTable()
    for op, key, value in ops:
        if op == "put":
            assert table.put(key, value) == oracle.put(key, value)
        elif op == "get":
            assert table.get(key) == oracle.get(key)
        elif op == "probes":
            assert table.probes_for(key) == oracle.probes_for(key)
        else:
            assert table.delete(key) == oracle.delete(key)
        assert_same_state(table, oracle)


def test_bulk_load_crosses_many_resizes_identically():
    """The record-load pattern: thousands of fresh keys, 8 slots upward."""
    table, oracle = HashTable(), GeneratorHashTable()
    for i in range(5_000):
        assert table.put(f"user{i}", i) == oracle.put(f"user{i}", i)
    assert table.capacity == len(oracle._slots) == 8192
    assert_same_state(table, oracle)
    for i in range(0, 5_000, 7):
        assert table.probes_for(f"user{i}") == oracle.probes_for(f"user{i}")
