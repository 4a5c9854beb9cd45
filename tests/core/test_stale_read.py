"""A read returns the value it found the RDLock free over.

``client_read`` checks the RDLock, then pays the hashtable-probe compute
and the LLC access.  An INV that lands in that window snatches the
RDLock and writes its not-yet-validated value into the volatile image.
The read already passed the lock check, so it linearizes at that check
and must return the value of that instant.  Returning the INV's value
instead lets a read on a node the INV has not reached yet, invoked after
this one returned, see the older value: a stale read.

The test finds the instant node 0 snatches the RDLock for the INV of a
write from node 1, and the instant the INV's value reaches node 0's
table, then starts a read on node 0 whose RDLock check comes just
before the snatch and whose lookup window ends after it.  On MINOS-B
the follower host also writes the value inside that window; on MINOS-O
the value waits for the vFIFO drain, so there only the snatch lands in
it.  The table holds one record, so a lookup takes one probe under any
hash seed.
"""

import pytest

from repro import LIN_SYNCH, MINOS_B, MINOS_O
from repro.cluster.cluster import MinosCluster
from repro.core.timestamp import INITIAL_TS
from repro.hw.params import DEFAULT_MACHINE


def run(config, read_at=None):
    """Write ``k`` from node 1 at t=0 and, if *read_at* is given, read it
    on node 0 from then.  Returns ``(snatched, written, read, read_done)``:
    when node 0's RDLock was snatched and when the INV's value was
    written into its table, and the read's result and end."""
    cluster = MinosCluster(model=LIN_SYNCH, config=config,
                           params=DEFAULT_MACHINE.with_nodes(3))
    cluster.load_records([("k", "v0")])
    sim = cluster.sim
    kv = cluster.nodes[0].kv
    meta = kv.meta("k")
    seen = {}
    volatile_write = kv.volatile_write

    def record_write(key, value, ts):
        seen.setdefault("written", sim.now)
        return volatile_write(key, value, ts)

    kv.volatile_write = record_write

    def watch_inv():
        yield from meta.changed.wait_for(lambda: not meta.rdlock_free)
        seen["snatched"] = sim.now

    def read():
        yield sim.timeout(read_at)
        seen["read"] = yield from cluster.nodes[0].engine.client_read("k")
        seen["read_done"] = sim.now

    sim.spawn(watch_inv())
    sim.spawn(cluster.nodes[1].engine.client_write("k", "v1"))
    if read_at is not None:
        sim.spawn(read())
    sim.run()
    return (seen["snatched"], seen["written"], seen.get("read"),
            seen.get("read_done"))


@pytest.mark.parametrize("config", [MINOS_B, MINOS_O], ids=lambda c: c.name)
def test_inv_inside_lookup_window_does_not_leak_into_read(config):
    host = DEFAULT_MACHINE.host
    # Simulated time from the read's start to its RDLock check, and the
    # lookup window after it (one probe, then one record-sized LLC
    # access), before the value used to be taken.
    to_check = host.request_overhead
    if config.offload:
        to_check += DEFAULT_MACHINE.snic.coherence_access
    window = (host.kv_lookup
              + DEFAULT_MACHINE.llc_time(DEFAULT_MACHINE.record_size))
    snatched, written, _read, _done = run(config)
    # The read must end after the snatch, and after the value write too
    # where that follows the snatch closely enough to share the window.
    must_end_after = (written if written < snatched + window
                      else snatched + window / 2)
    check_at = (must_end_after - window + snatched) / 2
    read_at = check_at - to_check
    assert read_at > 0

    snatched_again, written_again, result, done = run(config,
                                                      read_at=read_at)
    # The read changes nothing on the INV's path.
    assert (snatched_again, written_again) == (snatched, written)
    assert done == pytest.approx(check_at + window)
    # The INV lands inside the read's lookup window: the RDLock was
    # free at the check and snatched before the read ended.
    assert check_at < snatched < done
    assert (written < done) == (not config.offload)
    # The read returns the value of its lock check, not the unvalidated v1.
    assert (result.value, result.ts) == ("v0", INITIAL_TS)
