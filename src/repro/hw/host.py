"""The host side of a node: cores, LLC, NVM, and PCIe attachment points.

A :class:`Host` owns the compute resource that both client operations and
(in MINOS-B) protocol message handlers contend for, plus the timed memory
devices.  Communication hardware (NIC or SmartNIC) is attached by
:mod:`repro.hw.node`.
"""

from __future__ import annotations

from typing import Generator

from repro.hw.memory import Llc, NvmDevice
from repro.hw.params import MachineParams
from repro.sim.kernel import Simulator
from repro.sim.network import Mailbox
from repro.sim.resources import Resource


class Host:
    """Host CPU + memory hierarchy of one node."""

    def __init__(self, sim: Simulator, node_id: int,
                 params: MachineParams) -> None:
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.cores = Resource(sim, params.host.cores,
                              label=f"host{node_id}.cores")
        self.llc = Llc(sim, params.host.llc_access_per_kb,
                       name=f"host{node_id}.llc")
        self.nvm = NvmDevice(sim, params.host.nvm_persist_per_kb,
                             name=f"host{node_id}.nvm")
        #: Messages delivered to the host (from its NIC over PCIe).
        self.inbox = Mailbox(sim, f"host{node_id}.inbox")
        #: Cumulative busy time, for utilization reporting.
        self.busy_time = 0.0

    def compute(self, duration: float) -> Generator:
        """Occupy one host core for *duration* seconds.

        Usage: ``yield from host.compute(t)``.  Blocks until a core is
        free; cores are granted FIFO.
        """
        if duration <= 0:
            return
        yield self.cores.request()
        try:
            # The sleep fires exactly *duration* later, so the busy-time
            # delta is known without re-reading the clock.
            yield self.sim.sleep(duration)
            self.busy_time += duration
        finally:
            self.cores.release()

    def sync_op(self) -> Generator:
        """One synchronization operation (compare-and-swap) on the host.

        Returns the :meth:`compute` generator itself rather than
        wrapping it: ``yield from host.sync_op()`` then runs one frame
        instead of two."""
        return self.compute(self.params.host.sync_latency)
