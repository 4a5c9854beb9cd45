"""The baseline NIC: a store-and-forward pipe between host and network.

In MINOS-B the NIC does no protocol work: the host deposits messages in its
send queue, the NIC moves them across PCIe, pays a per-message send cost
(Table III: 200 ns for a data-carrying INV, 100 ns for a control message),
and serializes them onto the network with a 100 ns inter-message gap.  This
is exactly the bottleneck §IV identifies: "the multiple INV messages in a
transaction are sent one at a time".

Two of the Figure 12 ablation flags live here:

* ``batching`` — the host may deposit one *dest-mapped* message covering
  many destinations (a single PCIe transfer).  A baseline NIC must then
  **unpack** it into per-destination sends, paying an unpack cost per
  destination; only broadcast hardware can consume a dest map whole.
* ``broadcast`` — the NIC has a Message Broadcast Module (§V-B.3): a
  dest-mapped message is serialized onto the network once and fanned out in
  hardware.  Without a dest map there is nothing to broadcast, which is why
  broadcast alone does not help MINOS-B (§VIII-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, List, Optional

from repro.errors import ConfigError
from repro.hw.params import MachineParams
from repro.sim.kernel import Simulator
from repro.sim.network import Mailbox, Network, Packet, Port

@dataclass(slots=True)
class Envelope:
    """A message travelling between a host and its NIC, or NIC to NIC.

    ``dests`` set (a destination list) marks a *dest-mapped* (batched)
    message; otherwise ``dst`` names the single destination node.
    """

    payload: Any
    size_bytes: int
    src_node: int
    dst: Optional[int] = None
    dests: Optional[List[int]] = None
    #: Simulated time the sender deposited the message in its send queue
    #: (start of "communication time" per the paper's §IV definition).
    deposited_at: float = -1.0

    def __post_init__(self) -> None:
        if (self.dst is None) == (self.dests is None):
            raise ConfigError("Envelope needs exactly one of dst / dests")

    @property
    def is_batched(self) -> bool:
        return self.dests is not None


@lru_cache(maxsize=1024)
def nic_endpoint(node_id: int) -> str:
    """The network-fabric endpoint name for node *node_id*'s NIC.

    Memoized (bounded ``lru_cache`` on a pure function — the sanctioned
    form of the interning this does): called once per message hop, and
    the f-string rendering is measurable at that frequency.
    """
    return f"nic{node_id}"


class BaselineNic:
    """Per-node NIC for MINOS-B (optionally with batching/broadcast hw)."""

    def __init__(self, sim: Simulator, node_id: int, params: MachineParams,
                 network: Network, host_inbox: Mailbox,
                 broadcast: bool = False) -> None:
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.network = network
        self.broadcast = broadcast
        self.endpoint = nic_endpoint(node_id)
        #: Network receive queue (filled by the fabric).
        self.net_inbox = network.add_endpoint(
            self.endpoint,
            latency_s=params.network.latency,
            bandwidth_bps=params.network.bandwidth,
            gap_s=params.nic.inter_message_gap)
        #: PCIe queue of envelopes deposited by the host.
        self.from_host = Mailbox(sim, f"{self.endpoint}.from_host")
        # PCIe is full duplex: one port per direction.
        self._pcie_up = Port(sim, params.pcie.latency, params.pcie.bandwidth,
                             name=f"{self.endpoint}.pcie_up")
        self._pcie_down = Port(sim, params.pcie.latency, params.pcie.bandwidth,
                               name=f"{self.endpoint}.pcie_down")
        self._host_inbox = host_inbox
        self._host_name = f"host{node_id}"
        self.messages_sent = 0
        self.messages_received = 0
        #: Crash flag: while halted the NIC consumes and drops traffic
        #: instead of forwarding it (see :meth:`halt`).
        self.halted = False
        sim.spawn(self._tx_loop(), name=f"{self.endpoint}.tx")
        sim.spawn(self._rx_loop(), name=f"{self.endpoint}.rx")

    # -- host-side API --------------------------------------------------------

    def host_deposit(self, envelope: Envelope) -> None:
        """Host drops *envelope* into its send queue (fire and forget).

        The PCIe port model charges serialization and latency; the host is
        free immediately, matching the paper's definition that
        communication time starts at this deposit.
        """
        envelope.deposited_at = self.sim.now
        packet = Packet(payload=envelope, size_bytes=envelope.size_bytes,
                        src=self._host_name, dst=self.endpoint,
                        kind="pcie")
        self._pcie_up.post(packet, self.from_host)

    # -- crash semantics --------------------------------------------------------

    def halt(self) -> int:
        """Crash the NIC: drop everything queued and stop forwarding.

        A crashed node must not keep transmitting envelopes its host
        deposited before dying, nor deliver received packets on restart
        as if nothing happened.  Returns how many queued packets were
        dropped; packets arriving while halted are consumed and dropped
        by the tx/rx loops.
        """
        self.halted = True
        return self.from_host.clear() + self.net_inbox.clear()

    def resume(self) -> None:
        """Restart the NIC after a crash (queues start empty)."""
        self.halted = False

    # -- internals --------------------------------------------------------------

    def _send_cost(self, size_bytes: int) -> float:
        """NIC processing cost to send one message (Table III)."""
        if size_bytes > self.params.control_size:
            return self.params.nic.send_inv_cost
        return self.params.nic.send_ack_cost

    def _tx_loop(self):
        """Move envelopes from the PCIe queue onto the network."""
        while True:
            packet = yield self.from_host.get()
            if self.halted:
                continue  # crashed: consume and drop
            envelope: Envelope = packet.payload
            if envelope.is_batched:
                yield from self._tx_batched(envelope)
            else:
                yield self.sim.sleep(self._send_cost(envelope.size_bytes))
                self.messages_sent += 1
                yield self.network.send(
                    self.endpoint, nic_endpoint(envelope.dst),
                    envelope, envelope.size_bytes)

    def _tx_batched(self, envelope: Envelope):
        """Send a dest-mapped message: broadcast if we have the hardware,
        otherwise unpack into per-destination sends."""
        dests = list(envelope.dests or ())
        if self.broadcast:
            yield self.sim.timeout(self.params.snic.broadcast_setup +
                                   self._send_cost(envelope.size_bytes))
            self.messages_sent += 1
            yield self.network.broadcast(
                self.endpoint, [nic_endpoint(d) for d in dests],
                envelope, envelope.size_bytes)
            return
        # No broadcast module: the firmware walks the destination map
        # (one fixed unpack step) and replays the payload per
        # destination, as a dumb pipe's DMA engine would.
        yield self.sim.sleep(self.params.snic.batch_unpack_per_dest)
        for dst in dests:
            yield self.sim.sleep(self._send_cost(envelope.size_bytes))
            self.messages_sent += 1
            copy = Envelope(payload=envelope.payload,
                            size_bytes=envelope.size_bytes,
                            src_node=envelope.src_node, dst=dst)
            copy.deposited_at = envelope.deposited_at
            yield self.network.send(self.endpoint, nic_endpoint(dst),
                                    copy, copy.size_bytes)

    def _rx_loop(self):
        """Move received packets across PCIe into the host inbox."""
        while True:
            packet = yield self.net_inbox.get()
            if self.halted:
                continue  # crashed: consume and drop
            self.messages_received += 1
            yield self.sim.sleep(self.params.nic.recv_cost)
            down = Packet(payload=packet.payload,
                          size_bytes=packet.size_bytes,
                          src=self.endpoint, dst=self._host_name,
                          kind="pcie")
            self._pcie_down.post(down, self._host_inbox)
