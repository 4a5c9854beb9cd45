"""The cluster-level checkpoint coordinator.

:class:`CheckpointManager` drives two truncation mechanisms over the
engines' ``ckpt`` attachment point (same post-construction pattern as
the obs / robustness hooks — ``None`` keeps every hook at one
attribute check, so checkpointing-off runs keep a byte-identical event
calendar):

* **Coordinated rounds** — a periodic (or on-demand) barrier: the
  coordinator engine quiesces per the persistency model
  (:meth:`repro.core.engine.EngineBase.ckpt_quiesce`), fences its
  ``NvmLog``, broadcasts ``CKPT`` over the protocol fabric, and every
  follower quiesces, fences, and answers ``CKPT_ACK``.  The set of
  per-node fences of one round is a *checkpoint line*
  (:class:`CheckpointLine`) — the restore target of
  :meth:`repro.core.recovery.RecoveryManager.restore_cluster`.
* **Communication-induced checkpoints (CIC)** — each engine's
  ``_persist_record`` / ``_durable_enqueue`` calls :meth:`on_persist`;
  when the node's live log crosses ``watermark`` entries, a local
  quiesce-and-fence runs with no messages at all, giving incremental
  truncation between rounds.

Lost ``CKPT`` messages are retransmitted toward the unacknowledged
followers (same-seq, so the follower-side dedup answers duplicates with
the recorded ``CKPT_ACK`` instead of re-fencing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.hw.params import us
from repro.sim.events import Event

__all__ = ["CheckpointConfig", "CheckpointLine", "CheckpointManager"]


@dataclass(frozen=True)
class CheckpointConfig:
    """Tuning knobs for :class:`CheckpointManager`.

    ``interval`` — simulated seconds between coordinated rounds
    (``None``: no periodic driver; rounds run only via
    :meth:`CheckpointManager.checkpoint_now`).  ``watermark`` — live
    log entries that trigger a CIC on a node (0: CIC off).
    ``coordinator`` — node id that initiates coordinated rounds.
    """

    interval: Optional[float] = None
    watermark: int = 0
    coordinator: int = 0
    #: Barrier-ack retransmit timer (meaningful under a fault plan).
    ack_timeout: float = us(500)
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.interval is not None and self.interval <= 0:
            raise ConfigError("checkpoint interval must be positive")
        if self.watermark < 0:
            raise ConfigError("checkpoint watermark must be >= 0")


@dataclass
class CheckpointLine:
    """One completed coordinated round: the consistent restore line."""

    round_id: int
    initiated_at: float
    completed_at: Optional[float] = None
    #: node id -> the node's ``NvmLog.checkpoint_serial`` after its fence.
    serials: Dict[int, int] = field(default_factory=dict)
    #: Followers that acknowledged (the coordinator fences locally).
    acked: List[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.completed_at is not None


class CheckpointManager:
    """Coordinates checkpoint rounds and CIC truncation for one cluster.

    Create via :meth:`repro.cluster.cluster.MinosCluster.enable_checkpoints`,
    which attaches the manager as every engine's ``ckpt`` hook.
    """

    __slots__ = ("cluster", "sim", "config", "lines", "rounds_started",
                 "rounds_completed", "cic_checkpoints", "_round_seq",
                 "_round_acks", "_round_events", "_round_msgs",
                 "_cic_active", "_driver_started")

    def __init__(self, cluster, config: CheckpointConfig) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config
        self.lines: List[CheckpointLine] = []
        self.rounds_started = 0
        self.rounds_completed = 0
        self.cic_checkpoints = 0
        self._round_seq = 0
        #: round id -> set of follower node ids that acked.
        self._round_acks: Dict[int, set] = {}
        self._round_events: Dict[int, Event] = {}
        #: round id -> the stamped CKPT message (for retransmits).
        self._round_msgs: Dict[int, object] = {}
        #: node ids with a CIC quiesce in flight (re-entry guard).
        self._cic_active: set = set()
        self._driver_started = False

    # -- attachment ---------------------------------------------------------

    def attach(self) -> None:
        """Install this manager as every engine's ``ckpt`` hook and start
        the periodic round driver (when an interval is configured)."""
        for node in self.cluster.nodes:
            node.engine.ckpt = self
        if self.config.interval is not None and not self._driver_started:
            self._driver_started = True
            self.sim.spawn(self._driver(), name="ckpt.driver")

    def _driver(self):
        while True:
            yield self.sim.timeout(self.config.interval)
            coord = self._coordinator_engine()
            if coord is None:
                continue  # coordinator down: skip this tick
            yield from self.run_round()

    def _coordinator_engine(self):
        for node in self.cluster.nodes:
            if node.node_id == self.config.coordinator:
                return None if node.engine.crashed else node.engine
        return None

    # -- coordinated rounds -------------------------------------------------

    def checkpoint_now(self):
        """Run one coordinated round to completion (process helper)."""
        yield from self.run_round()

    def run_round(self):
        """One barrier round: coordinator fence + broadcast, then wait
        for every alive follower's CKPT_ACK (retransmitting toward the
        missing ones)."""
        coord = self._coordinator_engine()
        if coord is None:
            return
        self._round_seq += 1
        round_id = self._round_seq
        self.rounds_started += 1
        line = CheckpointLine(round_id=round_id, initiated_at=self.sim.now)
        self.lines.append(line)
        self._round_acks[round_id] = set()
        done = Event(self.sim, label=f"ckpt.round{round_id}")
        self._round_events[round_id] = done
        if coord.obs is not None:
            coord.obs.instant(coord.node_id, "ckpt_round_start",
                              round=round_id)
        yield from coord.ckpt_initiate(round_id)
        self._check_round(round_id)
        delay = self.config.ack_timeout
        for _attempt in range(self.config.max_retries):
            if done.triggered:
                break
            yield self.sim.any_of([done, self.sim.timeout(delay)])
            if done.triggered:
                break
            targets = sorted(self._missing_followers(round_id))
            if not targets:
                self._check_round(round_id)
                continue
            msg = self._round_msgs.get(round_id)
            if msg is not None:
                resend = getattr(coord, "_snic_resend", None)
                if resend is None:
                    resend = coord._resend
                yield from resend(msg, targets)
            delay *= 2
        self._finish_round(coord, line)

    def _expected_followers(self, round_id: int) -> set:
        return {node.node_id for node in self.cluster.nodes
                if not node.engine.crashed
                and node.node_id != self.config.coordinator}

    def _missing_followers(self, round_id: int) -> set:
        return (self._expected_followers(round_id)
                - self._round_acks.get(round_id, set()))

    def _check_round(self, round_id: int) -> None:
        done = self._round_events.get(round_id)
        if done is None or done.triggered:
            return
        if not self._missing_followers(round_id):
            done.succeed()

    def _finish_round(self, coord, line: CheckpointLine) -> None:
        line.completed_at = self.sim.now
        line.acked = sorted(self._round_acks.pop(line.round_id, set()))
        self._round_events.pop(line.round_id, None)
        self._round_msgs.pop(line.round_id, None)
        self.rounds_completed += 1
        if coord.obs is not None:
            coord.obs.seg(coord.node_id, -line.round_id, "ckpt_round",
                          line.initiated_at, line.completed_at,
                          lane="ckpt", acked=len(line.acked))

    # -- engine-side hooks --------------------------------------------------

    def register_round_msg(self, round_id: int, msg) -> None:
        """The coordinator engine built the round's CKPT message; keep it
        for same-seq retransmits toward unacked followers."""
        self._round_msgs[round_id] = msg

    def on_ack(self, msg) -> None:
        """A CKPT_ACK arrived at the coordinator (idempotent)."""
        round_id = msg.persist_id
        acks = self._round_acks.get(round_id)
        if acks is None:
            return  # stale ack of an already-finished round
        acks.add(msg.src)
        self._check_round(round_id)

    def local_checkpoint(self, engine, round_id: Optional[int] = None) -> int:
        """Fence *engine*'s NvmLog (the engine already quiesced); record
        the truncation metrics and — for a coordinated round — the node's
        fence serial on the checkpoint line."""
        log = engine.kv.log
        truncated = log.checkpoint()
        if round_id is not None:
            for line in reversed(self.lines):
                if line.round_id == round_id:
                    line.serials[engine.node_id] = log.checkpoint_serial
                    break
        if engine.obs is not None:
            engine.obs.inc(engine.node_id, "log_truncated_entries",
                           truncated)
            engine.obs.gauge(engine.node_id, "log_peak_length",
                             log.peak_length)
            engine.obs.gauge(engine.node_id, "log_length", len(log))
            engine.obs.instant(engine.node_id, "checkpoint",
                               round=round_id, truncated=truncated)
        return truncated

    def on_persist(self, engine) -> None:
        """Per-persist CIC hook: when the node's live log crosses the
        watermark, spawn a local quiesce-and-fence (no messages)."""
        watermark = self.config.watermark
        if watermark <= 0 or len(engine.kv.log) < watermark:
            return
        if engine.node_id in self._cic_active:
            return
        self._cic_active.add(engine.node_id)
        self.sim.spawn(self._cic(engine),
                       name=f"n{engine.node_id}.ckpt.cic")

    def _cic(self, engine):
        try:
            yield from engine.ckpt_quiesce()
            # Another fence may have truncated the log while we quiesced.
            if len(engine.kv.log) >= self.config.watermark:
                self.cic_checkpoints += 1
                self.local_checkpoint(engine)
        finally:
            self._cic_active.discard(engine.node_id)
