"""The traced run: host self time and counts per layer of ``repro``.

Spans are recorded from this file only, around calls into each layer:

* every process resume.  ``Simulator.spawn`` is wrapped so that each
  generator's ``send``/``throw`` is timed and charged to the module of
  the innermost generator it resumes: the ``gi_yieldfrom`` chain is
  followed to the frame where the process is suspended.  A recording
  client suspended in ``yield from engine.client_write(...)`` thus
  charges the write path to the engine, not to ``check.history``.
  Protocol-compiled engines live in ``<repro.compile:…>`` code objects
  and count as ``core.engine``;
* public boundaries: ``Simulator.run``/``run_until``, ``Port.send``/
  ``send_broadcast``/``transfer``, ``MinosKV.lookup_probes``,
  ``FaultInjector.deliveries``, the ``HistoryRecorder`` calls, the
  checkpoint hooks, ``RecoveryManager.restore_cluster``, the checker
  entry points, cluster build, record load and the protocol compiler.

A span's self time is its duration less the spans nested in it; a
layer's self time sums its spans over the whole traced run.
Compiled engines inline ``Host.compute``, ``sync_op`` and ``_reply``: a
wrapper there sees only the callers that were not inlined, which in
compiled mode is none, so the host's compute bookkeeping is counted in
``core.engine`` and the host layer reports only ``hw.host.busy_share``.

The traced run must reproduce, in the same process, the untraced run's
event count and op results; :func:`trace` raises otherwise.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List

import repro
import repro.check.runner as runner
import repro.compile
from perfbench import scenarios
from perfbench.scenarios import (BenchError, CheckSpec, failed_ops,
                                 fingerprint, patched)
from repro import MinosCluster
from repro.check import HistoryRecorder
from repro.ckpt import CheckpointManager
from repro.core.recovery import RecoveryManager
from repro.faults import FaultInjector
from repro.kv.store import MinosKV
from repro.sim.kernel import Simulator
from repro.sim.network import Port

_SRC = Path(repro.__file__).resolve().parent

#: Source module (or package) -> layer; the longest dotted prefix wins.
_LAYERS = {
    "sim": "sim.kernel",
    "sim.network": "sim.network",
    "hw.host": "hw.host",
    "hw.nic": "hw.nic",
    "hw.smartnic": "hw.smartnic",
    "hw.memory": "hw.memory",
    "core": "core.engine",
    "core.recovery": "core.recovery",
    "check.history": "check.history",
}

#: Protocol phases reported from ``Observability.phase_summaries()``.
PHASES = ("lock_acquire", "inv_fanout", "ack_wait", "log_append",
          "val_broadcast", "snic_wait", "rdlock_wait")

#: Layers whose self time is reported.
SELF_TIMED = ("sim.kernel", "sim.network", "hw.nic",
              "hw.smartnic", "core.engine", "core.recovery", "ckpt",
              "faults", "check.history")


@functools.lru_cache(maxsize=256)
def layer_of(filename: str) -> str:
    """The layer a code object's file belongs to."""
    if filename.startswith("<repro.compile"):
        return "core.engine"
    try:
        parts = Path(filename).resolve().relative_to(_SRC).with_suffix(
            "").parts
    except ValueError:
        return "other"
    for size in range(len(parts), 0, -1):
        layer = _LAYERS.get(".".join(parts[:size]))
        if layer is not None:
            return layer
    return parts[0] if parts else "other"


class LayerClock:
    """Self time per layer over a stack of open spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Process resumes per (layer, code name) of the resumed frame.
        self.resumes: Counter = Counter()
        self.spawns = 0
        self._stack: List[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._stack.pop()
        spent = time.perf_counter() - start
        self.self_s[layer] += spent - children
        if self._stack:
            self._stack[-1][2] += spent

    def attributed(self) -> float:
        return sum(self.self_s.values())

    def resumes_of(self, code_name: str) -> int:
        """Resumes of frames named *code_name*, whatever their layer."""
        return sum(count for (_layer, name), count in self.resumes.items()
                   if name == code_name)


def innermost(gen):
    """The code of the frame where *gen* is suspended: the end of its
    ``yield from`` chain of generators."""
    inner = gen.gi_yieldfrom
    while inner is not None and hasattr(inner, "gi_yieldfrom"):
        gen, inner = inner, inner.gi_yieldfrom
    return gen.gi_code


class TimedGen:
    """A generator proxy that times every resume as a span of the layer
    of the frame it resumes."""

    def __init__(self, gen, clock: LayerClock) -> None:
        self._gen = gen
        self._clock = clock
        self.__name__ = getattr(gen, "__name__", "proc")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _enter(self) -> None:
        code = innermost(self._gen)
        layer = layer_of(code.co_filename)
        self._clock.resumes[layer, code.co_name] += 1
        self._clock.enter(layer)

    def send(self, value):
        self._enter()
        try:
            return self._gen.send(value)
        finally:
            self._clock.exit()

    def throw(self, *exc):
        self._enter()
        try:
            return self._gen.throw(*exc)
        finally:
            self._clock.exit()

    def close(self):
        return self._gen.close()


class ZeroDelayCounter:
    """A ``Simulator.schedule_observer`` counting zero-delay pushes."""

    def __init__(self) -> None:
        self.pushes = 0
        self.zero = 0

    def __call__(self, _event, delay: float) -> None:
        self.pushes += 1
        if delay == 0:
            self.zero += 1


class Tracing:
    """Installs every wrapper for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.managers: List[Any] = []
        self.restores_sim_s: List[float] = []
        self.lookups = 0
        self.probes = 0
        self._stack = ExitStack()

    def _span(self, layer: str):
        clock = self.clock

        def make(original):
            def wrapper(*args, **kwargs):
                clock.enter(layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    clock.exit()
            return wrapper
        return make

    def _spawn(self, original):
        clock = self.clock

        def spawn(sim, generator, name=""):
            clock.spawns += 1
            if hasattr(generator, "gi_yieldfrom"):
                generator = TimedGen(generator, clock)
            return original(sim, generator, name=name)
        return spawn

    def _lookup_probes(self, original):
        span = self._span("kv")(original)

        def lookup_probes(kv, key):
            probes = span(kv, key)
            self.lookups += 1
            self.probes += probes
            return probes
        return lookup_probes

    def _restore_cluster(self, original):
        def restore_cluster(manager, *args, **kwargs):
            start = manager.sim.now
            result = yield from original(manager, *args, **kwargs)
            self.restores_sim_s.append(manager.sim.now - start)
            return result
        return restore_cluster

    def _recovery_init(self, original):
        def __init__(manager, *args, **kwargs):
            original(manager, *args, **kwargs)
            self.managers.append(manager)
        return __init__

    def __enter__(self) -> "Tracing":
        span = self._span
        wrappers = [
            (Simulator, "spawn", self._spawn),
            (Simulator, "run", span("sim.kernel")),
            (Simulator, "run_until", span("sim.kernel")),
            (Port, "send", span("sim.network")),
            (Port, "send_broadcast", span("sim.network")),
            (Port, "transfer", span("sim.network")),
            # A client's bookkeeping runs inside resumes charged to the
            # engine call it was suspended in; these spans take it back.
            (HistoryRecorder, "invoke", span("check.history")),
            (HistoryRecorder, "respond_write", span("check.history")),
            (HistoryRecorder, "respond_read", span("check.history")),
            (HistoryRecorder, "respond_persist", span("check.history")),
            (MinosKV, "lookup_probes", self._lookup_probes),
            (FaultInjector, "deliveries", span("faults")),
            (CheckpointManager, "local_checkpoint", span("ckpt")),
            (CheckpointManager, "on_persist", span("ckpt")),
            (RecoveryManager, "restore_cluster", self._restore_cluster),
            (RecoveryManager, "__init__", self._recovery_init),
            (MinosCluster, "__init__", span("cluster.build")),
            (MinosCluster, "load_records", span("kv.store.load")),
            (repro.compile, "compiled_engine_class", span("compile")),
            (runner, "check_linearizability", span("check.wgl")),
            (scenarios, "check_linearizability", span("check.wgl")),
            (runner, "check_rollback", span("check.rules")),
            (runner, "check_durability", span("check.rules")),
            (runner, "post_recovery_read_violations", span("check.rules")),
        ]
        for owner, name, make in wrappers:
            self._stack.enter_context(patched(owner, name, make))
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()


def _bytes_per_record(spec, seed: int) -> float:
    """Heap bytes ``load_records`` allocates per record and replica."""
    if isinstance(spec, CheckSpec):
        return 0.0
    cluster = spec.new_cluster()
    records = list(spec.workload(seed).initial_records())
    tracemalloc.start()
    try:
        cluster.load_records(records)
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return allocated / (len(records) * len(cluster.nodes))


def _phase_means(clusters) -> Dict[str, float]:
    """Mean simulated duration (us) of each protocol phase, all runs."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for cluster in clusters:
        for phase, summary in cluster.obs.phase_summaries().items():
            totals[phase][0] += summary.mean * summary.count
            totals[phase][1] += summary.count
    return {phase: (totals[phase][0] / totals[phase][1] * 1e6
                    if totals[phase][1] else 0.0) for phase in PHASES}


def _ycsb_runs(spec, seed: int):
    """Traced, untraced detached and untraced attached runs of a YCSB
    workload, in that order (the traced build pays the protocol compile)."""
    tracing = Tracing()
    zero = ZeroDelayCounter()
    with tracing:
        cluster, workload, initial = spec.build(seed, obs=True)
        cluster.sim.schedule_observer = zero
        before = tracing.clock.attributed()
        history, gen_s, run_s = spec.drive(cluster, workload)
        window = tracing.clock.attributed() - before
        failed, lin = failed_ops(history, initial)
    traced_s = gen_s + run_s
    answered = [op.responded for op in history.ops if not op.pending]
    results = fingerprint(history.ops)
    walls, gens = {}, []
    for attached in (False, True):
        plain, workload, _initial = spec.build(seed, obs=attached)
        plain_history, gen_s, run_s = spec.drive(plain, workload)
        walls[attached] = gen_s + run_s
        gens.append(gen_s)
        if plain.sim.events_processed != cluster.sim.events_processed \
                or fingerprint(plain_history.ops) != results:
            raise BenchError("the traced run did not reproduce the "
                             f"untraced run (obs attached: {attached})")
        del plain, plain_history
    return dict(
        tracing=tracing, zero=zero, clusters=[cluster], ops=history.ops,
        traced_s=traced_s, unattributed_s=traced_s - window,
        events=[cluster.sim.events_processed], runs=1,
        wgl_states=lin.states, failed=failed,
        spans=[(cluster.sim.now, max(answered, default=0.0))],
        base_s=walls[True], obs_ratio=walls[True] / walls[False],
        gen_s=statistics.median(gens))


def _check_runs(spec, seed: int):
    """Traced and untraced ``run_check`` explorations of one rep."""
    tracing = Tracing()
    zero = ZeroDelayCounter()

    def observe(cluster):
        cluster.sim.schedule_observer = zero

    with tracing:
        before = tracing.clock.attributed()
        explored = spec.explore(seed, observe)
        window = tracing.clock.attributed() - before
    report, clusters, traced_s = explored[0], explored[3], explored[4]
    traced = spec.summarize(*explored)
    plain = spec.run_once(seed)
    if (traced.events, traced.fingerprint) != (plain.events,
                                               plain.fingerprint):
        raise BenchError("the traced run_check did not reproduce the "
                         "untraced one")
    return dict(
        tracing=tracing, zero=zero, clusters=clusters, ops=traced.ops,
        traced_s=traced_s, unattributed_s=traced_s - window,
        events=[traced.events], runs=len(report.runs),
        wgl_states=sum(run.states for run in report.runs),
        failed=traced.failed, spans=traced.run_spans, base_s=plain.host_s,
        # run_check always attaches obs, so there is no detached run.
        obs_ratio=1.0, gen_s=0.0)


def trace(spec, seed: int):
    """Every per-layer metric of *spec*, from one traced run checked
    against untraced runs in this process.  Returns ``(metrics,
    attempted, failed)`` for the traced run's client ops."""
    Metric = scenarios.Metric
    seed *= spec.inputs  # the measured run's first input set
    run = (_check_runs if isinstance(spec, CheckSpec) else _ycsb_runs)(
        spec, seed)
    tracing: Tracing = run["tracing"]
    clock = tracing.clock
    clusters = run["clusters"]
    nodes = [node for cluster in clusters for node in cluster.nodes]
    answered = [op for op in run["ops"] if not op.pending]
    ops = max(len(answered), 1)
    writes = max(sum(1 for op in answered if op.kind == "write"), 1)
    ports = [cluster.network.port(name) for cluster in clusters
             for name in cluster.network.endpoints()]
    gauges: Dict[str, List[float]] = defaultdict(list)
    for cluster in clusters:
        for registry in cluster.obs.registries().values():
            for fifo in ("vfifo", "dfifo"):
                gauges[fifo].extend(
                    value for _t, value in
                    registry.gauge_samples(f"snic.{fifo}.depth"))
    counters = [cluster.metrics.counters for cluster in clusters]
    managers = [c.checkpoints for c in clusters if c.checkpoints]
    injectors = [c.fault_injector for c in clusters if c.fault_injector]
    sim_end = sum(end for end, _last in run["spans"])
    idle = sum(end - last for end, last in run["spans"])
    restores = tracing.restores_sim_s
    capacity = sum(len(c.nodes) * c.params.host.cores * c.sim.now
                   for c in clusters)
    zero = run["zero"]

    def count(value):
        return Metric(value, "count")

    metrics = {
        "sim.kernel.events": count(sum(run["events"])),
        "sim.kernel.events_per_op": Metric(sum(run["events"]) / ops, "1/op"),
        "sim.kernel.spawns_per_op": Metric(clock.spawns / ops, "1/op"),
        "sim.kernel.zero_delay_share": Metric(
            zero.zero / max(zero.pushes, 1), "share"),
        "sim.network.packets_per_write": Metric(
            sum(p.packets_sent for p in ports) / writes, "1/write"),
        "sim.network.bytes_per_write": Metric(
            sum(p.bytes_sent for p in ports) / writes, "B/write"),
        "hw.host.busy_share": Metric(
            sum(n.host.busy_time for n in nodes) / capacity, "share"),
        "hw.smartnic.vfifo_enqueues": count(len(gauges["vfifo"])),
        "hw.smartnic.dfifo_enqueues": count(len(gauges["dfifo"])),
        "hw.smartnic.vfifo_peak_depth": count(max(gauges["vfifo"],
                                                  default=0)),
        "hw.smartnic.dfifo_peak_depth": count(max(gauges["dfifo"],
                                                  default=0)),
        "hw.memory.nvm_persists_per_write": Metric(
            sum(n.host.nvm.ops for n in nodes) / writes, "1/write"),
        "core.engine.writes_obsolete": count(
            sum(c.writes_obsolete for c in counters)),
        "core.engine.rdlock_snatches": count(
            sum(c.rdlock_snatches for c in counters)),
        "core.engine.read_stalls": count(sum(c.read_stalls for c in counters)),
        "core.recovery.heartbeats": count(clock.resumes_of("_heartbeat_loop")),
        "core.recovery.detections": count(
            sum(m.detections for m in tracing.managers)),
        "core.recovery.restore_sim_us": Metric(
            statistics.fmean(restores) * 1e6 if restores else 0.0, "us"),
        "check.idle_sim_share": Metric(idle / sim_end, "share"),
        "compile.setup_s": Metric(clock.self_s["compile"], "s"),
        "cluster.build_s": Metric(clock.self_s["cluster.build"], "s"),
        "kv.store.load_s": Metric(clock.self_s["kv.store.load"], "s"),
        "kv.store.bytes_per_record": Metric(_bytes_per_record(spec, seed),
                                            "B/record"),
        "kv.hashtable.probes_per_lookup": Metric(
            tracing.probes / max(tracing.lookups, 1), "1/lookup"),
        "kv.log.appends_per_write": Metric(
            sum(n.kv.log.appends for n in nodes) / writes, "1/write"),
        "kv.log.peak_len": count(max(n.kv.log.peak_length for n in nodes)),
        "ckpt.rounds": count(sum(m.rounds_completed + m.cic_checkpoints
                                 for m in managers)),
        "ckpt.truncated_entries": count(
            sum(n.kv.log.truncated_total for n in nodes)),
        "faults.injected": count(sum(i.counters.faults()
                                     for i in injectors)),
        "check.runs": count(run["runs"]),
        "check.wgl_s": Metric(clock.self_s["check.wgl"], "s"),
        "check.wgl_states": count(run["wgl_states"]),
        "check.rules_s": Metric(clock.self_s["check.rules"], "s"),
        "workloads.gen_s": Metric(run["gen_s"], "s"),
        "obs.attached_wall_ratio": Metric(run["obs_ratio"], "ratio"),
        "trace.overhead_ratio": Metric(run["traced_s"] / run["base_s"],
                                       "ratio"),
        "trace.unattributed_s": Metric(run["unattributed_s"], "s"),
    }
    for layer in SELF_TIMED:
        metrics[f"{layer}.self_s"] = Metric(clock.self_s[layer], "s")
    for phase, mean_us in _phase_means(clusters).items():
        metrics[f"core.engine.phase.{phase}_us"] = Metric(mean_us, "us")
    return metrics, len(run["ops"]), run["failed"]
