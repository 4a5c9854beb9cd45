"""The benchmark's workloads and their measured (untraced) runs.

Every workload is closed loop: a client issues its next operation only
after the previous one responded.  Everything runs in this one process
on one thread; nothing goes through ``run_sharded`` or multiprocessing.

A *rep* runs one workload once on a freshly built cluster.  A run cycles
its reps over a fixed number of input sets.  The first rep of each input
set is checked; a later rep of the same inputs must, within the process,
produce the same event count and the same op results.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional

from repro import MinosCluster
from repro.check import (History, HistoryRecorder, RecordingClient,
                         check_linearizability, run_check)
from repro.ckpt import CheckpointConfig
from repro.core.config import config_by_name
from repro.core.model import model_by_name
from repro.hw.params import DEFAULT_MACHINE
from repro.workloads.ycsb import YcsbWorkload

#: Host seconds after which one rep is declared hung.  ``run_check``'s
#: post-run probe reads spin forever when a read never completes after a
#: restore, because the heartbeat loops keep the calendar non-empty.
REP_TIMEOUT_S = 60
#: A simulated percentile needs this many samples beyond it.
MIN_BEYOND = 10
#: YCSB cluster shape: nodes and closed-loop clients per node.
NODES = 5
CLIENTS_PER_NODE = 3
#: ``check-disaster``: cluster nodes, nodes crashed at once, CIC log
#: watermark and client ops per ``run_check`` client.
DISASTER_NODES = 3
DISASTER_VICTIMS = 2
DISASTER_WATERMARK = 8
DISASTER_OPS_PER_CLIENT = 16


class BenchError(RuntimeError):
    """The run cannot produce a valid result (a hang or too few samples)."""


@contextmanager
def patched(owner: Any, name: str, make: Callable[[Any], Any]):
    """Replace ``owner.name`` with ``make(original)`` for the block."""
    original = owner.__dict__[name]
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def watchdog(seconds: int):
    """Raise :class:`BenchError` in this thread after *seconds*."""
    def expire(_signum, _frame):
        raise BenchError(f"a rep ran longer than {seconds} s of host time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def fingerprint(ops) -> tuple:
    """What a client saw, op by op: the identity of two runs' results."""
    return tuple(
        (op.client, op.kind, op.key, op.value, op.invoked, op.responded,
         None if op.ts is None else (op.ts.version, op.ts.node_id),
         op.obsolete)
        for op in ops)


def failed_ops(history: History, initial: Dict[Any, Any]):
    """Ops that were never answered, plus one op per key whose history
    has no linearization (checked from the pre-loaded *initial* values).
    Such a key holds at least one op that misbehaved.  Counting all of
    its ops would make one stale read on a hot zipfian key fail hundreds,
    so that the share measured key popularity; finding the few culprits
    with ``shrink_history`` takes minutes on a hot key.
    Returns ``(failed, linearizability report)``."""
    report = check_linearizability(history, initial)
    failed = sum(1 for op in history.ops if op.pending)
    return failed + len(report.failing_keys), report


def stale_read(ops) -> Optional[str]:
    """The first read of one key's *ops* that returned an older timestamp
    than an op which had already responded when the read was invoked,
    described in one line; None if there is none.

    MINOS orders a key's values by timestamp, so such a read breaks
    linearizability.  This only explains a failing key; the verdict is
    :func:`check_linearizability`'s."""
    seen = sorted((op for op in ops if not op.pending and op.ts is not None
                   and not (op.kind == "write" and op.obsolete)),
                  key=lambda op: op.responded)
    newest, index = None, 0
    for read in sorted((op for op in ops if op.kind == "read"
                        and not op.pending), key=lambda op: op.invoked):
        while index < len(seen) and seen[index].responded < read.invoked:
            if newest is None or newest.ts < seen[index].ts:
                newest = seen[index]
            index += 1
        if newest is not None and read.ts < newest.ts:
            return (f"{read.kind} op {read.op_id} ({read.client}) invoked at "
                    f"{read.invoked * 1e6:.3f} us returned {read.ts}, but "
                    f"{newest.kind} op {newest.op_id} ({newest.client}) had "
                    f"returned {newest.ts} at {newest.responded * 1e6:.3f} us")
    return None


@dataclass
class Rep:
    """One run of a workload."""

    #: Host seconds on the rate clock.
    host_s: float
    #: Calendar entries processed.
    events: int
    #: Client ops (probes excluded), answered or not.
    ops: list
    #: Client ops answered.
    completed: int
    #: Simulated seconds until the last client response (summed over runs).
    active_sim_s: float
    fingerprint: tuple
    failed: Optional[int] = None
    #: What the checker needs, until the rep is checked.
    check_input: Any = None
    #: Per simulated run: (sim end, last client response) in seconds.
    run_spans: List[tuple] = field(default_factory=list)
    #: The input set's seed, and what its check found wrong.
    seed: int = 0
    findings: List[str] = field(default_factory=list)
    #: The host's speed around the rep, from :func:`calibration`.
    loops_per_s: float = 0.0


@dataclass(frozen=True)
class YcsbSpec:
    """A YCSB run on one cluster, with every client recording its history."""

    name: str
    arch: str
    model: str
    records: int
    requests_per_client: int
    write_fraction: float
    distribution: str
    persist_every: Optional[int] = None
    #: Live NVM-log entries that trigger a CIC checkpoint (0: none).
    watermark: int = 0
    #: Percentile reported as ``sim_*_tail_us``.
    tail: float = 0.99
    #: Distinct input sets per run; simulated metrics pool all of them.
    inputs: int = 4

    def new_cluster(self):
        cluster = MinosCluster(model=model_by_name(self.model),
                               config=config_by_name(self.arch),
                               params=DEFAULT_MACHINE.with_nodes(NODES))
        if self.watermark:
            cluster.enable_checkpoints(
                CheckpointConfig(watermark=self.watermark))
        return cluster

    def workload(self, seed: int) -> YcsbWorkload:
        return YcsbWorkload(
            records=self.records,
            requests_per_client=self.requests_per_client,
            write_fraction=self.write_fraction,
            distribution=self.distribution, seed=seed,
            persist_every=self.persist_every)

    def build(self, seed: int, obs: bool = False):
        """Set-up: the cluster (protocol compile included) and its records."""
        cluster = self.new_cluster()
        if obs:
            cluster.attach_obs()
        workload = self.workload(seed)
        initial = dict(workload.initial_records())
        cluster.load_records(initial.items())
        return cluster, workload, initial

    def drive(self, cluster, workload):
        """The closed loop of ``MinosCluster.run_workload`` with recording
        clients.  Returns ``(history, gen_s, run_s)``."""
        start = time.perf_counter()
        recorder = HistoryRecorder(cluster.sim)
        clients = [
            RecordingClient(cluster, node.engine,
                            iter(list(workload.ops_for(node.node_id, idx))),
                            recorder, idx)
            for node in cluster.nodes
            for idx in range(CLIENTS_PER_NODE)]
        generated = time.perf_counter()
        for index, client in enumerate(clients):
            cluster.sim.spawn(client.run(), name=f"client.{index}")
        # run_workload pauses the cyclic GC for the run; so does this loop.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            cluster.sim.run()
        finally:
            if was_enabled:
                gc.enable()
        return recorder.history(), generated - start, \
            time.perf_counter() - generated

    def run_once(self, seed: int) -> Rep:
        cluster, workload, initial = self.build(seed)
        with watchdog(REP_TIMEOUT_S):
            history, gen_s, run_s = self.drive(cluster, workload)
        answered = [op.responded for op in history.ops if not op.pending]
        return Rep(host_s=gen_s + run_s,
                   events=cluster.sim.events_processed,
                   ops=history.ops, completed=len(answered),
                   active_sim_s=max(answered, default=0.0),
                   fingerprint=fingerprint(history.ops),
                   check_input=(history, initial),
                   run_spans=[(cluster.sim.now, max(answered, default=0.0))],
                   seed=seed)

    @staticmethod
    def check(rep: Rep) -> int:
        history, initial = rep.check_input
        failed, report = failed_ops(history, initial)
        if failed:
            rep.findings.append(f"keys with no linearization: "
                                f"{report.failing_keys}")
            per_key = history.per_key()
            for key in report.failing_keys:
                why = stale_read(per_key[key])
                if why is not None:
                    rep.findings.append(f"key {key}: {why}")
        return failed


@dataclass(frozen=True)
class CheckSpec:
    """``run_check`` disaster exploration: the last *victims* nodes crash
    at once and restore by rollback to CIC checkpoints."""

    name: str
    #: Exploration seeds per rep, taken from the benchmark seed.
    seeds: int = 3
    tail: float = 0.75
    #: Every rep explores the same seeds: one input set.
    inputs: ClassVar[int] = 1

    def build(self, seed: int):
        """Set-up: the first cluster ``run_check`` builds."""
        cluster = MinosCluster(model=model_by_name("synch"),
                               config=config_by_name("MINOS-B"),
                               params=DEFAULT_MACHINE.with_nodes(
                                   DISASTER_NODES))
        return cluster, None, {}

    def explore(self, seed: int, setup: Optional[Callable] = None):
        """One ``run_check`` call.  Returns ``(report, recorders, client
        names, clusters, host_s)``; ``recorders[i]`` and ``clusters[i]``
        belong to ``report.runs[i]``."""
        recorders: List[Any] = []
        names: set = set()
        clusters: List[Any] = []

        def capture(original):
            def __init__(client, cluster, engine, ops, recorder, *args,
                         **kwargs):
                original(client, cluster, engine, ops, recorder, *args,
                         **kwargs)
                names.add(client.name)
                if not recorders or recorders[-1] is not recorder:
                    recorders.append(recorder)
            return __init__

        def on_cluster(cluster):
            clusters.append(cluster)
            if setup is not None:
                setup(cluster)

        with patched(RecordingClient, "__init__", capture), \
                watchdog(REP_TIMEOUT_S):
            start = time.perf_counter()
            report = run_check(
                model="synch", config="MINOS-B", nodes=DISASTER_NODES,
                victims=DISASTER_VICTIMS, seeds=self.seeds,
                base_seed=seed * self.seeds,
                ops_per_client=DISASTER_OPS_PER_CLIENT,
                checkpoints=CheckpointConfig(watermark=DISASTER_WATERMARK),
                setup=on_cluster)
            host_s = time.perf_counter() - start
        if not len(report.runs) == len(recorders) == len(clusters):
            raise BenchError("run_check runs, recorders and clusters "
                             "do not pair up")
        return report, recorders, names, clusters, host_s

    def run_once(self, seed: int, setup: Optional[Callable] = None) -> Rep:
        rep = self.summarize(*self.explore(seed, setup))
        rep.seed = seed
        return rep

    @staticmethod
    def summarize(report, recorders, names, clusters, host_s) -> Rep:
        """A :class:`Rep` of one exploration's client ops and verdicts."""
        ops: list = []
        completed = failed = 0
        spans: List[tuple] = []
        findings: List[str] = []
        for outcome, recorder, cluster in zip(report.runs, recorders,
                                              clusters):
            client_ops = [op for op in recorder.ops if op.client in names]
            answered = [op.responded for op in client_ops
                        if not op.pending]
            spans.append((cluster.sim.now, max(answered, default=0.0)))
            ops.extend(client_ops)
            completed += len(answered)
            # The verdict is the RunOutcome's: ops a crashed client lost
            # legally stay pending and are not failures.
            if not outcome.ok:
                failed += len(client_ops)
                findings.append(f"{outcome.label}: {outcome.violations}")
        return Rep(host_s=host_s,
                   events=sum(c.sim.events_processed for c in clusters),
                   ops=ops, completed=completed,
                   active_sim_s=sum(last for _end, last in spans),
                   fingerprint=(fingerprint(ops),
                                [run.to_dict() for run in report.runs]),
                   failed=failed, run_spans=spans, findings=findings)

    @staticmethod
    def check(rep: Rep) -> int:
        return rep.failed


WORKLOADS: Dict[str, Any] = {spec.name: spec for spec in (
    # Paper Fig. 9 shape, the default macro: INV/ACK/VAL fan-out makes
    # ~123 calendar entries per op, so kernel, fabric, NIC and engine
    # carry the work.
    YcsbSpec("ycsb-b-write", arch="MINOS-B", model="synch", records=200,
             requests_per_client=400, write_fraction=0.5,
             distribution="zipfian", inputs=6),
    # The only workload where the SmartNIC vFIFO/dFIFO, batching,
    # broadcast and [PERSIST]sc do real work.
    YcsbSpec("ycsb-o-scope", arch="MINOS-O", model="scope", records=200,
             requests_per_client=400, write_fraction=0.5,
             distribution="zipfian", persist_every=8, inputs=6),
    # Host-local reads over a large table: record load, RSS and hashtable
    # probes dominate, kernel and fabric idle.  2 000 requests per client
    # give ~1 500 writes per input set.  CIC checkpoints at 64 live log
    # entries (~115 per rep) bound the NVM log, so ckpt and log
    # truncation run on a gated workload; under Synch their fences leave
    # the simulated timing unchanged.
    YcsbSpec("ycsb-read-large", arch="MINOS-B", model="synch",
             records=20_000, requests_per_client=2_000,
             write_fraction=0.05, distribution="uniform", watermark=64),
    # The only workload that runs faults, recovery and the checker.
    # Not in BENCHMARK.json: ~130 client ops per rep leave its simulated
    # latencies unsteady across seeds, and at 32 or more ops per client
    # run_check can hang (see REP_TIMEOUT_S).
    CheckSpec("check-disaster"),
)}


def calibration(samples: int = 5, count: int = 200_000) -> float:
    """Iterations per second of a fixed pure-Python loop, median of
    *samples*: how fast the host runs Python right now, in a unit that no
    change to ``repro`` can move."""
    def loop() -> int:
        acc, table = 0, {}
        for i in range(count):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = acc
        return acc + len(table)

    times = []
    for _ in range(samples):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return count / statistics.median(times)


def measure(spec, seed: int, seconds: float) -> List[Rep]:
    """Run reps of *spec* until *seconds* of host time have passed,
    checking every rep's results.

    Rep *i* runs input set ``i % spec.inputs``; each input set gets its own
    seed, derived from *seed*.  The first rep of each input set is checked;
    every later one must reproduce it exactly.  The calibration loop runs
    between reps, so that each rep's rate can be divided by the host's
    speed around it."""
    reps: List[Rep] = []
    deadline = time.perf_counter() + seconds
    before = calibration(3, 100_000)
    # One rep more than there are input sets, so that at least one rep
    # replays inputs and the determinism check always runs.
    while len(reps) <= spec.inputs or time.perf_counter() < deadline:
        index = len(reps) % spec.inputs
        rep = spec.run_once(seed * spec.inputs + index)
        after = calibration(3, 100_000)
        rep.loops_per_s, before = (before + after) / 2, after
        if len(reps) < spec.inputs:
            rep.failed = spec.check(rep)
        else:
            base = reps[index]
            # Same inputs in the same process must give the same run.
            same = (rep.fingerprint, rep.events) == (base.fingerprint,
                                                     base.events)
            rep.failed = base.failed if same else len(rep.ops)
            if not same:
                rep.findings.append("did not reproduce the first rep of "
                                    "the same inputs")
            rep.ops, rep.fingerprint = base.ops, base.fingerprint
        rep.check_input = None
        reps.append(rep)
        gc.collect()
    return reps


# -- summaries -------------------------------------------------------------


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: List[float], fraction: float) -> tuple:
    """Nearest-rank percentile with its support: ``(value, n, beyond)``.

    Raises :class:`BenchError` when fewer than :data:`MIN_BEYOND` samples
    lie beyond it — such a percentile is not reported."""
    ordered = sorted(values)
    count = len(ordered)
    rank = max(1, math.ceil(fraction * count))
    beyond = count - rank
    if beyond < MIN_BEYOND:
        raise BenchError(f"p{fraction * 100:g} of {count} samples has only "
                         f"{beyond} beyond it (need {MIN_BEYOND})")
    return ordered[rank - 1], count, beyond


@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""


def end_to_end(spec, reps: List[Rep], setup_s: List[float],
               peak_rss_mb: float) -> Dict[str, Metric]:
    """Every end-to-end metric of one benchmark run.  Simulated metrics
    pool the first rep of every input set."""
    distinct = reps[:spec.inputs]
    answered = [op for rep in distinct for op in rep.ops if not op.pending]
    writes = [(op.responded - op.invoked) * 1e6
              for op in answered if op.kind == "write"]
    reads = [(op.responded - op.invoked) * 1e6
             for op in answered if op.kind == "read"]
    attempted = sum(len(rep.ops) for rep in reps)
    failed = sum(rep.failed for rep in reps)
    rates = [max(rep.completed - rep.failed, 0) / rep.host_s for rep in reps]
    calibrated = [rate / rep.loops_per_s * 1e6
                  for rate, rep in zip(rates, reps)]

    def spread(values):
        q1, med, q3 = quartiles(values)
        return f"median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}"

    def sim(values, fraction):
        value, count, beyond = percentile(values, fraction)
        return Metric(value, "us", f"p{fraction * 100:g} of {count}, "
                                   f"{beyond} beyond")

    return {
        "setup_s": Metric(statistics.median(setup_s), "s",
                          f"of {len(setup_s)}: {spread(setup_s)}"),
        # The calibrated rate: on a shared host other tenants move the raw
        # rate by a quarter from minute to minute, and the loop with it.
        "ops_per_mloop": Metric(
            statistics.median(calibrated), "1/Mloop",
            f"of {len(reps)} reps: {spread(calibrated)}; "
            f"ops_per_s {spread(rates)}"),
        "peak_rss_mb": Metric(peak_rss_mb, "MB", "cold set-up and one rep"),
        "sim_write_p50_us": sim(writes, 0.5),
        "sim_write_tail_us": sim(writes, spec.tail),
        "sim_read_mean_us": Metric(statistics.fmean(reads), "us",
                                   f"mean of {len(reads)}"),
        "sim_read_tail_us": sim(reads, spec.tail),
        "sim_ops_per_ms": Metric(
            sum(rep.completed for rep in distinct)
            / (sum(rep.active_sim_s for rep in distinct) * 1e3),
            "1/ms", f"{len(answered)} ops"),
        "ok_op_share": Metric(1.0 - failed / attempted, "share",
                              f"failed_op_share {failed / attempted:.6g} "
                              f"({failed} of {attempted})"),
    }
