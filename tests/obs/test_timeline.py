"""The text swim-lane view (``repro.obs.timeline``) and the protocol
events it is rendered from.

One replicated write is the paper's unit of explanation: the
coordinator's span brackets its phases, both followers handle the INV,
and every node reaches a durability point.  These tests pin that the
recorder sees all of it on both architectures, and that the rendered
view keeps one column per node in time order.
"""

import pytest

from repro import (EC_EVENT, EC_SYNCH, LIN_SYNCH, MINOS_B, MINOS_O,
                   MinosCluster)
from repro.faults import FaultPlan, LinkFaults, RetransmitPolicy
from repro.hw.params import MachineParams
from repro.obs import Observability, timeline
from repro.sim import Simulator

#: Segments that end at a node's durability point: the host NVM-log
#: append (MINOS-B) or the SNIC dFIFO enqueue (MINOS-O).
DURABLE_PHASES = {"log_append", "dfifo_enqueue"}


class Clock:
    """Just enough simulator for the recorder: a settable clock."""

    now = 0.0


def one_write(config, nodes=3, plan=None, model=LIN_SYNCH):
    cluster = MinosCluster(model=model, config=config,
                           params=MachineParams(nodes=nodes))
    obs = cluster.attach_obs()
    if plan is not None:
        cluster.enable_faults(plan)
    cluster.load_records([("k", "v0")])
    cluster.write(0, "k", "v1")
    cluster.sim.run()
    return obs


def time_column(text):
    return [float(line.split()[0]) for line in text.splitlines()[2:]]


class TestRendering:
    def test_empty_timeline(self):
        assert timeline(Observability(Simulator())) == "(no events)"

    def test_rows_sorted_with_one_column_per_node(self):
        clock = Clock()
        obs = Observability(clock)
        obs.op_begin(1, "write", 7, key="k")
        obs.seg(0, 7, "inv_handle", start=2e-6, end=3e-6)
        obs.instant(-1, "fault.drop")
        clock.now = 1e-6
        obs.instant(0, "durable_advance", key="k")
        obs.op_end(1, 7)
        text = timeline(obs)
        lines = text.splitlines()
        assert lines[0].split() == ["time", "(us)", "fabric", "node", "0",
                                    "node", "1"]
        rows = [line.split() for line in lines[2:]]
        assert rows == [["0.000", "fault.drop"],
                        ["0.000", "write:start"],
                        ["1.000", "durable_advance"],
                        ["1.000", "write:end"],
                        ["2.000", "inv_handle", "1.00us"]]
        # Each label sits in its node's column.
        assert lines[3].index("write:start") == lines[0].index("node 1")
        assert lines[4].index("durable_advance") == lines[0].index("node 0")

    def test_unfinished_span_has_no_end_row(self):
        obs = Observability(Simulator())
        obs.op_begin(0, "write", 1)
        assert "write:end" not in timeline(obs)

    def test_obsolete_span_end_names_its_status(self):
        obs = Observability(Simulator())
        obs.op_begin(0, "write", 1)
        obs.op_end(0, 1, status="obsolete")
        assert "write:end (obsolete)" in timeline(obs)


class TestClusterTimeline:
    @pytest.mark.parametrize("config", [MINOS_B, MINOS_O],
                             ids=lambda c: c.name)
    def test_write_lifecycle_recorded_in_order(self, config):
        obs = one_write(config)
        (span,) = obs.spans_for(kind="write")
        assert span.node == 0 and span.status == "ok"
        phases = obs.segments_for(op_id=span.op_id, node=0)
        assert {s.phase for s in phases} >= {"lock_acquire", "inv_fanout"}
        for segment in phases:
            assert span.start <= segment.start <= segment.end <= span.end
        # Both followers handled the INV.
        followers = {s.node for s in obs.segments_for(phase="inv_handle")}
        assert followers == {1, 2}
        # Durability happened on every node.
        durable = {s.node for s in obs.segments
                   if s.phase in DURABLE_PHASES and s.op_id == span.op_id}
        assert durable == {0, 1, 2}

    @pytest.mark.parametrize("config", [MINOS_B, MINOS_O],
                             ids=lambda c: c.name)
    def test_timeline_renders_lanes(self, config):
        text = timeline(one_write(config))
        assert "node 0" in text and "node 1" in text and "node 2" in text
        assert "write:start" in text and "write:end" in text
        assert "inv_handle" in text

    @pytest.mark.parametrize("model", [EC_SYNCH, EC_EVENT],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("config", [MINOS_B, MINOS_O],
                             ids=lambda c: c.name)
    def test_eventual_consistency_write(self, config, model):
        obs = one_write(config, model=model)
        (span,) = obs.spans_for(kind="write")
        assert span.node == 0 and span.status == "ok"
        durable = {s.node for s in obs.segments
                   if s.phase in DURABLE_PHASES and s.op_id == span.op_id}
        assert durable == {0, 1, 2}

    def test_events_monotone_in_time(self):
        cluster = MinosCluster(model=LIN_SYNCH, config=MINOS_B,
                               params=MachineParams(nodes=2))
        obs = cluster.attach_obs()
        cluster.load_records([("k", "v0")])
        cluster.write(0, "k", "v1")
        cluster.write(1, "k", "v2")
        cluster.sim.run()
        times = time_column(timeline(obs))
        assert len(times) > 10
        assert times == sorted(times)


class TestRobustnessInstants:
    @pytest.mark.parametrize("config", [MINOS_B, MINOS_O],
                             ids=lambda c: c.name)
    def test_duplicate_suppressed(self, config):
        obs = one_write(config, plan=FaultPlan(
            seed=1, links={(0, 1): LinkFaults(duplicate=1.0)}))
        (span,) = obs.spans_for(kind="write")
        hits = obs.instants_for(name="duplicate_suppressed", node=1)
        assert hits and all(i.op_id == span.op_id for i in hits)
        assert hits[0].attr("type") == "INV"

    @pytest.mark.parametrize("config", [MINOS_B, MINOS_O],
                             ids=lambda c: c.name)
    def test_retransmit_give_up(self, config):
        # Node 2 never hears the INV and no failure detector runs, so
        # the write cannot finish: spawn it rather than run it to the end.
        cluster = MinosCluster(model=LIN_SYNCH, config=config,
                               params=MachineParams(nodes=3))
        obs = cluster.attach_obs()
        cluster.enable_faults(FaultPlan(
            seed=1, links={(0, 2): LinkFaults(drop=1.0)},
            retransmit=RetransmitPolicy(max_retries=2, val_resends=0)))
        cluster.load_records([("k", "v0")])
        cluster.sim.spawn(cluster.nodes[0].engine.client_write("k", "v1"))
        cluster.sim.run()
        (give_up,) = obs.instants_for(name="retransmit_give_up", node=0)
        assert give_up.attr("type") == "INV"
        assert len(obs.segments_for(phase="retransmit", node=0)) == 2
