"""Seeded-mutant gate: the protocol compiler is *live*.

A compiler that ignored its IR and simply re-derived behavior from the
live engines would pass every calendar-identity test vacuously.  These
mutants prove the compiled engines really are a function of the graph
(mirroring ``tests/analysis/test_flow_mutants.py`` one layer up):

* corrupting a dispatch-table entry must be rejected loudly
  (:class:`~repro.errors.CompileError` — never a silent fallback), and
* flipping a model fact the compiled engine reads from the graph must
  change its behavior, which the calendar-identity harness then
  catches as a divergence from the interpreted reference.

Every mutation is applied to a deep copy of the real graph and asserts
its anchor exists first, so a schema drift fails the test rather than
silently mutating nothing.
"""

import copy

import pytest

from repro.api import LIN_SYNCH, MINOS_B, MinosCluster, YcsbWorkload
from repro.compile import compile_protocol, default_graph
from repro.errors import CompileError, ReproError
from repro.hw.params import DEFAULT_MACHINE


@pytest.fixture(scope="module")
def graph():
    document = default_graph()
    assert document is not None, "no protocol graph available"
    return document


def mutated(graph, apply):
    """Deep-copy *graph* and run *apply* on the copy."""
    scratch = copy.deepcopy(graph)
    apply(scratch)
    return scratch


def run_calendar(engine_mode, protocol_graph=None):
    cluster = MinosCluster(model=LIN_SYNCH, config=MINOS_B,
                           params=DEFAULT_MACHINE.with_nodes(3),
                           engine_mode=engine_mode,
                           protocol_graph=protocol_graph)
    if engine_mode == "compiled":
        assert hasattr(type(cluster.nodes[0].engine),
                       "__compiled_dispatch__"), "compiler fell back"
    calendar = []
    sim = cluster.sim

    def observe(event, delay):
        calendar.append((sim._now, delay))

    sim.schedule_observer = observe
    workload = YcsbWorkload(records=8, requests_per_client=4,
                            write_fraction=0.7, seed=5)
    cluster.run_workload(workload, clients_per_node=1)
    return calendar


def compiled_diverges(graph):
    """True when the calendar-identity harness catches the mutant:
    either the compiled run's calendar differs from the interpreted
    reference, or the mis-compiled protocol fails loudly mid-run."""
    reference = run_calendar("interpreted")
    assert len(reference) > 200, "workload too small — vacuous"
    try:
        candidate = run_calendar("compiled", protocol_graph=graph)
    except ReproError:
        return True
    return candidate != reference


def test_clean_graph_is_quiet(graph):
    """Anti-vacuity: the unmutated graph compiles and matches the
    interpreted calendar exactly (else every mutant below would
    'diverge' for free)."""
    assert not compiled_diverges(graph)


def test_corrupted_dispatch_entry_is_rejected(graph):
    """Renaming the graph's INV entry handler must be a loud
    CompileError at build time, not a silent mis-route or fallback."""

    def corrupt(doc):
        handlers = doc["arches"]["baseline"]["channels"]["net"]["handlers"]
        assert "_follower_inv" in handlers["INV"], handlers["INV"]
        handlers["INV"] = [name if name != "_follower_inv"
                           else "_folower_inv" for name in handlers["INV"]]

    bad = mutated(graph, corrupt)
    with pytest.raises(CompileError):
        compile_protocol(LIN_SYNCH, MINOS_B, graph=bad)
    # The cluster build path must not swallow it either.
    with pytest.raises(CompileError):
        MinosCluster(model=LIN_SYNCH, config=MINOS_B,
                     params=DEFAULT_MACHINE.with_nodes(3),
                     protocol_graph=bad)


def test_missing_dispatch_type_is_rejected(graph):
    def corrupt(doc):
        handlers = doc["arches"]["baseline"]["channels"]["net"]["handlers"]
        assert "ACK" in handlers
        del handlers["ACK"]

    with pytest.raises(CompileError):
        compile_protocol(LIN_SYNCH, MINOS_B, graph=mutated(graph, corrupt))


def test_missing_folded_fact_is_rejected(graph):
    """A model entry missing a guard's fact must refuse to compile —
    taking it from a default or the live model would defeat this
    gate."""

    def corrupt(doc):
        entry = next(m for m in doc["models"] if m["name"] == "LIN_SYNCH")
        assert "persist_in_critical_path" in entry["props"]
        del entry["props"]["persist_in_critical_path"]

    with pytest.raises(CompileError):
        compile_protocol(LIN_SYNCH, MINOS_B, graph=mutated(graph, corrupt))


def test_flipped_persistency_fact_diverges(graph):
    """Flipping ``persist_in_critical_path`` mis-steers the coordinator's
    critical-path guard; the calendar harness must catch it."""

    def corrupt(doc):
        entry = next(m for m in doc["models"] if m["name"] == "LIN_SYNCH")
        assert entry["props"]["persist_in_critical_path"] is True
        entry["props"]["persist_in_critical_path"] = False

    assert compiled_diverges(mutated(graph, corrupt))


def test_flipped_ec_fact_diverges(graph):
    """Flipping ``is_eventual_consistency`` re-routes the graph's INV
    dispatch entry to the ``_ec_*`` handler family — a dispatch-table
    selection mutant, not just a guard mutant."""

    def corrupt(doc):
        entry = next(m for m in doc["models"] if m["name"] == "LIN_SYNCH")
        assert entry["props"]["is_eventual_consistency"] is False
        entry["props"]["is_eventual_consistency"] = True

    assert compiled_diverges(mutated(graph, corrupt))
