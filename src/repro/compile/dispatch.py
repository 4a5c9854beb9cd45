"""From protocol-graph IR to a flat dispatch table for one triple.

:func:`compile_protocol` is the IR-consumption half of the compiler: it
resolves the ⟨consistency, persistency, arch⟩ triple against a
``repro-protocol-graph/1`` document and produces a
:class:`CompiledDispatch` — the per-channel message→handler table with
the model facts a compiled engine reads as ``self.model``.

Everything here reads the *graph*, never the live engines or
:class:`~repro.core.model.DDPModel` policy properties: the seeded-mutant
gate (``tests/compile/test_compile_mutants.py``) corrupts a scratch
graph and requires the compiled engine's behavior to change, which only
holds if the graph is the single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import CompileError, TripleNotInGraph

#: The network channel the compiled dispatch table covers.  The PCIe
#: channels of the offload arch have one-type or single-handler loops;
#: only ``net`` carries the full per-model dispatch.
NET_CHANNEL = "net"

#: Model facts a compiled engine reads from the graph; a graph model
#: entry missing any of these is rejected (a fact silently taken from
#: the live model would defeat the mutant gate).
REQUIRED_FACTS = (
    "client_waits_for_persist", "is_eventual_consistency",
    "persist_in_critical_path", "persistency_spin_on_obsolete",
    "rdlock_waits_for_persist", "split_acks", "tracks_persistency",
    "uses_scopes",
)

#: Per-arch entry-handler candidates for each message family on the net
#: channel.  The *graph's* handler list for a type must contain the
#: candidate — selection is an intersection, so a corrupted table entry
#: surfaces as a :class:`CompileError` instead of a silent mis-route.
_ENTRY_CANDIDATES = {
    "baseline": {
        "ACK": ("_handle_ack",), "ACK_C": ("_handle_ack",),
        "ACK_P": ("_handle_ack",),
        "INV": ("_follower_inv", "_ec_follower_inv"),
        "PERSIST": ("_follower_persist",),
        "VAL": ("_follower_val",), "VAL_C": ("_follower_val",),
        "VAL_P": ("_follower_val",),
        "CKPT": ("_follower_ckpt",),
        "CKPT_ACK": ("_handle_ckpt_ack",),
    },
    "offload": {
        "ACK": ("_snic_on_ack",), "ACK_C": ("_snic_on_ack",),
        "ACK_P": ("_snic_on_ack",),
        "INV": ("_snic_follower_inv", "_snic_ec_follower_inv"),
        "PERSIST": ("_snic_follower_persist",),
        "VAL": ("_snic_follower_val",), "VAL_C": ("_snic_follower_val",),
        "VAL_P": ("_snic_follower_val",),
        "CKPT": ("_snic_follower_ckpt",),
        "CKPT_ACK": ("_snic_handle_ckpt_ack",),
    },
}


@dataclass(frozen=True)
class CompiledDispatch:
    """Flat dispatch for one ⟨model, arch⟩ on one channel.

    ``table`` maps message-type name → the entry handler the graph's
    dispatch table names for it; ``facts`` carries the graph's model
    facts (its policy props plus ``consistency``/``persistency``
    strings).  Frozen and tuple-backed so it is hashable and safe to
    share across clusters.
    """

    arch: str
    model: str
    channel: str = NET_CHANNEL
    table: Tuple[Tuple[str, str], ...] = ()
    facts: Tuple[Tuple[str, Any], ...] = field(default=())

    def handler(self, msg_type: str) -> Optional[str]:
        for name, target in self.table:
            if name == msg_type:
                return target
        return None

    def facts_dict(self) -> Dict[str, Any]:
        return dict(self.facts)


def _arch_name(config: Any, arch: Optional[str]) -> str:
    if arch is not None:
        return arch
    return "offload" if getattr(config, "offload", False) else "baseline"


def _model_entry(graph: Mapping[str, Any], model: Any) -> Mapping:
    """Resolve *model* (a ``DDPModel`` or a symbolic name string) to its
    graph entry.  A live model is matched on its ⟨consistency,
    persistency⟩ pair — the graph names models by their symbolic
    constants (``LIN_SYNCH``), not their display names."""
    consistency = getattr(model, "consistency", None)
    persistency = getattr(model, "persistency", None)
    if consistency is not None and persistency is not None:
        wanted = (getattr(consistency, "name", str(consistency)),
                  getattr(persistency, "name", str(persistency)))
        for entry in graph.get("models", ()):
            if (entry.get("consistency"), entry.get("persistency")) == wanted:
                return entry
        raise TripleNotInGraph(
            f"model <{wanted[0]}, {wanted[1]}> is not in the protocol graph")
    for entry in graph.get("models", ()):
        if entry.get("name") == str(model):
            return entry
    raise TripleNotInGraph(
        f"model {model!r} is not in the protocol graph")


def compile_protocol(model: Any, config: Any = None, *,
                     arch: Optional[str] = None,
                     graph: Optional[Mapping[str, Any]] = None,
                     root: Any = None) -> CompiledDispatch:
    """Resolve ⟨*model*, *config*/*arch*⟩ against *graph* (default: the
    committed/derived project graph) into a :class:`CompiledDispatch`.

    Raises :class:`TripleNotInGraph` when the graph simply lacks the
    triple (callers may fall back to the interpreted engine), and
    :class:`CompileError` when the graph is present but inconsistent
    with the engines (never fall back: the IR is lying).
    """
    if graph is None:
        from repro.compile.graphio import default_graph

        graph = default_graph(root)
        if graph is None:
            raise TripleNotInGraph("no protocol graph could be located")
    arch = _arch_name(config, arch)
    entry = _model_entry(graph, model)
    model_name = entry.get("name")
    arches = graph.get("arches", {})
    if arch not in arches:
        raise TripleNotInGraph(f"arch {arch!r} is not in the protocol graph")
    arch_doc = arches[arch]
    per_model = arch_doc.get("models", {})
    if model_name not in per_model:
        raise TripleNotInGraph(
            f"triple <{model_name}, {arch}> is not in the protocol graph")

    props = entry.get("props", {})
    missing = [name for name in REQUIRED_FACTS if name not in props]
    if missing:
        raise CompileError(
            f"graph model {model_name!r} lacks model facts: {missing}")
    facts = dict(props)
    facts["consistency"] = entry.get("consistency")
    facts["persistency"] = entry.get("persistency")
    if not facts["persistency"]:
        raise CompileError(f"graph model {model_name!r} has no persistency")

    channels = arch_doc.get("channels", {})
    if NET_CHANNEL not in channels:
        raise CompileError(f"arch {arch!r} has no {NET_CHANNEL!r} channel")
    handlers = channels[NET_CHANNEL].get("handlers", {})

    # Wire types for this triple: every send site the graph resolves
    # onto the net channel for this model.
    wire_types = sorted({send["type"]
                         for send in per_model[model_name].get("messages", ())
                         if send.get("channel") == NET_CHANNEL})
    if not wire_types:
        raise TripleNotInGraph(
            f"triple <{model_name}, {arch}> sends nothing on the net channel")

    candidates = _ENTRY_CANDIDATES[arch]
    eventual = bool(facts["is_eventual_consistency"])
    table = []
    for msg_type in wire_types:
        if msg_type not in candidates:
            raise CompileError(
                f"no entry-handler rule for {msg_type} on {arch}/net")
        if msg_type not in handlers:
            raise CompileError(
                f"graph dispatch table for {arch}/net lacks {msg_type}")
        listed = handlers[msg_type]
        wanted = candidates[msg_type]
        if msg_type == "INV":
            # The graph's per-model guard resolution decides which INV
            # entry applies; the EC fact selects between them.
            wanted = (wanted[1],) if eventual else (wanted[0],)
        chosen = next((name for name in wanted if name in listed), None)
        if chosen is None:
            raise CompileError(
                f"graph dispatch table for {arch}/net maps {msg_type} to "
                f"{sorted(listed)}, none of the entry handlers {wanted}")
        table.append((msg_type, chosen))

    return CompiledDispatch(
        arch=arch, model=model_name, channel=NET_CHANNEL,
        table=tuple(table), facts=tuple(sorted(facts.items())))
