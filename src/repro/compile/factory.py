"""Compiled engine classes: graph + config → bound subclass.

:func:`compiled_engine_class` is what :class:`~repro.cluster.cluster.Node`
calls when ``engine_mode="compiled"``.  It compiles the protocol graph's
triple into a :class:`~repro.compile.dispatch.CompiledDispatch` and
builds, with ``type()``, a ``__slots__ = ()`` subclass of the
interpreted engine whose ``__init__`` sets ``self.model`` to a
:class:`ModelFacts` built from the graph's model entry, so every
``self.model.<prop>`` guard in the engines reads the graph, never the
live :class:`~repro.core.model.DDPModel`.  The class also carries the
dispatch as ``__compiled_dispatch__``.

No source is generated or ``exec``'d: every method is the interpreted
engine's own, so net dispatch stays the engines' ``msg.type`` chain.

Fallback semantics: a triple the graph simply does not know
(:class:`~repro.errors.TripleNotInGraph`) degrades to the interpreted
engine with a :class:`RuntimeWarning` — the cluster still runs.  A
graph that *disagrees* with the engines
(:class:`~repro.errors.CompileError`) propagates: silently interpreting
would mask a corrupt IR, which is the failure mode the seeded-mutant
gate exists to catch.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from typing import Any, Mapping, Optional

from repro.compile.dispatch import REQUIRED_FACTS, CompiledDispatch, \
    compile_protocol
from repro.compile.graphio import FINGERPRINT_KEY, default_graph
from repro.core.model import Consistency, Persistency
from repro.errors import CompileError, TripleNotInGraph


def compiled_engine_class(model: Any, config: Any, *,
                          graph: Optional[Mapping[str, Any]] = None,
                          root: Any = None) -> Optional[type]:
    """The graph-bound engine class for ⟨*model*, *config*⟩, or ``None``
    when the graph lacks the triple (callers fall back to interpreted).

    With the default graph the result is cached per ⟨model, config,
    source fingerprint⟩; an explicit *graph* (scratch/mutated documents
    in tests) always builds fresh.
    """
    if graph is not None:
        try:
            return _build_class(model, config, dict(graph))
        except TripleNotInGraph as exc:
            _warn_fallback(model, config, str(exc))
            return None
    document = default_graph(root)
    if document is None:
        _warn_fallback(model, config, "no protocol graph could be located")
        return None
    try:
        return _cached_class(model, config,
                             document.get(FINGERPRINT_KEY, ""), root)
    except TripleNotInGraph as exc:
        _warn_fallback(model, config, str(exc))
        return None


def _warn_fallback(model: Any, config: Any, reason: str) -> None:
    name = getattr(model, "name", model)
    warnings.warn(
        f"protocol compiler: falling back to the interpreted engine for "
        f"<{name}, {getattr(config, 'name', config)}>: {reason}",
        RuntimeWarning, stacklevel=3)


@lru_cache(maxsize=64)
def _cached_class(model: Any, config: Any, fingerprint: str,
                  root: Any) -> type:
    # ``fingerprint`` is part of the key so an in-process source edit
    # that refreshes the default graph also rebuilds the class.
    document = default_graph(root)
    if document is None:  # pragma: no cover - raced tree removal
        raise TripleNotInGraph("no protocol graph could be located")
    return _build_class(model, config, document)


class ModelFacts:
    """A graph model entry standing in for :class:`DDPModel`.

    Carries ``DDPModel``'s attribute names — ``consistency``,
    ``persistency``, ``name`` and every policy property in
    :data:`~repro.compile.dispatch.REQUIRED_FACTS` — as plain attributes
    whose values come from the graph.  A graph fact that disagrees with
    the live model therefore changes the compiled engine's behaviour,
    which is what the seeded-mutant gate relies on.
    """

    __slots__ = ("consistency", "persistency", "name", *REQUIRED_FACTS)

    def __init__(self, dispatch: CompiledDispatch) -> None:
        facts = dispatch.facts_dict()
        try:
            self.consistency = Consistency[facts["consistency"]]
            self.persistency = Persistency[facts["persistency"]]
        except KeyError as exc:
            raise CompileError(
                f"graph model {dispatch.model!r} names an unknown "
                f"consistency or persistency: {exc}") from None
        self.name = f"<{self.consistency}, {self.persistency}>"
        for prop in REQUIRED_FACTS:
            setattr(self, prop, bool(facts[prop]))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"ModelFacts({self.name})"


def _build_class(model: Any, config: Any, graph: Mapping[str, Any]) -> type:
    dispatch = compile_protocol(model, config, graph=graph)
    if dispatch.arch == "offload":
        from repro.core.offload.engine import OffloadEngine as base
    else:
        from repro.core.baseline.engine import BaselineEngine as base
    facts = ModelFacts(dispatch)
    base_init = base.__init__

    def __init__(self, *args, **kwargs) -> None:
        base_init(self, *args, **kwargs)
        self.model = facts

    cls_name = "Compiled{}_{}__{}".format(
        base.__name__, dispatch.model,
        "".join(c if c.isalnum() else "_" for c in config.name))
    return type(cls_name, (base,), {
        "__slots__": (),
        "__init__": __init__,
        "__compiled_dispatch__": dispatch,
    })
