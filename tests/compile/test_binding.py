"""Compiled engines are bound, not generated.

``compiled_engine_class`` builds a subclass of the interpreted engine
with ``type()`` whose ``self.model`` reads the graph's model facts.
These tests pin that binding and that no source is generated on the
way.
"""

import builtins
import copy
import gc
import inspect
import types

import pytest

from repro.api import ALL_MODELS, MINOS_B, MINOS_O, MinosCluster
from repro.compile import REQUIRED_FACTS, default_graph
from repro.compile.factory import ModelFacts
from repro.core.model import EXTENSION_MODELS
from repro.hw.params import DEFAULT_MACHINE

MODELS = list(ALL_MODELS) + list(EXTENSION_MODELS)


def compiled_cluster(model, config, protocol_graph=None):
    cluster = MinosCluster(model=model, config=config,
                           params=DEFAULT_MACHINE.with_nodes(3),
                           protocol_graph=protocol_graph)
    engine = cluster.nodes[0].engine
    assert hasattr(type(engine), "__compiled_dispatch__"), \
        f"compiler fell back for {model}/{config.name}"
    return cluster


@pytest.mark.parametrize("config", [MINOS_B, MINOS_O], ids=lambda c: c.name)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_graph_facts_match_the_live_model(model, config):
    for node in compiled_cluster(model, config).nodes:
        facts = node.engine.model
        assert isinstance(facts, ModelFacts)
        assert facts.consistency is model.consistency
        assert facts.persistency is model.persistency
        for prop in REQUIRED_FACTS:
            assert getattr(facts, prop) == getattr(model, prop), prop
        assert str(facts) == str(model)


def test_building_generates_no_source(monkeypatch):
    """An explicit graph always builds a fresh class: with
    ``inspect.getsource`` and ``exec`` disabled the build must still
    succeed, and no function may come from generated code."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("compiled engine build generated source")

    monkeypatch.setattr(inspect, "getsource", refuse)
    monkeypatch.setattr(builtins, "exec", refuse)
    graph = copy.deepcopy(default_graph())
    for config in (MINOS_B, MINOS_O):
        engine_cls = type(compiled_cluster(MODELS[0], config,
                                           protocol_graph=graph)
                          .nodes[0].engine)
        assert not hasattr(engine_cls, "__compiled_source__")
        assert engine_cls.__slots__ == ()
        for klass in engine_cls.__mro__:
            for value in vars(klass).values():
                code = getattr(value, "__code__", None)
                if code is not None:
                    assert not code.co_filename.startswith("<"), \
                        (klass.__name__, code.co_name, code.co_filename)
    generated = [obj for obj in gc.get_objects()
                 if isinstance(obj, types.FunctionType)
                 and obj.__code__.co_filename.startswith("<repro.compile")]
    assert generated == []
