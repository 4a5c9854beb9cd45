"""``repro.compile`` — the protocol compiler.

Consumes the ``repro-protocol-graph/1`` IR exported by
:mod:`repro.analysis.flow` and binds engine subclasses to it: their
``self.model`` reads the graph's model facts, and the graph's net
dispatch table must name the engines' entry handlers.  No source is
generated.  See ``docs/protocol_compiler.md``.

Importing this package stays light (stdlib + :mod:`repro.errors`); the
simulator engines are only imported when a class is actually built.
"""

from repro.compile.dispatch import (
    NET_CHANNEL,
    REQUIRED_FACTS,
    CompiledDispatch,
    compile_protocol,
)
from repro.compile.graphio import (
    FINGERPRINT_KEY,
    GRAPH_FILENAME,
    default_graph,
    derive_graph,
    load_graph,
    refresh_graph,
    source_fingerprint,
)

__all__ = [
    "NET_CHANNEL",
    "REQUIRED_FACTS",
    "CompiledDispatch",
    "compile_protocol",
    "FINGERPRINT_KEY",
    "GRAPH_FILENAME",
    "default_graph",
    "derive_graph",
    "load_graph",
    "refresh_graph",
    "source_fingerprint",
    "compiled_engine_class",
]


def compiled_engine_class(*args, **kwargs):
    """Lazy proxy for :func:`repro.compile.factory.compiled_engine_class`
    (keeps the engines out of the import graph until a class is built)."""
    from repro.compile.factory import compiled_engine_class as impl

    return impl(*args, **kwargs)
