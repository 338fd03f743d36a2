"""Per-layer self time, measured from outside the program.

The traced run replaces the public entry point of each layer with a
timing wrapper for the duration of a phase. A wrapper keeps one frame
per active call on a stack; when a call returns, its duration minus the
time of the wrapped calls it made is its *self* time, charged to its
layer. Functions are patched on every ``repro`` module that imported
them (``from repro.xml.serializer import serialize`` binds a second
name in the importer), and methods on their class.

Only the submitting thread's calls are timed: the workloads are single
client.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["LAYER_TARGETS", "LayerTracer"]

#: (layer, module, attribute path) for every wrapped entry point. A
#: layer may own several entry points; their times add up.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("service.self", "repro.server.service", "SecureXMLServer.serve"),
    ("service.self", "repro.server.service", "SecureXMLServer.serve_stream"),
    ("service.self", "repro.server.service", "SecureXMLServer.query"),
    ("service.self", "repro.server.service", "SecureXMLServer.update"),
    ("service.self", "repro.server.service", "SecureXMLServer.publish_document"),
    ("xml.parse_document", "repro.xml.parser", "parse_document"),
    ("xml.serialize", "repro.xml.serializer", "serialize"),
    ("authz.applicable", "repro.authz.store", "AuthorizationStore.applicable"),
    ("subjects.effective_class", "repro.subjects.canonical", "effective_class"),
    ("core.view", "repro.core.view", "compute_view_from_auths"),
    ("core.label", "repro.core.labeling", "TreeLabeler.run"),
    ("core.prune", "repro.core.prune", "build_view"),
    ("dtd.loosen", "repro.dtd.loosen", "loosen"),
    ("xpath.select", "repro.xpath.evaluator", "select"),
    ("rewrite.compile", "repro.rewrite.engine", "compile_rewrite"),
    ("rewrite.select", "repro.rewrite.engine", "RewrittenQuery.select"),
    ("rewrite.oracle", "repro.rewrite.oracle", "VisibilityOracle.__init__"),
    ("rewrite.oracle", "repro.rewrite.oracle", "VisibilityOracle.exists"),
    ("rewrite.oracle", "repro.rewrite.oracle", "VisibilityOracle.string_value"),
    ("rewrite.oracle", "repro.rewrite.oracle", "VisibilityOracle.visible_ids"),
    ("rewrite.oracle", "repro.rewrite.oracle", "VisibilityOracle.serialize_match"),
    (
        "rewrite.oracle",
        "repro.rewrite.oracle",
        "VisibilityOracle.refreshed_for_update",
    ),
    ("stream.reader", "repro.stream.reader", "StreamReader.feed"),
    ("stream.reader", "repro.stream.reader", "StreamReader.close"),
    ("stream.labeler", "repro.stream.labeler", "StreamLabeler.feed"),
    ("update.apply", "repro.update.engine", "UpdateEngine.apply_full"),
    ("update.relabel", "repro.update.relabel", "LabelState.apply_delta"),
    ("cache.get", "repro.server.cache", "ViewCache.get"),
    ("cache.invalidate", "repro.server.cache", "ViewCache.invalidate_uri"),
)


@dataclass
class LayerTotals:
    """What one layer accumulated over a traced phase."""

    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0


@dataclass
class StreamCounts:
    """Stream labeler statistics, folded per finished labeler."""

    events: int = 0
    peak_buffer_depth: int = 0
    _current: object = None

    def observe(self, labeler) -> None:
        if labeler is not self._current:
            self.fold()
            self._current = labeler

    def fold(self) -> None:
        if self._current is not None:
            stats = self._current.stats
            self.events += stats.events
            self.peak_buffer_depth = max(
                self.peak_buffer_depth, stats.peak_pending_depth
            )
            self._current = None


@dataclass
class LayerTracer:
    """Installs the wrappers and owns what they measure."""

    totals: dict[str, LayerTotals] = field(default_factory=dict)
    nodes_labeled: int = 0
    stream: StreamCounts = field(default_factory=StreamCounts)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)
    _thread: Optional[int] = None

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` restores them."""
        self._thread = threading.get_ident()
        for layer, module_name, path in LAYER_TARGETS:
            self.totals.setdefault(layer, LayerTotals())
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, layer)
                continue
            original = getattr(module, attr)
            for name, loaded in list(sys.modules.items()):
                if not name.startswith("repro") or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, original, layer)

    def uninstall(self) -> None:
        self.stream.fold()
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, original: Callable, layer: str) -> None:
        setattr(owner, attr, self._wrap(original, layer))
        self._undo.append((owner, attr, original))

    def _wrap(self, original: Callable, layer: str) -> Callable:
        totals = self.totals[layer]
        stack = self._stack
        thread = self._thread
        observe = self._observer(layer)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if threading.get_ident() != thread:
                return original(*args, **kwargs)
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                totals.calls += 1
                totals.self_s += elapsed - children
                totals.inclusive_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        timed.__wrapped__ = original
        return timed

    def _observer(self, layer: str):
        if layer == "core.label":

            def count_labels(args, result) -> None:
                self.nodes_labeled += len(result.labels)

            return count_labels
        if layer == "stream.labeler":
            return lambda args, result: self.stream.observe(args[0])
        return None
