"""Single-pass label propagation and pruning over the event stream.

:class:`StreamLabeler` reproduces the DOM pipeline's compute-view —
initial_label per node, top-down propagation, postorder pruning with
structural survivors — in one forward pass. It can, because the
paper's semantics has exactly one forward dependency:

- An element's **label** depends only on the root-to-node path (the
  compiled pattern states) and on the node's own name and attributes —
  all known at its :class:`~repro.stream.events.StartElement`.
- **Attribute** visibility depends on the attribute's and its element's
  labels — known at the same moment.
- **Text/comment/PI** visibility equals the parent element's permission
  — known before the content arrives.
- Only **survival** of a non-permitted element looks forward ("keeps
  its tags if some descendant is visible"). Such an element needs no
  content buffered, though: its text is dropped either way and its
  attributes were already decided. The labeler holds back just the
  element's *name* — a pending tag chain — and flushes the chain as
  bare start tags the moment any descendant proves visible, exactly
  the bare-tag survivors the DOM pruner produces.

Memory is therefore O(depth + patterns), not O(document); the pending
chain is charged against ``ResourceLimits.max_stream_buffer_bytes``.

Labels come from the same :class:`~repro.core.labeling.LabelInterner`
the DOM labeler's fused walk uses (sign resolution and propagation
included), and authorizations are binned in the same order (instance
list first, then schema list), so both backends agree sign-for-sign —
the differential suite under ``tests/stream/`` checks byte equality of
the serialized views.

The labeler mirrors the server's DOM parse settings (comments kept,
ignorable whitespace kept); visible/total node counts match
``count_nodes`` over the original and view trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.authz.authorization import Authorization
from repro.authz.conflict import ConflictPolicy, DenialsTakePrecedence
from repro.core.labeling import INSTANCE_SLOT, SCHEMA_SLOT, LabelInterner
from repro.core.labels import Label
from repro.dtd.model import DTD
from repro.errors import XMLLimitExceeded
from repro.limits import Deadline, ResourceLimits
from repro.stream.events import (
    Characters,
    CommentEvent,
    DoctypeDecl,
    EndDocument,
    EndElement,
    PIEvent,
    StartDocument,
    StartElement,
    StreamEvent,
)
from repro.stream.paths import (
    DispatchNode,
    PatternDispatch,
    compile_stream_pattern,
)
from repro.stream.writer import StreamWriter
from repro.subjects.hierarchy import SubjectHierarchy
from repro.xpath.compile import RelativeMode

__all__ = ["StreamLabeler", "StreamStats"]

#: Events between two deadline checks.
_DEADLINE_STRIDE = 256


@dataclass
class StreamStats:
    """Counters of one streaming run (mirrors ``stream.*`` metrics)."""

    events: int = 0
    total_nodes: int = 0
    visible_nodes: int = 0
    emitted_elements: int = 0
    buffered_elements: int = 0
    peak_pending_depth: int = 0
    peak_pending_bytes: int = 0


class _Frame:
    """One open element."""

    __slots__ = ("name", "label", "permitted", "emitted", "node", "in_text_run")

    def __init__(self, name, label, permitted, node):
        self.name = name
        self.label = label
        self.permitted = permitted
        self.emitted = False
        self.node = node
        self.in_text_run = False


class StreamLabeler:
    """Drive one streamed view: events in, view text out via *writer*.

    Raises :class:`~repro.stream.paths.StreamPathUnsupported` from the
    constructor when an authorization's path is outside the streamable
    subset (the server falls back to the DOM pipeline on that).

    Parameters mirror :func:`repro.core.view.compute_view_from_auths`;
    *instance_auths*/*schema_auths* must already be filtered for the
    requester.
    """

    def __init__(
        self,
        writer: StreamWriter,
        instance_auths: list[Authorization],
        schema_auths: list[Authorization],
        hierarchy: Optional[SubjectHierarchy] = None,
        policy: Optional[ConflictPolicy] = None,
        open_policy: bool = False,
        relative_mode: RelativeMode = "descendant",
        limits: Optional[ResourceLimits] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self._writer = writer
        self._hierarchy = hierarchy if hierarchy is not None else SubjectHierarchy()
        self._policy = policy if policy is not None else DenialsTakePrecedence()
        self._open_policy = open_policy
        self._limits = limits
        self._deadline = (
            deadline if deadline is not None and not deadline.unbounded else None
        )
        # Compile in DOM binning order: the instance list, then the
        # schema list — per-slot authorization lists build up in the
        # same order as TreeLabeler._bin_authorizations, so conflict
        # resolution sees identical inputs.
        entries = [(auth, INSTANCE_SLOT[auth.type]) for auth in instance_auths]
        entries += [(auth, SCHEMA_SLOT[auth.type]) for auth in schema_auths]
        patterns = [
            compile_stream_pattern(auth.object.path, relative_mode)
            for auth, _ in entries
        ]
        # One DFA over the joint state of every pattern: per element,
        # advancing *all* authorizations is one dict lookup once warm,
        # and each distinct label is resolved once by the interner.
        self._dispatch = PatternDispatch(patterns)
        self._labels = LabelInterner(entries, self._hierarchy, self._policy)
        self._doc_label = Label()
        # Verdicts over the interner's labels, so a hit is one lookup:
        # (node, parent R/RW/RD) -> (label, permitted);
        self._label_cache: dict[tuple, tuple[Label, bool]] = {}
        # id(element label) -> whether unauthorized attributes survive;
        self._inherit_cache: dict[int, bool] = {}
        # (node, attr name, id(element label)) -> keep?
        self._attr_cache: dict[tuple, bool] = {}
        self._handlers = {
            Characters: self._on_text,
            StartElement: self._on_start,
            EndElement: self._on_end,
            CommentEvent: self._on_comment,
            PIEvent: self._on_pi,
            StartDocument: self._on_start_document,
            DoctypeDecl: self._on_doctype,
            EndDocument: self._on_end_document,
        }
        self._frames: list[_Frame] = []
        self._emitted_depth = 0  # emitted frames form a stack prefix
        self._pending_bytes = 0
        self._root_emitted = False
        self._finished = False
        self.stats = StreamStats()
        # Doctype info for the loosened-DTD step of the facade.
        self.doctype_name: Optional[str] = None
        self.system_id: Optional[str] = None
        self.dtd: Optional[DTD] = None

    # -- public --------------------------------------------------------------

    @property
    def pending_bytes(self) -> int:
        """Characters currently held in the pending tag chain."""
        return self._pending_bytes

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def empty(self) -> bool:
        """Whether the view came out empty (root never emitted)."""
        return not self._root_emitted

    def feed(self, events: Iterable[StreamEvent]) -> None:
        """Consume the next batch of events."""
        stats = self.stats
        deadline = self._deadline
        handlers = self._handlers
        for event in events:
            handler = handlers.get(type(event))
            if handler is not None:
                handler(event)
            stats.events += 1
            if deadline is not None and stats.events % _DEADLINE_STRIDE == 0:
                deadline.check("stream labeling")

    # -- dispatch ------------------------------------------------------------

    def _on_comment(self, event: CommentEvent) -> None:
        self._on_misc_value(event.data, None)

    def _on_pi(self, event: PIEvent) -> None:
        self._on_misc_value(event.data, event.target)

    def _on_start_document(self, event: StartDocument) -> None:
        self._writer.start_document(
            event.xml_version, event.encoding, event.standalone
        )

    def _on_doctype(self, event: DoctypeDecl) -> None:
        self.doctype_name = event.name
        self.system_id = event.system_id
        self.dtd = event.dtd

    def _on_end_document(self, event: EndDocument) -> None:
        self._finished = True

    # -- elements ------------------------------------------------------------

    def _on_start(self, event: StartElement) -> None:
        name = event.name
        attributes = event.attributes
        frames = self._frames
        if frames:
            parent = frames[-1]
            parent.in_text_run = False
            parent_node = parent.node
            parent_label = parent.label
        else:
            parent_node = self._dispatch.initial
            parent_label = self._doc_label

        # One DFA step advances every pattern at once (the paper's
        # initial_label, step 1a); the node's slot signs and propagated
        # label are resolved once per distinct (state, parent-label)
        # pair and shared thereafter.
        node = self._dispatch.advance(parent_node, name, attributes)
        key = (node, parent_label.R, parent_label.RW, parent_label.RD)
        cached = self._label_cache.get(key)
        if cached is None:
            label = self._labels.element_label(node, parent_label)
            cached = (label, label.permitted_under(self._open_policy))
            self._label_cache[key] = cached
        label, permitted = cached

        kept_attrs = self._decide_attributes(attributes, node, label)

        self.stats.total_nodes += 1 + len(attributes)
        frame = _Frame(name, label, permitted, node)
        frames.append(frame)

        if permitted or kept_attrs:
            self._emit_chain()
            self._writer.start_element(
                name, [(key, attributes[key]) for key in kept_attrs]
            )
            frame.emitted = True
            self._emitted_depth = len(frames)
            self._root_emitted = True
            self.stats.visible_nodes += 1 + len(kept_attrs)
            self.stats.emitted_elements += 1
        else:
            self._pending_bytes += len(name)
            self.stats.buffered_elements += 1
            pending_depth = len(frames) - self._emitted_depth
            if pending_depth > self.stats.peak_pending_depth:
                self.stats.peak_pending_depth = pending_depth
            if self._pending_bytes > self.stats.peak_pending_bytes:
                self.stats.peak_pending_bytes = self._pending_bytes
            self._check_pending_budget()

    def _decide_attributes(
        self, attributes: dict[str, str], node: DispatchNode, element_label: Label
    ) -> list[str]:
        if not attributes:
            return []
        open_policy = self._open_policy
        if not node.attr_entries:
            # No pattern can select these attributes: they all share the
            # label an unauthorized attribute inherits from the element.
            # Element labels are interned, so the verdict caches by id.
            keep_all = self._inherit_cache.get(id(element_label))
            if keep_all is None:
                inherited = self._labels.inherited_label(element_label)
                keep_all = inherited.permitted_under(open_policy)
                self._inherit_cache[id(element_label)] = keep_all
            return list(attributes) if keep_all else []
        kept: list[str] = []
        label_id = id(element_label)
        cache = self._attr_cache
        for attr_name in attributes:
            key = (node, attr_name, label_id)
            keep = cache.get(key)
            if keep is None:
                label = self._labels.attribute_label(node, attr_name, element_label)
                keep = label.permitted_under(open_policy)
                if len(cache) < 65536:  # hostile vocabularies stay bounded
                    cache[key] = keep
            if keep:
                kept.append(attr_name)
        return kept

    def _emit_chain(self) -> None:
        """Flush pending ancestors as bare tags (structural survivors)."""
        frames = self._frames
        for index in range(self._emitted_depth, len(frames) - 1):
            frame = frames[index]
            self._writer.start_element(frame.name)
            frame.emitted = True
            self._pending_bytes -= len(frame.name)
            self.stats.visible_nodes += 1
            self.stats.emitted_elements += 1
        # (the new top frame is emitted by the caller, with attributes)

    def _on_end(self, event: EndElement) -> None:
        frame = self._frames.pop()
        if frame.emitted:
            self._writer.end_element()
            self._emitted_depth = len(self._frames)
        else:
            self._pending_bytes -= len(frame.name)

    # -- values --------------------------------------------------------------

    def _on_text(self, event: Characters) -> None:
        frame = self._frames[-1]
        if not frame.in_text_run:
            # One maximal run of character data = one Text node of the
            # DOM tree (the parser merges adjacent runs and CDATA).
            frame.in_text_run = True
            self.stats.total_nodes += 1
            if frame.permitted:
                self.stats.visible_nodes += 1
        if frame.permitted:
            self._writer.text(event.data)

    def _on_misc_value(self, data: str, target: Optional[str]) -> None:
        if not self._frames:
            # Prolog/epilog comments and PIs never reach the view: the
            # DOM build_view starts from an empty child list and only
            # ever appends the root element.
            return
        frame = self._frames[-1]
        frame.in_text_run = False
        self.stats.total_nodes += 1
        if frame.permitted:
            self.stats.visible_nodes += 1
            if target is None:
                self._writer.comment(data)
            else:
                self._writer.processing_instruction(target, data)

    # -- guards --------------------------------------------------------------

    def _check_pending_budget(self) -> None:
        limits = self._limits
        if (
            limits is not None
            and limits.max_stream_buffer_bytes is not None
            and self._pending_bytes > limits.max_stream_buffer_bytes
        ):
            raise XMLLimitExceeded(
                "streaming pending-subtree buffer exceeds the "
                f"{limits.max_stream_buffer_bytes}-character budget",
                limit="max_stream_buffer_bytes",
                value=self._pending_bytes,
                maximum=limits.max_stream_buffer_bytes,
            )
