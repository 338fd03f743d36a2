"""Rebuild a :mod:`repro.xml.nodes` tree from a stream of events.

:class:`DocumentBuilder` is the second half of every XML parse:
:func:`repro.xml.parser.parse_document` and ``parse_document_chunks``
pass it to the reader as its event sink, so it builds each construct as
soon as the reader has read it, and
``document_from_events(iter_events(chunks))`` does the same for any
event source. Its tree conventions, which matter for view parity:

- only elements and text nodes created outside CDATA are charged
  against ``max_node_count`` (attributes, comments and PIs are free);
- the ignorable-whitespace drop is decided per *markup-delimited
  segment* (the raw run between two pieces of markup), not per text
  node, so ``<a> <![CDATA[x]]></a>`` with the drop enabled keeps only
  ``x`` — the :attr:`~repro.stream.events.Characters.new_segment` flag
  carries the segment boundaries across event splits;
- CDATA-born text merges into a preceding text node without a new
  node charge and is never dropped, whitespace-only or not.

The reader already enforces the input/depth/buffer guards and syntax;
the builder adds only the node-count guard, which is a property of
*materializing* the tree and deliberately does not apply to the
streaming enforcement path. Handed :meth:`DocumentBuilder.check_node_room`
as its ``on_start_tag`` hook, the reader lets the builder refuse an
element over the budget as soon as its name is read, before the rest of
its tag is checked, as a tree parser would.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import XMLLimitExceeded, XMLSyntaxError
from repro.limits import Deadline, ResourceLimits
from repro.xml.nodes import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
)

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

__all__ = ["DocumentBuilder", "document_from_events"]


class DocumentBuilder:
    """Accumulate events into a :class:`Document`; feed(), then finish()."""

    #: Node creations between two deadline checks.
    _DEADLINE_STRIDE = 1024

    def __init__(
        self,
        keep_comments: bool = True,
        keep_ignorable_whitespace: bool = True,
        limits: Optional[ResourceLimits] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self._keep_comments = keep_comments
        self._keep_ws = keep_ignorable_whitespace
        self._limits = limits
        self._deadline = (
            deadline if deadline is not None and not deadline.unbounded else None
        )
        self._document = Document()
        self._stack: list[Element] = []
        self._nodes = 0
        self._finished = False
        # Segment buffer, used only when dropping ignorable whitespace:
        # the drop is decided on the whole markup-delimited segment.
        self._segment: list[str] = []
        self._segment_pending = False

    # -- public -------------------------------------------------------------

    def feed(self, events: Iterable[StreamEvent]) -> None:
        for event in events:
            self.append(event)

    def append(self, event: StreamEvent) -> None:
        """Build one event.

        The name lets a builder stand in for the event list of
        :meth:`~repro.stream.reader.StreamReader.feed`, which then hands
        over each construct as soon as it has read it.
        """
        if isinstance(event, Characters):
            self._on_characters(event)
            return
        if self._segment_pending:
            self._flush_segment()
        if isinstance(event, StartElement):
            self._on_start(event)
        elif isinstance(event, EndElement):
            self._stack.pop()
        elif isinstance(event, CommentEvent):
            if self._keep_comments:
                self._append(Comment(event.data))
        elif isinstance(event, PIEvent):
            self._append(ProcessingInstruction(event.target, event.data))
        elif isinstance(event, StartDocument):
            self._document.xml_version = event.xml_version
            self._document.encoding = event.encoding
            self._document.standalone = event.standalone
        elif isinstance(event, DoctypeDecl):
            self._document.doctype_name = event.name
            self._document.system_id = event.system_id
            self._document.dtd = event.dtd
        elif isinstance(event, EndDocument):
            self._finished = True

    def finish(self) -> Document:
        """The completed tree (after the reader's ``EndDocument``)."""
        if not self._finished:
            raise XMLSyntaxError("event stream ended without EndDocument")
        return self._document

    def check_node_room(self) -> None:
        """Trip ``max_node_count`` now if one more node would exceed it.

        The reader calls this when it reads a start tag's name (its
        ``on_start_tag`` hook); the element itself is charged when its
        :class:`~repro.stream.events.StartElement` arrives.
        """
        limits = self._limits
        if (
            limits is not None
            and limits.max_node_count is not None
            and self._nodes >= limits.max_node_count
        ):
            self._over_budget(self._nodes + 1)

    # -- event handling -----------------------------------------------------

    def _on_start(self, event: StartElement) -> None:
        self._count_node()
        element = Element(event.name)
        for name, value in event.attributes.items():
            element.set_attribute(name, value)
        self._append(element)
        self._stack.append(element)

    def _on_characters(self, event: Characters) -> None:
        if not self._stack:
            # The reader only lets whitespace through outside the root.
            if event.data.strip():
                raise XMLSyntaxError("character data outside the root element")
            return
        if event.cdata:
            # CDATA is its own markup item: it terminates any pending
            # segment and its text is kept (and uncharged) verbatim.
            self._flush_segment()
            self._merge_text(event.data, charge=False)
            return
        if self._keep_ws:
            # No drop decision to defer: append as the data arrives.
            self._merge_text(event.data, charge=True)
            return
        if event.new_segment:
            self._flush_segment()
            self._segment_pending = True
        self._segment.append(event.data)

    def _flush_segment(self) -> None:
        if not self._segment_pending:
            return
        data = "".join(self._segment)
        self._segment.clear()
        self._segment_pending = False
        if not data or data.strip() == "":
            return  # ignorable whitespace, dropped whole
        self._merge_text(data, charge=True)

    def _merge_text(self, data: str, charge: bool) -> None:
        parent = self._stack[-1]
        last = parent.children[-1] if parent.children else None
        if isinstance(last, Text):
            last.data += data
        else:
            if charge:
                self._count_node()
            parent.append(Text(data))

    # -- plumbing -----------------------------------------------------------

    def _append(self, node) -> None:
        if self._stack:
            self._stack[-1].append(node)
        else:
            self._document.append(node)

    def _count_node(self) -> None:
        self._nodes += 1
        limits = self._limits
        if (
            limits is not None
            and limits.max_node_count is not None
            and self._nodes > limits.max_node_count
        ):
            self._over_budget(self._nodes)
        if self._deadline is not None and self._nodes % self._DEADLINE_STRIDE == 0:
            self._deadline.check("tree build")

    def _over_budget(self, nodes: int) -> None:
        maximum = self._limits.max_node_count
        raise XMLLimitExceeded(
            f"document exceeds the {maximum}-node limit",
            limit="max_node_count",
            value=nodes,
            maximum=maximum,
        )


def document_from_events(
    events: Iterable[StreamEvent],
    uri: Optional[str] = None,
    keep_comments: bool = True,
    keep_ignorable_whitespace: bool = True,
    limits: Optional[ResourceLimits] = None,
    deadline: Optional[Deadline] = None,
) -> Document:
    """Materialize *events* (e.g. from :func:`iter_events`) as a tree."""
    builder = DocumentBuilder(
        keep_comments=keep_comments,
        keep_ignorable_whitespace=keep_ignorable_whitespace,
        limits=limits,
        deadline=deadline,
    )
    builder.feed(events)
    document = builder.finish()
    document.uri = uri
    return document
