"""Parse XML text into :mod:`repro.xml.nodes` trees.

This is the "parsing step" of the paper's security processor (Section 7,
step 1): syntax-check the requested document and compile it into an
object tree. Both entry points run on the one tokenizer of the code
base, the bulk-scan :class:`~repro.stream.reader.StreamReader`, and
rebuild its events with :class:`~repro.stream.builder.DocumentBuilder`.
The reader covers:

- the XML declaration and prolog,
- ``<!DOCTYPE name SYSTEM "...">`` with an optional internal subset,
  which is handed to :mod:`repro.dtd.parser` (general entities declared
  there become available to the document),
- elements, attributes (with value normalization), character data,
- CDATA sections, comments, processing instructions,
- character references and entity references,
- end-of-line normalization (CR and CRLF become LF, per the spec).

It enforces well-formedness: matching tags, a single root element, no
duplicate attributes, legal characters, ``]]>`` not appearing in
character data, and so on. A syntax error reports the line and column
where the failing construct starts. Validity (conformance to a DTD) is
a separate concern handled by :mod:`repro.dtd.validator`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import XMLSyntaxError
from repro.limits import Deadline, ResourceLimits
from repro.obs.trace import span
from repro.xml.nodes import Document, Element

__all__ = [
    "parse_document",
    "parse_document_chunks",
    "parse_fragment",
]


def parse_document(
    text: str,
    uri: Optional[str] = None,
    keep_comments: bool = True,
    keep_ignorable_whitespace: bool = True,
    limits: Optional[ResourceLimits] = None,
    deadline: Optional[Deadline] = None,
) -> Document:
    """Parse *text* into a :class:`Document`.

    Parameters
    ----------
    text:
        The complete XML document as a string.
    uri:
        Recorded on the resulting document (used later to select the
        applicable XACLs).
    keep_comments:
        When false, comments are dropped from the tree.
    keep_ignorable_whitespace:
        When false, text nodes that are pure whitespace are dropped;
        convenient for structural comparisons in tests.
    limits:
        Optional :class:`~repro.limits.ResourceLimits` enforced during
        parsing (input size, tree depth, node count, entity expansion).
        ``None`` keeps only the library's built-in entity-bomb caps.
        ``max_stream_buffer_bytes`` does not apply: it bounds markup
        held back while waiting for input, and *text* is all there.
    deadline:
        Optional shared wall-clock :class:`~repro.limits.Deadline`,
        checked periodically while building the tree.

    Raises
    ------
    XMLSyntaxError
        If *text* is not a well-formed XML document.
    XMLLimitExceeded, DeadlineExceeded
        If a resource guard from *limits*/*deadline* trips.
    """
    # The reader gets the text as one final chunk, so no text run is
    # split and each guard trips where the text, not a chunking, says.
    return _build(
        (), text, "parse.xml", uri, keep_comments, keep_ignorable_whitespace,
        limits, deadline,
    )


def parse_document_chunks(
    chunks: Iterable[str],
    uri: Optional[str] = None,
    keep_comments: bool = True,
    keep_ignorable_whitespace: bool = True,
    limits: Optional[ResourceLimits] = None,
    deadline: Optional[Deadline] = None,
) -> Document:
    """Parse a document arriving as text *chunks* into a :class:`Document`.

    Equivalent to ``parse_document("".join(chunks), ...)``, but the
    input is never concatenated into one string: chunk boundaries may
    fall anywhere — inside a tag, in the middle of an entity or
    character reference, or between ``\\r`` and ``\\n`` — without
    changing the tree. It raises the same error types and honors the
    same *limits* and *deadline*; additionally,
    ``max_stream_buffer_bytes`` bounds how much unfinished markup the
    tokenizer may hold back between chunks. A chunk boundary may split
    a text run into two reference-resolution passes, each charged
    separately against ``max_entity_expansion_chars``; a
    ``max_input_bytes`` trip reports the characters fed so far; and the
    text before a boundary becomes a node before the rest of its run is
    checked, so ``max_node_count`` may trip on a document that the
    joined text rejects as a syntax error. Those three guards may trip
    at other points than for the joined text.
    """
    return _build(
        chunks, "", "parse.xml.chunks", uri, keep_comments,
        keep_ignorable_whitespace, limits, deadline,
    )


def _build(
    chunks: Iterable[str],
    last: str,
    span_name: str,
    uri: Optional[str],
    keep_comments: bool,
    keep_ignorable_whitespace: bool,
    limits: Optional[ResourceLimits],
    deadline: Optional[Deadline],
) -> Document:
    # Imported lazily: repro.stream builds on repro.xml, so a top-level
    # import here would be circular.
    from repro.stream.builder import DocumentBuilder
    from repro.stream.reader import StreamReader

    builder = DocumentBuilder(
        keep_comments=keep_comments,
        keep_ignorable_whitespace=keep_ignorable_whitespace,
        limits=limits,
        deadline=deadline,
    )
    reader = StreamReader(
        limits=limits, deadline=deadline, on_start_tag=builder.check_node_room
    )
    with span(span_name):
        # The builder is the reader's event sink: each construct joins
        # the tree as soon as it is read, so the node budget trips
        # before the reader looks any further and no event list is kept.
        for chunk in chunks:
            reader.feed(chunk, builder)
        reader.close(builder, last)
    document = builder.finish()
    document.uri = uri
    return document


def parse_fragment(text: str) -> Element:
    """Parse a single-element fragment and return its root element.

    A convenience for tests and examples; equivalent to wrapping the
    fragment as a document and taking the root.
    """
    document = parse_document(text)
    root = document.root
    if root is None:
        raise XMLSyntaxError("fragment has no root element")
    return root
