"""An incremental (feed-style) XML tokenizer, the only one in the code base.

:class:`StreamReader` accepts the document in arbitrary chunks and
emits :mod:`repro.stream.events`. Every XML parse runs on it:
:func:`repro.xml.parser.parse_document` hands it a whole text as the
final chunk of :meth:`~StreamReader.close`, with a
:class:`~repro.stream.builder.DocumentBuilder` as the event sink that
builds each construct as it is read; ``parse_document_chunks`` and the
streaming backend feed it chunk by chunk. Any chunking yields the same
events. Property tests hold its trees, error types and guard trips to
an independent recursive-descent reference parser
(``tests/xml/_reference_parser.py``), and its events, messages and
positions to the frozen seed per-character reader
(``tests/stream/_seed_reader.py``). A syntax error reports the line and
column where the failing construct starts.

The hot loop is *bulk-scanning*: instead of stepping character by
character, the tokenizer jumps straight to the next construct boundary
with ``str.find`` (``<``, ``>``, ``]]>``, ``-->``, ``?>``) and
precompiled regexes (XML names, invalid characters), and it consumes
input by advancing an offset into the buffer rather than re-slicing the
string per construct. Each ``feed`` compacts the consumed prefix away
once, so the retained memory is still only the unconsumed tail.

The reader holds back only what it must:

- the unconsumed tail of the current construct (a start tag until its
  ``>``, a comment until ``-->``, one text segment until the next
  markup — or, for long runs, just the unsafe suffix);
- an ``&`` reference that has not yet seen its ``;``
  (:func:`repro.xml.escape.incomplete_reference_suffix` — the
  chunk-boundary fix shared with ``parse_document_chunks``);
- a trailing ``]`` / ``]]`` (the ``]]>``-in-character-data check may
  span chunks) and a trailing ``\\r`` (EOL normalization may pair it
  with a ``\\n`` from the next chunk).

That carry-over buffer is bounded by
``ResourceLimits.max_stream_buffer_bytes``; documents of any length
stream in constant memory as long as no single construct exceeds the
budget. ``parse_document``, which holds its whole text already, reads
it with the end of input known and holds nothing back.

Input-budget accounting (``max_input_bytes``) charges *normalized*
characters — after ``\\r\\n`` → ``\\n`` folding — so the same document
costs the same regardless of its line endings.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Optional, Protocol

from repro.errors import LimitExceeded, XMLLimitExceeded, XMLSyntaxError
from repro.limits import Deadline, ResourceLimits
from repro.xml.chars import (
    INVALID_XML_CHAR_RE,
    NAME_RE,
    WHITESPACE,
    is_name_char,
    is_name_start_char,
)
from repro.xml.escape import resolve_references
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

__all__ = ["EventSink", "StreamReader", "iter_events"]

_PROLOG = 0
_CONTENT = 1
_EPILOG = 2

#: Events between two deadline checks.
_DEADLINE_STRIDE = 256

#: Characters a DOCTYPE scanner must stop at: quotes open literals,
#: brackets track the internal subset, '>' may end the declaration.
_DOCTYPE_SCAN = re.compile(r"[\"'\[\]>]")


class EventSink(Protocol):
    """Where :meth:`StreamReader.feed` puts events: a list, or a
    consumer that handles each event as it is appended."""

    def append(self, event: StreamEvent) -> None: ...


class StreamReader:
    """One incremental parse; feed() chunks, then close()."""

    def __init__(
        self,
        limits: Optional[ResourceLimits] = None,
        deadline: Optional[Deadline] = None,
        on_start_tag: Optional[Callable[[], None]] = None,
    ) -> None:
        """*on_start_tag*, if given, is called as soon as a start tag's
        name is read, before the rest of the tag is checked.
        :class:`~repro.stream.builder.DocumentBuilder` checks its node
        budget there, so a document over that budget is refused at the
        first element past it even when that element's tag is damaged.
        """
        self._limits = limits
        self._on_start_tag = on_start_tag
        self._deadline = (
            deadline if deadline is not None and not deadline.unbounded else None
        )
        self._buf = ""
        self._pos = 0
        self._pending_cr = False
        self._line = 1
        self._col = 1
        self._state = _PROLOG
        self._at_start = True
        self._started = False
        self._seen_doctype = False
        self._entities: dict[str, str] = {}
        self._stack: list[str] = []
        self._segment_open = False
        self._chars_fed = 0
        self._events = 0
        self._finished = False
        self._max_chars = limits.max_entity_expansion_chars if limits else None
        self._max_depth = limits.max_entity_expansion_depth if limits else None

    @property
    def chars_fed(self) -> int:
        """Normalized characters accepted so far (after CRLF folding)."""
        return self._chars_fed

    @property
    def buffered(self) -> int:
        """Characters currently held back."""
        return len(self._buf) - self._pos + (1 if self._pending_cr else 0)

    # -- public -------------------------------------------------------------

    def feed(self, chunk: str, out: Optional[EventSink] = None) -> EventSink:
        """Accept the next chunk; append the events it completed to *out*.

        *out* defaults to a new list, and is returned. Any object with
        an ``append`` method will do: a
        :class:`~repro.stream.builder.DocumentBuilder` passed as *out*
        builds each construct as soon as it is read, so its node-count
        guard trips before the reader looks at the next construct and
        no list of the chunk's events is ever held.
        """
        if self._finished:
            raise ValueError("reader already closed")
        events = [] if out is None else out
        if self._accept(chunk):
            self._pump(events, at_eof=False)
            self._check_buffer_budget()
        if self._deadline is not None:
            self._deadline.check("stream parse")
        return events

    def close(self, out: Optional[EventSink] = None, last: str = "") -> EventSink:
        """Signal end of input; append the final events to *out* (as
        :meth:`feed` does) and return it.

        *last* is a final chunk read with the end of input already
        known, so no construct in it waits for more: a document that
        ends inside a text run is refused before that text is handed
        out. ``close(out, text)`` reads a whole document.
        """
        if self._finished:
            raise ValueError("reader already closed")
        if last.endswith("\r"):
            # Nothing follows: the CR ends a line now, and the input
            # budget is charged for it with the rest of the chunk.
            last += "\n"
        self._accept(last)
        if self._pending_cr:
            self._pending_cr = False
            self._accept("\n")
        events = [] if out is None else out
        self._pump(events, at_eof=True)
        if self._state == _CONTENT:
            self._fail(f"unterminated element <{self._stack[-1]}>")
        if self._pos < len(self._buf):
            if self._state == _EPILOG:
                self._fail("unexpected content after root element")
            self._fail("expected root element")
        if self._state == _PROLOG:
            self._fail("expected root element")
        self._ensure_started(events)
        events.append(EndDocument())
        self._finished = True
        return events

    def _accept(self, chunk: str) -> bool:
        """Fold *chunk*'s line ends and append it to the buffer; False
        when that adds nothing (an empty chunk, or a lone held-back CR)."""
        if not chunk:
            return False
        prefix = ""
        if self._pending_cr:
            self._pending_cr = False
            if not chunk.startswith("\n"):
                prefix = "\n"
        if chunk.endswith("\r"):
            self._pending_cr = True
            chunk = chunk[:-1]
        if "\r" in chunk:
            chunk = chunk.replace("\r\n", "\n").replace("\r", "\n")
        added = prefix + chunk if prefix else chunk
        if not added:
            return False
        # Budget accounting is post-normalization: a CRLF document
        # costs its folded length.
        self._chars_fed += len(added)
        self._check_input_budget()
        if self._pos:
            # Compact the consumed prefix away exactly once per chunk;
            # within a pump the buffer is immutable and consumption is
            # just an offset bump.
            self._buf = self._buf[self._pos :] + added
            self._pos = 0
        else:
            self._buf += added
        return True

    # -- pump loop ----------------------------------------------------------

    def _pump(self, events: EventSink, at_eof: bool) -> None:
        while self._step(events, at_eof):
            self._events += 1
            if (
                self._deadline is not None
                and self._events % _DEADLINE_STRIDE == 0
            ):
                self._deadline.check("stream parse")

    def _step(self, events: EventSink, at_eof: bool) -> bool:
        """Emit at most one construct; False when more input is needed."""
        if self._state == _CONTENT:
            return self._step_content(events, at_eof)
        return self._step_misc(events, at_eof)

    # -- prolog / epilog ----------------------------------------------------

    def _step_misc(self, events: EventSink, at_eof: bool) -> bool:
        buf = self._buf
        pos = self._pos
        n = len(buf)
        if self._at_start:
            if not at_eof and n - pos < 6 and "<?xml ".startswith(buf[pos:]):
                return False
            if buf.startswith("<?xml", pos) and (
                pos + 5 == n or buf[pos + 5] in WHITESPACE
            ):
                return self._read_xml_declaration(events, at_eof)
            self._at_start = False
        # Inter-construct whitespace is consumed silently.
        i = pos
        while i < n and buf[i] in WHITESPACE:
            i += 1
        if i > pos:
            self._consume(i - pos)
            pos = i
            self._at_start = False
        if pos >= n:
            return False
        if buf[pos] != "<":
            if self._state == _EPILOG:
                self._fail("unexpected content after root element")
            self._fail("expected root element")
        if buf.startswith("<!--", pos):
            return self._read_comment(events, at_eof)
        if not at_eof and n - pos < 4 and "<!--".startswith(buf[pos:]):
            return False
        if self._state == _PROLOG:
            if buf.startswith("<!DOCTYPE", pos):
                return self._read_doctype(events, at_eof)
            if not at_eof and n - pos < 9 and "<!DOCTYPE".startswith(buf[pos:]):
                return False
        if buf.startswith("<?", pos):
            return self._read_pi(events, at_eof)
        if not at_eof and n - pos < 2:
            return False
        if self._state == _EPILOG:
            self._fail("unexpected content after root element")
        return self._read_start_tag(events, at_eof)

    def _read_xml_declaration(self, events: EventSink, at_eof: bool) -> bool:
        pos = self._pos
        end = self._find_unquoted("?>", pos + 5)
        if end is None:
            if not at_eof:
                return False
            self._fail("unterminated XML declaration")
        body = self._buf[pos + 5 : end]
        attrs = self._parse_pseudo_attributes(body)
        version = attrs.get("version")
        if version is None:
            self._fail("XML declaration must specify a version")
        standalone_raw = attrs.get("standalone")
        standalone: Optional[bool] = None
        if standalone_raw is not None:
            if standalone_raw not in ("yes", "no"):
                self._fail("standalone must be 'yes' or 'no'")
            standalone = standalone_raw == "yes"
        self._consume(end + 2 - pos)
        self._at_start = False
        self._started = True
        events.append(
            StartDocument(
                xml_version=version,
                encoding=attrs.get("encoding"),
                standalone=standalone,
            )
        )
        return True

    def _parse_pseudo_attributes(self, body: str) -> dict[str, str]:
        attrs: dict[str, str] = {}
        i, n = 0, len(body)
        while True:
            while i < n and body[i] in WHITESPACE:
                i += 1
            if i >= n:
                return attrs
            if not is_name_start_char(body[i]):
                self._fail("expected a name")
            match = NAME_RE.match(body, i)
            name = match.group()
            i = match.end()
            while i < n and body[i] in WHITESPACE:
                i += 1
            if i >= n or body[i] != "=":
                self._fail("expected '='")
            i += 1
            while i < n and body[i] in WHITESPACE:
                i += 1
            if i >= n or body[i] not in "'\"":
                self._fail("expected a quoted literal")
            quote = body[i]
            closing = body.find(quote, i + 1)
            if closing == -1:
                self._fail("unterminated literal")
            attrs[name] = body[i + 1 : closing]
            i = closing + 1

    def _read_doctype(self, events: EventSink, at_eof: bool) -> bool:
        if self._seen_doctype:
            self._fail("multiple DOCTYPE declarations")
        pos = self._pos
        end = self._find_doctype_end()
        if end is None:
            if not at_eof:
                return False
            self._fail("unterminated DOCTYPE declaration")
        self._ensure_started(events)
        name, system_id, dtd = self._parse_doctype_body(self._buf[pos + 9 : end])
        self._seen_doctype = True
        self._consume(end + 1 - pos)
        events.append(DoctypeDecl(name=name, system_id=system_id, dtd=dtd))
        return True

    def _find_doctype_end(self) -> Optional[int]:
        """Index of the ``>`` closing the DOCTYPE, skipping literals and
        the bracketed internal subset; None when it has not arrived."""
        buf = self._buf
        depth = 0
        i = self._pos + 9
        while True:
            match = _DOCTYPE_SCAN.search(buf, i)
            if match is None:
                return None
            ch = match.group()
            at = match.start()
            if ch in "'\"":
                closing = buf.find(ch, at + 1)
                if closing == -1:
                    return None
                i = closing + 1
            elif ch == "[":
                depth += 1
                i = at + 1
            elif ch == "]":
                depth -= 1
                i = at + 1
            elif depth == 0:
                return at
            else:
                i = at + 1

    def _parse_doctype_body(
        self, body: str
    ) -> tuple[str, Optional[str], Optional[object]]:
        i, n = 0, len(body)
        if i >= n or body[i] not in WHITESPACE:
            self._fail("expected whitespace")
        while i < n and body[i] in WHITESPACE:
            i += 1
        start = i
        if i >= n or not is_name_start_char(body[i]):
            self._fail("expected a name")
        i += 1
        while i < n and is_name_char(body[i]):
            i += 1
        name = body[start:i]
        while i < n and body[i] in WHITESPACE:
            i += 1
        system_id: Optional[str] = None

        def read_literal(j: int) -> tuple[str, int]:
            if j >= n or body[j] not in "'\"":
                self._fail("expected a quoted literal")
            closing = body.find(body[j], j + 1)
            if closing == -1:
                self._fail("unterminated literal")
            return body[j + 1 : closing], closing + 1

        if body.startswith("SYSTEM", i):
            i += 6
            if i >= n or body[i] not in WHITESPACE:
                self._fail("expected whitespace")
            while i < n and body[i] in WHITESPACE:
                i += 1
            system_id, i = read_literal(i)
            while i < n and body[i] in WHITESPACE:
                i += 1
        elif body.startswith("PUBLIC", i):
            i += 6
            if i >= n or body[i] not in WHITESPACE:
                self._fail("expected whitespace")
            while i < n and body[i] in WHITESPACE:
                i += 1
            _public, i = read_literal(i)  # public id (kept out of the model)
            if i >= n or body[i] not in WHITESPACE:
                self._fail("expected whitespace")
            while i < n and body[i] in WHITESPACE:
                i += 1
            system_id, i = read_literal(i)
            while i < n and body[i] in WHITESPACE:
                i += 1
        dtd = None
        if i < n and body[i] == "[":
            closing = body.rfind("]")
            if closing < i:
                self._fail("unterminated internal DTD subset")
            subset = body[i + 1 : closing]
            dtd = self._parse_internal_subset(subset)
            i = closing + 1
            while i < n and body[i] in WHITESPACE:
                i += 1
        if i != n:
            self._fail("expected '>'")
        return name, system_id, dtd

    def _parse_internal_subset(self, subset: str):
        # Imported lazily: repro.dtd depends on repro.xml.nodes, so a
        # top-level import here would be circular.
        from repro.dtd.parser import parse_dtd

        try:
            dtd = parse_dtd(subset, limits=self._limits)
        except LimitExceeded as exc:  # keep the typed guard trip
            raise XMLLimitExceeded(
                f"error in internal DTD subset: {exc}",
                self._line,
                self._col,
                limit=exc.limit,
                value=exc.value,
                maximum=exc.maximum,
            ) from exc
        except Exception as exc:  # re-anchor DTD errors in this document
            raise XMLSyntaxError(
                f"error in internal DTD subset: {exc}", self._line, self._col
            ) from exc
        self._entities.update(dtd.general_entities)
        return dtd

    # -- content ------------------------------------------------------------

    def _step_content(self, events: EventSink, at_eof: bool) -> bool:
        buf = self._buf
        pos = self._pos
        n = len(buf)
        if pos >= n:
            return False
        if buf[pos] != "<":
            return self._read_text(events, at_eof)
        self._segment_open = False
        if pos + 1 >= n:
            # A lone '<': at EOF the start-tag parser produces the right
            # error; otherwise wait for the discriminating character.
            if at_eof:
                return self._read_start_tag(events, at_eof)
            return False
        second = buf[pos + 1]
        if second == "/":
            return self._read_end_tag(events, at_eof)
        if second == "!":
            if buf.startswith("<!--", pos):
                return self._read_comment(events, at_eof)
            if buf.startswith("<![CDATA[", pos):
                return self._read_cdata(events, at_eof)
            head = buf[pos : pos + 9]
            if not at_eof and (
                "<!--".startswith(head) or "<![CDATA[".startswith(head)
            ):
                return False
            self._fail("declarations are not allowed in content")
        if second == "?":
            return self._read_pi(events, at_eof)
        return self._read_start_tag(events, at_eof)

    def _read_text(self, events: EventSink, at_eof: bool) -> bool:
        buf = self._buf
        pos = self._pos
        idx = buf.find("<", pos)
        if idx == -1:
            if at_eof:
                self._fail(f"unterminated element <{self._stack[-1]}>")
            # No markup in sight: emit the safe prefix so huge text runs
            # stream in bounded memory, holding back anything a later
            # chunk could complete into a reference, ']]>' or CRLF.
            amp = buf.rfind("&", pos)
            if amp != -1 and buf.find(";", amp) == -1:
                hold = len(buf) - amp
            elif buf.endswith("]]"):
                hold = 2
            elif buf.endswith("]"):
                hold = 1
            else:
                hold = 0
            end = len(buf) - hold
            if end <= pos:
                return False
            self._emit_text(events, pos, end, final=False)
            return True
        self._emit_text(events, pos, idx, final=True)
        return True

    def _emit_text(
        self, events: EventSink, start: int, end: int, final: bool
    ) -> None:
        raw = self._buf[start:end]
        if "]]>" in raw:
            self._fail("']]>' not allowed in character data")
        bad = INVALID_XML_CHAR_RE.search(raw)
        if bad is not None:
            self._fail(
                f"invalid character U+{ord(bad.group()):04X} in character data"
            )
        if "&" in raw:
            data = resolve_references(
                raw, self._entities, self._line, self._col,
                self._max_chars, self._max_depth,
            )
        else:
            data = raw
        events.append(
            Characters(data, cdata=False, new_segment=not self._segment_open)
        )
        self._segment_open = not final
        self._consume(end - start)

    def _read_cdata(self, events: EventSink, at_eof: bool) -> bool:
        pos = self._pos
        end = self._buf.find("]]>", pos + 9)
        if end == -1:
            if not at_eof:
                return False
            self._fail("unterminated CDATA section")
        events.append(Characters(self._buf[pos + 9 : end], cdata=True))
        self._consume(end + 3 - pos)
        return True

    def _read_end_tag(self, events: EventSink, at_eof: bool) -> bool:
        buf = self._buf
        pos = self._pos
        end = buf.find(">", pos + 2)
        if end == -1:
            if not at_eof:
                return False
            self._fail(f"unterminated element <{self._stack[-1]}>")
        match = NAME_RE.match(buf, pos + 2, end)
        if match is None:
            self._fail("expected a name")
        closing = match.group()
        i = match.end()
        while i < end and buf[i] in WHITESPACE:
            i += 1
        if i != end:
            self._fail("expected '>'")
        current = self._stack[-1]
        if closing != current:
            self._fail(
                f"mismatched end tag: expected </{current}>, found </{closing}>"
            )
        self._stack.pop()
        self._consume(end + 1 - pos)
        events.append(EndElement(closing))
        if not self._stack:
            self._state = _EPILOG
        return True

    def _read_comment(self, events: EventSink, at_eof: bool) -> bool:
        buf = self._buf
        pos = self._pos
        end = buf.find("--", pos + 4)
        if end == -1 or end + 2 >= len(buf):
            if end != -1 and at_eof:
                self._fail("expected '-->'")
            if not at_eof:
                return False
            self._fail("unterminated comment")
        if buf[end + 2] != ">":
            self._fail("expected '-->'")
        self._ensure_started(events)
        events.append(CommentEvent(buf[pos + 4 : end]))
        self._consume(end + 3 - pos)
        return True

    def _read_pi(self, events: EventSink, at_eof: bool) -> bool:
        buf = self._buf
        pos = self._pos
        end = buf.find("?>", pos + 2)
        if end == -1:
            if not at_eof:
                return False
            self._fail("unterminated processing instruction")
        match = NAME_RE.match(buf, pos + 2, end)
        if match is None:
            self._fail("expected a name")
        target = match.group()
        if target.lower() == "xml":
            self._fail("processing instruction target may not be 'xml'")
        i = match.end()
        data = ""
        if i < end:
            if buf[i] not in WHITESPACE:
                self._fail("expected '?>'")
            while i < end and buf[i] in WHITESPACE:
                i += 1
            data = buf[i:end]
        self._ensure_started(events)
        events.append(PIEvent(target, data))
        self._consume(end + 2 - pos)
        return True

    def _read_start_tag(self, events: EventSink, at_eof: bool) -> bool:
        pos = self._pos
        end = self._find_unquoted(">", pos + 1)
        if end is None:
            if not at_eof:
                return False
            return self._parse_tag(events, pos + 1, len(self._buf), at_eof=True)
        return self._parse_tag(events, pos + 1, end, at_eof=False)

    def _parse_tag(
        self, events: EventSink, start: int, end: int, at_eof: bool
    ) -> bool:
        """Parse ``name attrs...[/]`` — ``buf[start:end]`` is the inside
        of a start tag."""
        buf = self._buf
        match = NAME_RE.match(buf, start, end)
        if match is None:
            self._fail("expected a name")
        name = match.group()
        if self._on_start_tag is not None:
            self._on_start_tag()
        i = match.end()
        attributes: dict[str, str] = {}
        self_closing = False
        while True:
            before = i
            while i < end and buf[i] in WHITESPACE:
                i += 1
            if i >= end:
                if at_eof:
                    self._fail(f"unterminated element <{name}>")
                break
            if buf[i] == "/":
                if at_eof:  # the '>' never arrived
                    self._fail(f"unterminated element <{name}>")
                if i + 1 != end:
                    self._fail("expected '>'")
                self_closing = True
                break
            if before == i:
                self._fail("expected whitespace before attribute")
            match = NAME_RE.match(buf, i, end)
            if match is None:
                self._fail("expected a name")
            attr_name = match.group()
            i = match.end()
            if attr_name in attributes:
                self._fail(f"duplicate attribute {attr_name!r}")
            while i < end and buf[i] in WHITESPACE:
                i += 1
            if i >= end or buf[i] != "=":
                self._fail("expected '='")
            i += 1
            while i < end and buf[i] in WHITESPACE:
                i += 1
            if i >= end or buf[i] not in "'\"":
                self._fail("attribute value must be quoted")
            quote = buf[i]
            closing = buf.find(quote, i + 1, end)
            if closing == -1:
                self._fail("unterminated attribute value")
            raw = buf[i + 1 : closing]
            if "<" in raw:
                self._fail("'<' not allowed in attribute value")
            i = closing + 1
            # Attribute-value normalization: *literal* whitespace becomes
            # a plain space; whitespace produced by character references
            # survives, so normalize before resolving.
            if "\t" in raw:
                raw = raw.replace("\t", " ")
            if "\n" in raw:
                raw = raw.replace("\n", " ")
            if "&" in raw:
                raw = resolve_references(
                    raw, self._entities, self._line, self._col,
                    self._max_chars, self._max_depth,
                )
            attributes[attr_name] = raw
        self._ensure_started(events)
        self._consume(end + 1 - self._pos)  # the tag body plus '<' and '>'
        events.append(StartElement(name, attributes))
        if self._state == _PROLOG:
            self._state = _CONTENT
        if self_closing:
            events.append(EndElement(name))
            if not self._stack:
                self._state = _EPILOG
        else:
            self._stack.append(name)
            self._check_depth()
        return True

    # -- guards / helpers ---------------------------------------------------

    def _check_depth(self) -> None:
        limits = self._limits
        if (
            limits is not None
            and limits.max_tree_depth is not None
            and len(self._stack) > limits.max_tree_depth
        ):
            raise XMLLimitExceeded(
                f"element nesting exceeds the {limits.max_tree_depth}-level "
                "depth limit",
                self._line,
                self._col,
                limit="max_tree_depth",
                value=len(self._stack),
                maximum=limits.max_tree_depth,
            )

    def _check_input_budget(self) -> None:
        limits = self._limits
        if (
            limits is not None
            and limits.max_input_bytes is not None
            and self._chars_fed > limits.max_input_bytes
        ):
            raise XMLLimitExceeded(
                f"document is over the {limits.max_input_bytes}-character "
                "input limit",
                limit="max_input_bytes",
                value=self._chars_fed,
                maximum=limits.max_input_bytes,
            )

    def _check_buffer_budget(self) -> None:
        limits = self._limits
        held = len(self._buf) - self._pos
        if (
            limits is not None
            and limits.max_stream_buffer_bytes is not None
            and held > limits.max_stream_buffer_bytes
        ):
            raise XMLLimitExceeded(
                "streaming hold-back buffer exceeds the "
                f"{limits.max_stream_buffer_bytes}-character budget "
                "(single construct too large to stream)",
                self._line,
                self._col,
                limit="max_stream_buffer_bytes",
                value=held,
                maximum=limits.max_stream_buffer_bytes,
            )

    def _ensure_started(self, events: EventSink) -> None:
        if not self._started:
            self._started = True
            events.append(StartDocument())

    def _find_unquoted(self, token: str, start: int) -> Optional[int]:
        """First index of *token* at/after *start*, outside quotes.

        Jumps ``str.find`` to ``str.find`` instead of walking characters:
        find the next candidate token, check whether a quote opens before
        it, and if so leap past the quoted literal.
        """
        buf = self._buf
        i = start
        while True:
            at = buf.find(token, i)
            if at == -1:
                return None
            single = buf.find("'", i, at)
            double = buf.find('"', i, at)
            if single == -1 and double == -1:
                return at
            if single == -1 or (double != -1 and double < single):
                quote = double
            else:
                quote = single
            closing = buf.find(buf[quote], quote + 1)
            if closing == -1:
                return None  # literal still open; need more input
            i = closing + 1

    def _consume(self, count: int) -> None:
        buf = self._buf
        start = self._pos
        end = start + count
        newlines = buf.count("\n", start, end)
        if newlines:
            self._line += newlines
            self._col = end - buf.rfind("\n", start, end)
        else:
            self._col += count
        self._pos = end

    def _fail(self, message: str) -> None:
        raise XMLSyntaxError(message, self._line, self._col)


def iter_events(
    chunks: Iterable[str],
    limits: Optional[ResourceLimits] = None,
    deadline: Optional[Deadline] = None,
) -> Iterator[StreamEvent]:
    """Pull-parse *chunks* into a stream of events."""
    reader = StreamReader(limits=limits, deadline=deadline)
    for chunk in chunks:
        yield from reader.feed(chunk)
    yield from reader.close()
