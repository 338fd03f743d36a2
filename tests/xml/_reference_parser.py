"""The recursive-descent XML parser, kept as a test reference.

``repro.xml.parser.parse_document`` runs on the bulk-scan
``StreamReader`` and ``DocumentBuilder``. This independent
implementation of the same language is the reference the parity
suites compare them with: the same trees, the same error types, and the
same guard trips (limit, value and maximum). Its syntax-error messages
and positions are its own; the reader's are pinned by the seed-reader
differential in ``tests/stream``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import LimitExceeded, XMLLimitExceeded, XMLSyntaxError
from repro.limits import Deadline, ResourceLimits
from repro.xml.chars import WHITESPACE, is_name_char, is_name_start_char, is_xml_char
from repro.xml.escape import resolve_references
from repro.xml.nodes import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
)

__all__ = ["XMLParser", "reference_parse"]


def reference_parse(
    text: str,
    keep_comments: bool = True,
    keep_ignorable_whitespace: bool = True,
    limits: Optional[ResourceLimits] = None,
    deadline: Optional[Deadline] = None,
) -> Document:
    """Parse *text* with :class:`XMLParser`."""
    return XMLParser(
        text,
        keep_comments=keep_comments,
        keep_ignorable_whitespace=keep_ignorable_whitespace,
        limits=limits,
        deadline=deadline,
    ).parse()


class XMLParser:
    """Single-use recursive-descent parser over an input string."""

    #: How many node creations between two deadline checks.
    _DEADLINE_STRIDE = 1024

    def __init__(
        self,
        text: str,
        keep_comments: bool = True,
        keep_ignorable_whitespace: bool = True,
        limits: Optional[ResourceLimits] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        # Normalize line endings once, up front (XML 1.0 section 2.11).
        # The input budget charges *normalized* characters — as the
        # streaming reader does — so the same document costs the same
        # through either backend regardless of its line endings.
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if limits is not None and limits.max_input_bytes is not None:
            if len(text) > limits.max_input_bytes:
                raise XMLLimitExceeded(
                    f"document is {len(text)} characters, over the "
                    f"{limits.max_input_bytes}-character input limit",
                    limit="max_input_bytes",
                    value=len(text),
                    maximum=limits.max_input_bytes,
                )
        self._text = text
        self._pos = 0
        self._len = len(text)
        self._keep_comments = keep_comments
        self._keep_ws = keep_ignorable_whitespace
        self._entities: dict[str, str] = {}
        self._limits = limits
        self._deadline = deadline if deadline is not None and not deadline.unbounded else None
        self._nodes = 0
        self._max_chars = limits.max_entity_expansion_chars if limits else None
        self._max_depth = limits.max_entity_expansion_depth if limits else None

    def _count_node(self) -> None:
        """Charge one created node against the node and deadline guards."""
        self._nodes += 1
        limits = self._limits
        if (
            limits is not None
            and limits.max_node_count is not None
            and self._nodes > limits.max_node_count
        ):
            self._fail_limit(
                f"document exceeds the {limits.max_node_count}-node limit",
                limit="max_node_count",
                value=self._nodes,
                maximum=limits.max_node_count,
            )
        if self._deadline is not None and self._nodes % self._DEADLINE_STRIDE == 0:
            self._deadline.check("XML parse")

    def _fail_limit(
        self,
        message: str,
        limit: str,
        value: int,
        maximum: int,
    ) -> None:
        line, column = self._position()
        raise XMLLimitExceeded(
            message, line, column, limit=limit, value=value, maximum=maximum
        )

    # -- public entry ------------------------------------------------------

    def parse(self) -> Document:
        document = Document()
        self._parse_prolog(document)
        if self._pos >= self._len or self._peek() != "<":
            self._fail("expected root element")
        root = self._parse_element()
        document.append(root)
        self._parse_misc_trailer(document)
        if self._pos < self._len:
            self._fail("unexpected content after root element")
        return document

    # -- low-level scanning -------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._text[index] if index < self._len else ""

    def _advance(self, count: int = 1) -> None:
        self._pos += count

    def _starts_with(self, token: str) -> bool:
        return self._text.startswith(token, self._pos)

    def _expect(self, token: str) -> None:
        if not self._starts_with(token):
            self._fail(f"expected {token!r}")
        self._pos += len(token)

    def _skip_whitespace(self, required: bool = False) -> None:
        start = self._pos
        while self._pos < self._len and self._text[self._pos] in WHITESPACE:
            self._pos += 1
        if required and self._pos == start:
            self._fail("expected whitespace")

    def _position(self, pos: Optional[int] = None) -> tuple[int, int]:
        index = self._pos if pos is None else pos
        line = self._text.count("\n", 0, index) + 1
        last_newline = self._text.rfind("\n", 0, index)
        column = index - last_newline
        return line, column

    def _fail(self, message: str, pos: Optional[int] = None) -> None:
        line, column = self._position(pos)
        raise XMLSyntaxError(message, line, column)

    def _read_name(self) -> str:
        start = self._pos
        if self._pos >= self._len or not is_name_start_char(self._text[self._pos]):
            self._fail("expected a name")
        self._pos += 1
        while self._pos < self._len and is_name_char(self._text[self._pos]):
            self._pos += 1
        return self._text[start : self._pos]

    # -- prolog ---------------------------------------------------------------

    def _parse_prolog(self, document: Document) -> None:
        if self._starts_with("<?xml") and self._peek(5) in WHITESPACE:
            self._parse_xml_declaration(document)
        while True:
            self._skip_whitespace()
            if self._starts_with("<!--"):
                comment = self._parse_comment()
                if self._keep_comments:
                    document.append(comment)
            elif self._starts_with("<!DOCTYPE"):
                if document.doctype_name is not None:
                    self._fail("multiple DOCTYPE declarations")
                self._parse_doctype(document)
            elif self._starts_with("<?"):
                document.append(self._parse_pi())
            else:
                return

    def _parse_xml_declaration(self, document: Document) -> None:
        self._expect("<?xml")
        attrs = self._parse_pseudo_attributes(terminator="?>")
        version = attrs.get("version")
        if version is None:
            self._fail("XML declaration must specify a version")
        document.xml_version = version
        document.encoding = attrs.get("encoding")
        standalone = attrs.get("standalone")
        if standalone is not None:
            if standalone not in ("yes", "no"):
                self._fail("standalone must be 'yes' or 'no'")
            document.standalone = standalone == "yes"
        self._expect("?>")

    def _parse_pseudo_attributes(self, terminator: str) -> dict[str, str]:
        attrs: dict[str, str] = {}
        while True:
            self._skip_whitespace()
            if self._starts_with(terminator):
                return attrs
            name = self._read_name()
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            attrs[name] = self._read_quoted_literal()

    def _read_quoted_literal(self) -> str:
        quote = self._peek()
        if quote not in "'\"":
            self._fail("expected a quoted literal")
        self._advance()
        end = self._text.find(quote, self._pos)
        if end == -1:
            self._fail("unterminated literal")
        value = self._text[self._pos : end]
        self._pos = end + 1
        return value

    def _parse_doctype(self, document: Document) -> None:
        self._expect("<!DOCTYPE")
        self._skip_whitespace(required=True)
        document.doctype_name = self._read_name()
        self._skip_whitespace()
        if self._starts_with("SYSTEM"):
            self._advance(6)
            self._skip_whitespace(required=True)
            document.system_id = self._read_quoted_literal()
            self._skip_whitespace()
        elif self._starts_with("PUBLIC"):
            self._advance(6)
            self._skip_whitespace(required=True)
            self._read_quoted_literal()  # public id (kept out of the model)
            self._skip_whitespace(required=True)
            document.system_id = self._read_quoted_literal()
            self._skip_whitespace()
        if self._peek() == "[":
            self._advance()
            subset_start = self._pos
            depth = 1
            while self._pos < self._len:
                ch = self._text[self._pos]
                if ch == "]":
                    depth -= 1
                    if depth == 0:
                        break
                elif ch == "[":
                    depth += 1
                elif ch in "'\"":
                    closing = self._text.find(ch, self._pos + 1)
                    if closing == -1:
                        self._fail("unterminated literal in internal subset")
                    self._pos = closing
                self._pos += 1
            if self._pos >= self._len:
                self._fail("unterminated internal DTD subset")
            subset = self._text[subset_start : self._pos]
            self._advance()  # the closing ']'
            self._attach_internal_subset(document, subset, subset_start)
            self._skip_whitespace()
        self._expect(">")

    def _attach_internal_subset(
        self, document: Document, subset: str, subset_start: int
    ) -> None:
        # Imported lazily: repro.dtd depends on repro.xml.nodes, so a
        # top-level import here would be circular.
        from repro.dtd.parser import parse_dtd

        try:
            dtd = parse_dtd(subset, limits=self._limits)
        except LimitExceeded as exc:  # keep the typed guard trip
            line, column = self._position(subset_start)
            raise XMLLimitExceeded(
                f"error in internal DTD subset: {exc}",
                line,
                column,
                limit=exc.limit,
                value=exc.value,
                maximum=exc.maximum,
            ) from exc
        except Exception as exc:  # re-anchor DTD errors in this document
            line, column = self._position(subset_start)
            raise XMLSyntaxError(
                f"error in internal DTD subset: {exc}", line, column
            ) from exc
        document.dtd = dtd
        self._entities.update(dtd.general_entities)

    def _parse_misc_trailer(self, document: Document) -> None:
        while True:
            self._skip_whitespace()
            if self._starts_with("<!--"):
                comment = self._parse_comment()
                if self._keep_comments:
                    document.append(comment)
            elif self._starts_with("<?"):
                document.append(self._parse_pi())
            else:
                return

    # -- elements -----------------------------------------------------------

    def _parse_element(self) -> Element:
        """Parse one element (and its whole subtree), iteratively.

        An explicit open-element stack instead of recursion keeps
        arbitrarily deep documents (a classic parser DoS vector) within
        constant Python stack usage.
        """
        element, closed = self._parse_start_tag()
        if closed:
            return element
        stack: list[Element] = [element]
        max_depth = self._limits.max_tree_depth if self._limits else None
        while stack:
            if max_depth is not None and len(stack) > max_depth:
                self._fail_limit(
                    f"element nesting exceeds the {max_depth}-level depth limit",
                    limit="max_tree_depth",
                    value=len(stack),
                    maximum=max_depth,
                )
            current = stack[-1]
            closed_name = self._parse_content_until_tag(current)
            if closed_name is not None:
                if closed_name != current.name:
                    self._fail(
                        f"mismatched end tag: expected </{current.name}>, "
                        f"found </{closed_name}>"
                    )
                stack.pop()
                continue
            child, child_closed = self._parse_start_tag()
            current.append(child)
            if not child_closed:
                stack.append(child)
        return element

    def _parse_start_tag(self) -> tuple[Element, bool]:
        """Parse ``<name attrs...>`` or ``<name attrs.../>``.

        Returns (element, already-closed) — closed for the empty-tag
        form.
        """
        start_pos = self._pos
        self._expect("<")
        name = self._read_name()
        self._count_node()
        try:
            element = Element(name)
        except Exception:
            self._fail(f"invalid element name {name!r}", start_pos)
        self._parse_attributes(element)
        if self._starts_with("/>"):
            self._advance(2)
            return element, True
        self._expect(">")
        return element, False

    def _parse_content_until_tag(self, element: Element) -> Optional[str]:
        """Consume content of *element* until a start tag or its end tag.

        Returns the end-tag name when ``</name>`` was consumed, or
        ``None`` when stopping just before a child start tag (not
        consumed).
        """
        while True:
            if self._pos >= self._len:
                self._fail(f"unterminated element <{element.name}>")
            next_tag = self._text.find("<", self._pos)
            if next_tag == -1:
                self._fail(f"unterminated element <{element.name}>")
            if next_tag > self._pos:
                self._add_text(element, self._text[self._pos : next_tag], self._pos)
                self._pos = next_tag
            if self._starts_with("</"):
                self._advance(2)
                closing = self._read_name()
                self._skip_whitespace()
                self._expect(">")
                return closing
            if self._starts_with("<!--"):
                comment = self._parse_comment()
                if self._keep_comments:
                    element.append(comment)
            elif self._starts_with("<![CDATA["):
                self._parse_cdata(element)
            elif self._starts_with("<?"):
                element.append(self._parse_pi())
            elif self._starts_with("<!"):
                self._fail("declarations are not allowed in content")
            else:
                return None

    def _parse_attributes(self, element: Element) -> None:
        while True:
            before = self._pos
            self._skip_whitespace()
            ch = self._peek()
            if ch in (">", "") or self._starts_with("/>"):
                return
            if before == self._pos:
                self._fail("expected whitespace before attribute")
            attr_pos = self._pos
            name = self._read_name()
            if element.has_attribute(name):
                self._fail(f"duplicate attribute {name!r}", attr_pos)
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            value = self._read_attribute_value(attr_pos)
            element.set_attribute(name, value)

    def _read_attribute_value(self, attr_pos: int) -> str:
        quote = self._peek()
        if quote not in "'\"":
            self._fail("attribute value must be quoted")
        self._advance()
        end = self._text.find(quote, self._pos)
        if end == -1:
            self._fail("unterminated attribute value", attr_pos)
        raw = self._text[self._pos : end]
        if "<" in raw:
            self._fail("'<' not allowed in attribute value", attr_pos)
        self._pos = end + 1
        line, column = self._position(attr_pos)
        # Attribute-value normalization: *literal* whitespace becomes a
        # plain space; whitespace produced by character references (e.g.
        # '&#10;') survives, so normalize before resolving.
        raw = raw.replace("\t", " ").replace("\n", " ")
        return resolve_references(
            raw, self._entities, line, column, self._max_chars, self._max_depth
        )

    def _add_text(self, element: Element, raw: str, raw_pos: int) -> None:
        if "]]>" in raw:
            self._fail("']]>' not allowed in character data", raw_pos)
        for ch in raw:
            if not is_xml_char(ch):
                self._fail(
                    f"invalid character U+{ord(ch):04X} in character data", raw_pos
                )
        line, column = self._position(raw_pos)
        data = resolve_references(
            raw, self._entities, line, column, self._max_chars, self._max_depth
        )
        if not self._keep_ws and (not data or data.strip() == ""):
            return
        # Merge adjacent text nodes (references may split runs).
        last = element.children[-1] if element.children else None
        if isinstance(last, Text):
            last.data += data
        else:
            self._count_node()
            element.append(Text(data))

    # -- comments / CDATA / PIs ------------------------------------------------

    def _parse_comment(self) -> Comment:
        start = self._pos
        self._expect("<!--")
        end = self._text.find("--", self._pos)
        if end == -1:
            self._fail("unterminated comment", start)
        data = self._text[self._pos : end]
        self._pos = end
        self._expect("-->")
        return Comment(data)

    def _parse_cdata(self, element: Element) -> None:
        start = self._pos
        self._expect("<![CDATA[")
        end = self._text.find("]]>", self._pos)
        if end == -1:
            self._fail("unterminated CDATA section", start)
        data = self._text[self._pos : end]
        self._pos = end + 3
        last = element.children[-1] if element.children else None
        if isinstance(last, Text):
            last.data += data
        else:
            element.append(Text(data))

    def _parse_pi(self) -> ProcessingInstruction:
        start = self._pos
        self._expect("<?")
        target = self._read_name()
        if target.lower() == "xml":
            self._fail("processing instruction target may not be 'xml'", start)
        data = ""
        if self._peek() in WHITESPACE:
            self._skip_whitespace()
            end = self._text.find("?>", self._pos)
            if end == -1:
                self._fail("unterminated processing instruction", start)
            data = self._text[self._pos : end]
            self._pos = end
        self._expect("?>")
        return ProcessingInstruction(target, data)
