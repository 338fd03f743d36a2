"""Escaping and unescaping of XML character data and attribute values.

The serializer uses :func:`escape_text` and :func:`escape_attribute` to
produce well-formed output for arbitrary string content; the parser uses
:func:`resolve_references` to expand character references and the five
predefined entities (plus caller-supplied general entities).
"""

from __future__ import annotations

import re

from repro.errors import XMLLimitExceeded, XMLSyntaxError
from repro.xml.chars import is_name, is_xml_char

__all__ = [
    "PREDEFINED_ENTITIES",
    "escape_text",
    "escape_attribute",
    "incomplete_reference_suffix",
    "resolve_references",
]

#: The five entities every XML processor must know.
PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_ATTR_REPLACEMENTS = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
    "\n": "&#10;",
    "\t": "&#9;",
    "\r": "&#13;",
}

#: Any character :func:`escape_attribute` must replace.
_ATTR_SPECIAL_RE = re.compile('[&<>"\n\t\r]')


def escape_text(text: str) -> str:
    """Escape *text* for use as element character data.

    ``&``, ``<`` and ``>`` are replaced by entity references (``>`` is
    only mandatory in the ``]]>`` sequence but escaping it always is
    harmless and simpler).
    """
    # Chained str.replace runs at C speed; '&' must go first so the
    # entities it introduces are not re-escaped.
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def escape_attribute(value: str) -> str:
    """Escape *value* for use inside a double-quoted attribute value.

    Beyond markup characters, literal whitespace other than a space is
    escaped as a character reference so it survives attribute-value
    normalization on re-parse.
    """
    if _ATTR_SPECIAL_RE.search(value) is None:
        return value
    return "".join(_ATTR_REPLACEMENTS.get(ch, ch) for ch in value)


def incomplete_reference_suffix(text: str) -> int:
    """Length of a trailing, possibly-unterminated reference in *text*.

    Incremental consumers (chunked parsers, the streaming reader) must
    not hand ``resolve_references`` a buffer that ends in the middle of
    an ``&name;`` / ``&#NN;`` token: the missing ``;`` may arrive in the
    next chunk. This returns how many characters at the end of *text*
    belong to an ``&`` reference that has not yet seen its ``;`` —
    ``0`` when *text* is safe to resolve as-is. The held-back suffix is
    at most one reference long, so callers' carry buffers stay bounded
    by the longest legal reference plus one chunk.
    """
    amp = text.rfind("&")
    if amp == -1 or ";" in text[amp:]:
        return 0
    return len(text) - amp


#: Default cap on the total characters one reference-resolution call may
#: produce, defeating exponential ("billion laughs") entity bombs.
MAX_EXPANSION_CHARS = 10_000_000
#: Default cap on nested entity expansion depth, defeating reference cycles.
MAX_EXPANSION_DEPTH = 64


class _ExpansionBudget:
    """Shared accounting across one resolve_references call tree."""

    __slots__ = ("chars", "max_chars")

    def __init__(self, max_chars: int) -> None:
        self.chars = 0
        self.max_chars = max_chars

    def charge(self, amount: int, line: int, column: int) -> None:
        self.chars += amount
        if self.chars > self.max_chars:
            raise XMLLimitExceeded(
                "entity expansion exceeds the "
                f"{self.max_chars}-character limit (entity bomb?)",
                line,
                column,
                limit="max_entity_expansion_chars",
                value=self.chars,
                maximum=self.max_chars,
            )


def resolve_references(
    text: str,
    entities: dict[str, str] | None = None,
    line: int = 0,
    column: int = 0,
    max_chars: int | None = None,
    max_depth: int | None = None,
) -> str:
    """Expand character and entity references in *text*.

    Parameters
    ----------
    text:
        Raw character data possibly containing ``&name;``, ``&#NN;`` or
        ``&#xHH;`` references.
    entities:
        Extra general entities (name -> replacement text) declared by the
        document's DTD. Predefined entities are always available and
        cannot be overridden.
    line, column:
        Position of *text* in the source, used for error messages only.
    max_chars, max_depth:
        Expansion budget overrides; default to the module-level
        :data:`MAX_EXPANSION_CHARS` / :data:`MAX_EXPANSION_DEPTH`.

    Raises
    ------
    XMLSyntaxError
        On an unterminated reference, an unknown entity name, or a
        character reference denoting a character outside the XML range.
    XMLLimitExceeded
        On an entity-reference cycle or an expansion exceeding the
        character budget (the classic entity-bomb DoS). Also an
        :class:`XMLSyntaxError`, so a single handler covers both.
    """
    if "&" not in text:
        return text
    budget = _ExpansionBudget(
        MAX_EXPANSION_CHARS if max_chars is None else max_chars
    )
    limit_depth = MAX_EXPANSION_DEPTH if max_depth is None else max_depth
    return _resolve(text, entities, line, column, budget, 0, limit_depth)


def _resolve(
    text: str,
    entities: dict[str, str] | None,
    line: int,
    column: int,
    budget: _ExpansionBudget,
    depth: int,
    max_depth: int,
) -> str:
    if depth > max_depth:
        raise XMLLimitExceeded(
            "entity references nest too deeply (reference cycle?)",
            line,
            column,
            limit="max_entity_expansion_depth",
            value=depth,
            maximum=max_depth,
        )
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        # Bulk-copy the literal run up to the next reference; only the
        # '&...;' tokens themselves need per-token handling.
        amp = text.find("&", i)
        if amp == -1:
            out.append(text[i:])
            budget.charge(n - i, line, column)
            break
        if amp > i:
            out.append(text[i:amp])
            budget.charge(amp - i, line, column)
        end = text.find(";", amp + 1)
        if end == -1:
            raise XMLSyntaxError("unterminated entity reference", line, column)
        body = text[amp + 1 : end]
        expansion = _expand_one(body, entities, line, column, budget, depth, max_depth)
        out.append(expansion)
        i = end + 1
    return "".join(out)


def _expand_one(
    body: str,
    entities: dict[str, str] | None,
    line: int,
    column: int,
    budget: _ExpansionBudget,
    depth: int,
    max_depth: int,
) -> str:
    if body.startswith("#x") or body.startswith("#X"):
        try:
            code = int(body[2:], 16)
        except ValueError:
            raise XMLSyntaxError(
                f"bad hexadecimal character reference '&{body};'", line, column
            ) from None
        budget.charge(1, line, column)
        return _char_from_code(code, body, line, column)
    if body.startswith("#"):
        try:
            code = int(body[1:], 10)
        except ValueError:
            raise XMLSyntaxError(
                f"bad decimal character reference '&{body};'", line, column
            ) from None
        budget.charge(1, line, column)
        return _char_from_code(code, body, line, column)
    if body in PREDEFINED_ENTITIES:
        budget.charge(1, line, column)
        return PREDEFINED_ENTITIES[body]
    if entities and body in entities:
        # General entities may themselves contain references; expand
        # recursively under the shared depth/size budget.
        return _resolve(
            entities[body], entities, line, column, budget, depth + 1, max_depth
        )
    if not is_name(body):
        raise XMLSyntaxError(f"malformed entity reference '&{body};'", line, column)
    raise XMLSyntaxError(f"unknown entity '&{body};'", line, column)


def _char_from_code(code: int, body: str, line: int, column: int) -> str:
    try:
        ch = chr(code)
    except (ValueError, OverflowError):
        raise XMLSyntaxError(
            f"character reference '&{body};' out of range", line, column
        ) from None
    if not is_xml_char(ch):
        raise XMLSyntaxError(
            f"character reference '&{body};' is not a valid XML character",
            line,
            column,
        )
    return ch
