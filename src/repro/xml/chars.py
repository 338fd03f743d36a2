"""XML 1.0 character classification.

The XML recommendation restricts which characters may appear in documents
(``Char``), which may start a name (``NameStartChar``) and which may
continue one (``NameChar``). This module implements those productions as
predicates used by the parser, the serializer and the DTD engine.

The classes implemented here follow the (simpler) Fifth Edition rules,
which are a superset of the original 1998 productions and are what modern
processors implement.
"""

from __future__ import annotations

import re

__all__ = [
    "is_xml_char",
    "is_name_start_char",
    "is_name_char",
    "is_name",
    "is_nmtoken",
    "is_whitespace",
    "WHITESPACE",
    "NAME_RE",
    "INVALID_XML_CHAR_RE",
]

#: The four XML whitespace characters (production ``S``).
WHITESPACE = " \t\r\n"

# NameStartChar ranges from the XML 1.0 (5th ed.) recommendation.
_NAME_START_RANGES = (
    (0x3A, 0x3A),  # ':'
    (0x41, 0x5A),  # A-Z
    (0x5F, 0x5F),  # '_'
    (0x61, 0x7A),  # a-z
    (0xC0, 0xD6),
    (0xD8, 0xF6),
    (0xF8, 0x2FF),
    (0x370, 0x37D),
    (0x37F, 0x1FFF),
    (0x200C, 0x200D),
    (0x2070, 0x218F),
    (0x2C00, 0x2FEF),
    (0x3001, 0xD7FF),
    (0xF900, 0xFDCF),
    (0xFDF0, 0xFFFD),
    (0x10000, 0xEFFFF),
)

# Additional ranges allowed after the first character (production NameChar).
_NAME_EXTRA_RANGES = (
    (0x2D, 0x2E),  # '-' '.'
    (0x30, 0x39),  # 0-9
    (0xB7, 0xB7),  # middle dot
    (0x300, 0x36F),
    (0x203F, 0x2040),
)


def _in_ranges(code: int, ranges: tuple[tuple[int, int], ...]) -> bool:
    for low, high in ranges:
        if low <= code <= high:
            return True
    return False


def _char_class(ranges: tuple[tuple[int, int], ...]) -> str:
    """A regex character-class body covering exactly *ranges*."""
    parts = []
    for low, high in ranges:
        if low == high:
            parts.append(re.escape(chr(low)))
        else:
            parts.append(f"{re.escape(chr(low))}-{re.escape(chr(high))}")
    return "".join(parts)


_NAME_START_CLASS = _char_class(_NAME_START_RANGES)
_NAME_CLASS = _NAME_START_CLASS + _char_class(_NAME_EXTRA_RANGES)

#: Matches one complete XML ``Name`` at the given position — the bulk
#: equivalent of an :func:`is_name_start_char` check followed by an
#: :func:`is_name_char` scan, used by the hot tokenizer paths.
NAME_RE = re.compile(f"[{_NAME_START_CLASS}][{_NAME_CLASS}]*")

#: Finds the first character *not* allowed by production ``Char`` — the
#: bulk complement of :func:`is_xml_char`. ``search`` returning ``None``
#: means the whole string is clean (one C-level scan instead of one
#: Python call per character).
INVALID_XML_CHAR_RE = re.compile(
    "[^\t\n\r -퟿-�\U00010000-\U0010ffff]"
)


def is_xml_char(ch: str) -> bool:
    """Return ``True`` if *ch* may appear anywhere in an XML document.

    Implements production ``Char``: tab, LF, CR, and everything from
    U+0020 upward except the surrogate block and the two non-characters
    U+FFFE / U+FFFF.
    """
    code = ord(ch)
    if code in (0x9, 0xA, 0xD):
        return True
    if 0x20 <= code <= 0xD7FF:
        return True
    if 0xE000 <= code <= 0xFFFD:
        return True
    return 0x10000 <= code <= 0x10FFFF


def is_name_start_char(ch: str) -> bool:
    """Return ``True`` if *ch* may start an XML name."""
    return _in_ranges(ord(ch), _NAME_START_RANGES)


def is_name_char(ch: str) -> bool:
    """Return ``True`` if *ch* may appear inside an XML name."""
    code = ord(ch)
    return _in_ranges(code, _NAME_START_RANGES) or _in_ranges(
        code, _NAME_EXTRA_RANGES
    )


def is_name(text: str) -> bool:
    """Return ``True`` if *text* is a valid XML ``Name``.

    One C-level :data:`NAME_RE` match over the same character tables
    as :func:`is_name_start_char` and :func:`is_name_char`.
    """
    return NAME_RE.fullmatch(text) is not None


def is_nmtoken(text: str) -> bool:
    """Return ``True`` if *text* is a valid XML ``Nmtoken``.

    Unlike a ``Name``, a name token may start with any name character
    (digits, dots, hyphens included).
    """
    if not text:
        return False
    return all(is_name_char(ch) for ch in text)


def is_whitespace(text: str) -> bool:
    """Return ``True`` if *text* is non-empty and all XML whitespace."""
    if not text:
        return False
    return all(ch in WHITESPACE for ch in text)
