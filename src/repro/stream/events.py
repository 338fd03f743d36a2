"""The event vocabulary of the streaming pipeline.

:class:`~repro.stream.reader.StreamReader` turns XML text into a flat
sequence of these events; :class:`~repro.stream.labeler.StreamLabeler`
consumes them, and :class:`~repro.stream.builder.DocumentBuilder`
rebuilds trees from them. The vocabulary carries everything a tree
holds: :func:`repro.xml.parser.parse_document` is the reader plus the
builder.

Character data needs two flags beyond the raw string:

``cdata``
    The data came from a ``<![CDATA[...]]>`` section. The reader skips
    well-formedness checks inside CDATA, and a tree does not charge
    CDATA-born text against ``max_node_count``; consumers that rebuild
    trees must do the same.
``new_segment``
    True on the first event of a markup-delimited text run. Long runs
    may be emitted in several :class:`Characters` events (bounded
    memory); the flag lets tree builders reassemble the exact
    markup-delimited segments, which matters for the per-segment
    ignorable-whitespace drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dtd.model import DTD

__all__ = [
    "StreamEvent",
    "StartDocument",
    "DoctypeDecl",
    "StartElement",
    "EndElement",
    "Characters",
    "CommentEvent",
    "PIEvent",
    "EndDocument",
]


class StreamEvent:
    """Base class; exists so consumers can type-dispatch."""

    __slots__ = ()


@dataclass(slots=True)
class StartDocument(StreamEvent):
    """Document start; carries the XML declaration (or its defaults)."""

    xml_version: str = "1.0"
    encoding: Optional[str] = None
    standalone: Optional[bool] = None


@dataclass(slots=True)
class DoctypeDecl(StreamEvent):
    """A ``<!DOCTYPE ...>`` declaration.

    *dtd* is the parsed internal subset (``None`` when the declaration
    has none); its general entities were already applied to subsequent
    reference resolution by the reader.
    """

    name: str
    system_id: Optional[str] = None
    dtd: Optional[DTD] = None


@dataclass(slots=True)
class StartElement(StreamEvent):
    """``<name attrs...>`` — attribute values are normalized and
    reference-resolved, in source order."""

    name: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class EndElement(StreamEvent):
    name: str


@dataclass(slots=True)
class Characters(StreamEvent):
    """Character data, reference-resolved and EOL-normalized."""

    data: str
    cdata: bool = False
    new_segment: bool = True


@dataclass(slots=True)
class CommentEvent(StreamEvent):
    data: str


@dataclass(slots=True)
class PIEvent(StreamEvent):
    target: str
    data: str = ""


@dataclass(slots=True)
class EndDocument(StreamEvent):
    pass
