"""A DOM-like object model for XML documents.

The paper (Section 7) represents documents "as object trees, according to
the Document Object Model (DOM) Level One (Core) specification". This
module provides the equivalent model used throughout the library:

- :class:`Document` — the document node, owning a prolog and one root
  element;
- :class:`Element` — named node with ordered attributes and children;
- :class:`Attribute` — a name/value pair, itself a node of the tree (the
  paper's tree model hangs attributes, like sub-elements, off their
  element);
- :class:`Text` — character data ("values" in the paper's tree model);
- :class:`Comment` and :class:`ProcessingInstruction` — the remaining
  information items a parser can produce.

Nodes are plain mutable Python objects, hashable by identity, so that the
labeling algorithm can key side tables by node. Trees are built either by
the parser (:mod:`repro.xml.parser`) or programmatically via
:mod:`repro.xml.builder`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import ReproError
from repro.xml.chars import NAME_RE, is_name

#: :func:`~repro.xml.chars.is_name` as one bound C call, for the
#: constructors every parse, copy and view build runs per node.
_match_name = NAME_RE.fullmatch

__all__ = [
    "Node",
    "Document",
    "Element",
    "Attribute",
    "Text",
    "Comment",
    "ProcessingInstruction",
]


class Node:
    """Base class of every tree node.

    Attributes
    ----------
    parent:
        The owning node (``None`` for a detached node or a document).
        For an :class:`Attribute` the parent is its element; for the root
        element it is the :class:`Document`.
    """

    __slots__ = ("parent", "__weakref__")

    def __init__(self) -> None:
        self.parent: Optional[Node] = None

    # -- tree navigation ------------------------------------------------

    @property
    def document(self) -> Optional["Document"]:
        """The document this node ultimately belongs to, if any."""
        node: Optional[Node] = self
        while node is not None and not isinstance(node, Document):
            node = node.parent
        return node

    def ancestors(self) -> Iterator["Node"]:
        """Yield the parent, grandparent... up to (and including) the
        document node."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root_element(self) -> Optional["Element"]:
        """The topmost :class:`Element` above (or equal to) this node."""
        best: Optional[Element] = self if isinstance(self, Element) else None
        for anc in self.ancestors():
            if isinstance(anc, Element):
                best = anc
        return best

    # Identity equality and hashing are object's own C-level defaults:
    # every labeling and pruning pass keys side tables by node.

    # -- copying ----------------------------------------------------------

    def clone(self, deep: bool = True) -> "Node":
        """Return a copy of this node, detached from any parent."""
        raise NotImplementedError


class _ParentNode(Node):
    """Shared behaviour of nodes that own an ordered child list."""

    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: list[Node] = []

    def append(self, child: Node) -> Node:
        """Append *child* (detaching it from any previous parent)."""
        if child.parent is not None:
            child.detach()  # type: ignore[attr-defined]
        child.parent = self
        self.children.append(child)
        return child

    def insert(self, index: int, child: Node) -> Node:
        """Insert *child* at *index* in the child list."""
        if child.parent is not None:
            child.detach()  # type: ignore[attr-defined]
        child.parent = self
        self.children.insert(index, child)
        return child

    def remove(self, child: Node) -> None:
        """Remove *child* from the child list.

        Raises
        ------
        ReproError
            If *child* is not among this node's children.
        """
        for i, existing in enumerate(self.children):
            if existing is child:
                del self.children[i]
                child.parent = None
                return
        raise ReproError("node to remove is not a child of this node")

    def child_elements(self) -> Iterator["Element"]:
        """Yield only the :class:`Element` children, in order."""
        for child in self.children:
            if isinstance(child, Element):
                yield child


class Document(_ParentNode):
    """The document node: prolog items plus exactly one root element.

    Attributes
    ----------
    doctype_name:
        Name from the ``<!DOCTYPE ...>`` declaration, or ``None``.
    system_id:
        The SYSTEM identifier of the external DTD, or ``None``.
    dtd:
        The parsed :class:`repro.dtd.model.DTD` for this document, if a
        DOCTYPE with an internal subset was parsed or a DTD was attached
        explicitly (the server attaches the schema-level DTD this way).
    uri:
        Where the document came from; used by the authorization engine to
        select applicable XACLs.
    standalone / xml_version / encoding:
        Values from the XML declaration (serialization round-trips them).
    """

    __slots__ = (
        "doctype_name",
        "system_id",
        "dtd",
        "uri",
        "xml_version",
        "encoding",
        "standalone",
    )

    def __init__(self) -> None:
        super().__init__()
        self.doctype_name: Optional[str] = None
        self.system_id: Optional[str] = None
        self.dtd = None  # type: ignore[assignment]  # repro.dtd.model.DTD
        self.uri: Optional[str] = None
        self.xml_version: str = "1.0"
        self.encoding: Optional[str] = None
        self.standalone: Optional[bool] = None

    @property
    def root(self) -> Optional["Element"]:
        """The document's root element (``None`` if empty)."""
        for child in self.children:
            if isinstance(child, Element):
                return child
        return None

    def set_root(self, element: "Element") -> "Element":
        """Install *element* as the root, replacing any existing one."""
        existing = self.root
        if existing is not None:
            self.remove(existing)
        return self.append(element)

    def clone(self, deep: bool = True) -> "Document":
        copy = Document()
        copy.doctype_name = self.doctype_name
        copy.system_id = self.system_id
        copy.dtd = self.dtd
        copy.uri = self.uri
        copy.xml_version = self.xml_version
        copy.encoding = self.encoding
        copy.standalone = self.standalone
        if deep:
            for child in self.children:
                copy.append(child.clone(deep=True))
        return copy

    def __repr__(self) -> str:
        root = self.root
        name = root.name if root is not None else None
        return f"<Document root={name!r} uri={self.uri!r}>"


class Element(_ParentNode):
    """An XML element with ordered attributes and children.

    Attributes are stored in an insertion-ordered mapping from attribute
    name to :class:`Attribute` node; XML forbids duplicate attribute
    names on one element, so a mapping is faithful.
    """

    __slots__ = ("name", "attributes")

    def __init__(self, name: str) -> None:
        if _match_name(name) is None:
            raise ReproError(f"invalid element name: {name!r}")
        # The base initializers, flattened: this runs once per element.
        self.parent = None
        self.children = []
        self.name = name
        self.attributes: dict[str, Attribute] = {}

    # -- attribute handling ----------------------------------------------

    def set_attribute(self, name: str, value: str) -> "Attribute":
        """Create or update the attribute *name*, returning its node."""
        attr = self.attributes.get(name)
        if attr is None:
            attr = Attribute(name, value)
            attr.parent = self
            self.attributes[name] = attr
        else:
            attr.value = value
        return attr

    def get_attribute(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the *value* of attribute *name*, or *default*."""
        attr = self.attributes.get(name)
        return attr.value if attr is not None else default

    def attribute_node(self, name: str) -> Optional["Attribute"]:
        """Return the :class:`Attribute` node named *name*, or ``None``."""
        return self.attributes.get(name)

    def remove_attribute(self, name: str) -> None:
        """Delete attribute *name* if present (no error if absent)."""
        attr = self.attributes.pop(name, None)
        if attr is not None:
            attr.parent = None

    def has_attribute(self, name: str) -> bool:
        return name in self.attributes

    # -- content helpers ---------------------------------------------------

    def text(self) -> str:
        """The concatenation of all descendant text, in document order.

        This matches the XPath 1.0 string-value of an element node and is
        what authorization conditions on element "text" compare against.
        """
        parts: list[str] = []
        stack: list[Node] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, Text):
                parts.append(node.data)
            elif isinstance(node, Element):
                stack.extend(reversed(node.children))
        return "".join(parts)

    def direct_text(self) -> str:
        """The concatenation of this element's *immediate* text children."""
        return "".join(
            child.data for child in self.children if isinstance(child, Text)
        )

    def find_children(self, name: str) -> Iterator["Element"]:
        """Yield direct child elements named *name*."""
        for child in self.child_elements():
            if child.name == name:
                yield child

    def detach(self) -> "Element":
        """Remove this element from its parent (no-op when detached)."""
        parent = self.parent
        if isinstance(parent, _ParentNode):
            parent.remove(self)
        self.parent = None
        return self

    def clone(self, deep: bool = True) -> "Element":
        copy = Element(self.name)
        for name, attr in self.attributes.items():
            copy.set_attribute(name, attr.value)
        if not deep:
            return copy
        # Iterative deep copy: handles arbitrarily deep documents
        # without exhausting the Python stack.
        stack: list[tuple[Element, Element]] = [(self, copy)]
        while stack:
            source, target = stack.pop()
            for child in source.children:
                if isinstance(child, Element):
                    child_copy = Element(child.name)
                    for name, attr in child.attributes.items():
                        child_copy.set_attribute(name, attr.value)
                    target.append(child_copy)
                    stack.append((child, child_copy))
                else:
                    target.append(child.clone(deep=True))
        return copy

    def __repr__(self) -> str:
        return f"<Element {self.name!r} attrs={len(self.attributes)} children={len(self.children)}>"


class Attribute(Node):
    """An attribute node: a named value hanging off an element.

    In the paper's tree model attributes are first-class nodes (drawn as
    squares in Figure 1) and can be authorization objects on their own.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str) -> None:
        if _match_name(name) is None:
            raise ReproError(f"invalid attribute name: {name!r}")
        self.parent = None
        self.name = name
        self.value = value

    @property
    def element(self) -> Optional[Element]:
        """The owning element (alias of ``parent`` with a precise type)."""
        parent = self.parent
        return parent if isinstance(parent, Element) else None

    def detach(self) -> "Attribute":
        element = self.element
        if element is not None and element.attributes.get(self.name) is self:
            del element.attributes[self.name]
        self.parent = None
        return self

    def clone(self, deep: bool = True) -> "Attribute":
        return Attribute(self.name, self.value)

    def __repr__(self) -> str:
        return f"<Attribute {self.name}={self.value!r}>"


class _LeafNode(Node):
    """Shared behaviour of childless, parent-detachable nodes."""

    __slots__ = ()

    def detach(self) -> "Node":
        parent = self.parent
        if isinstance(parent, _ParentNode):
            parent.remove(self)
        self.parent = None
        return self


class Text(_LeafNode):
    """A run of character data."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        self.parent = None
        self.data = data

    def clone(self, deep: bool = True) -> "Text":
        return Text(self.data)

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"<Text {preview!r}>"


class Comment(_LeafNode):
    """An XML comment (``<!-- ... -->``)."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def clone(self, deep: bool = True) -> "Comment":
        return Comment(self.data)

    def __repr__(self) -> str:
        return f"<Comment {self.data!r}>"


class ProcessingInstruction(_LeafNode):
    """A processing instruction (``<?target data?>``)."""

    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str = "") -> None:
        if not is_name(target):
            raise ReproError(f"invalid PI target: {target!r}")
        super().__init__()
        self.target = target
        self.data = data

    def clone(self, deep: bool = True) -> "ProcessingInstruction":
        return ProcessingInstruction(self.target, self.data)

    def __repr__(self) -> str:
        return f"<PI {self.target!r} {self.data!r}>"


def ensure_element(node: Node, context: str) -> Element:
    """Narrowing helper: assert *node* is an element or raise."""
    if not isinstance(node, Element):
        raise ReproError(f"{context}: expected an element, got {type(node).__name__}")
    return node


def iter_nodes(nodes: Iterable[Node]) -> Iterator[Node]:
    """Flatten an iterable of nodes, skipping ``None`` entries."""
    for node in nodes:
        if node is not None:
            yield node
