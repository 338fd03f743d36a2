"""The transformation (pruning) step (paper, Section 6.2 and Figure 2).

Two equivalent implementations are provided and cross-checked by tests:

- :func:`build_view` — a non-destructive postorder construction of the
  view tree (what the processor uses: the stored document is never
  mutated);
- :func:`prune_in_place` — the literal ``prune(T, n)`` of Figure 2,
  operating on a (cloned) labeled tree.

Both implement: a node is kept iff its final sign is permitted, or it
has a surviving descendant — "to preserve the structure of the document,
the portion of the document visible to the requester will also include
start and end tags of elements with a negative or undefined label, which
have a descendant with a positive label". Attributes count as children
for survival purposes (they are nodes of the paper's tree model); the
*content* (text) of a non-permitted element is never shown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.labels import Label
from repro.dtd.loosen import loosen
from repro.obs.trace import span
from repro.xml.nodes import (
    Attribute,
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)

__all__ = ["PruneCounts", "build_view", "prune_in_place"]


@dataclass
class PruneCounts:
    """What one :func:`build_view` run kept, counted while it builds."""

    #: Nodes of the view tree under its root element — what
    #: ``count_nodes(view.root)`` would walk the view to find.
    visible_nodes: int = 0


def build_view(
    document: Document | Element,
    labels: dict[Node, Label],
    open_policy: bool = False,
    loosen_dtd: bool = True,
    counts: Optional[PruneCounts] = None,
) -> Document:
    """Construct the requester's view as a new document.

    Parameters
    ----------
    document:
        The labeled original (untouched).
    labels:
        The labeling result for every node of *document* (read only;
        labels may be shared between nodes).
    open_policy:
        Under the open policy an ε final sign counts as a permission
        (Section 6.2); the default is the paper's closed policy.
    loosen_dtd:
        Attach the loosened DTD to the view (Section 7: the view is
        valid w.r.t. — and shipped with — the loosened DTD).
    counts:
        Optional :class:`PruneCounts` that receives the view's node
        count, so callers need not walk the view again.
    """
    if isinstance(document, Document):
        root = document.root
        view = document.clone(deep=False)
        view.children = []
    else:
        root = document
        view = Document()
    if loosen_dtd and view.dtd is not None:
        with span("dtd.loosen"):
            view.dtd = loosen(view.dtd)
    if root is None:
        return view
    with span("prune"):
        built, visible = _build_element(root, labels, open_policy)
    if counts is not None:
        counts.visible_nodes = visible
    if built is not None:
        view.append(built)
    else:
        # Nothing visible: the view is an empty document (no DOCTYPE
        # either — even the root element's existence is hidden).
        view.doctype_name = None
        view.system_id = None
    return view


def _build_element(
    element: Element, labels: dict[Node, Label], open_policy: bool
) -> tuple[Optional[Element], int]:
    """Postorder construction of the visible copy of *element*.

    Returns the copy (``None`` when nothing survives) and its node
    count. Iterative (explicit postorder over elements) so deep
    documents never exhaust the Python stack.
    """
    built: dict[Element, Optional[Element]] = {}
    visible = 0
    for node in _postorder_elements(element):
        label = labels.get(node)
        permitted = label is not None and label.permitted_under(open_policy)

        kept_attributes: list[Attribute] = []
        for attribute in node.attributes.values():
            attr_label = labels.get(attribute)
            if attr_label is not None and attr_label.permitted_under(open_policy):
                kept_attributes.append(attribute)

        kept_children: list[Node] = []
        for child in node.children:
            if isinstance(child, Element):
                child_copy = built[child]
                if child_copy is not None:
                    kept_children.append(child_copy)
            elif isinstance(child, (Text, Comment, ProcessingInstruction)):
                # Content is visible only when the element itself is
                # permitted (a structural survivor shows bare tags only).
                if permitted:
                    kept_children.append(child.clone())
                    visible += 1

        if not permitted and not kept_attributes and not kept_children:
            built[node] = None
            continue
        copy = Element(node.name)
        for attribute in kept_attributes:
            copy.set_attribute(attribute.name, attribute.value)
        for child in kept_children:
            copy.append(child)
        built[node] = copy
        visible += 1 + len(kept_attributes)
    return built[element], visible


def _postorder_elements(root: Element):
    """Yield the elements under (and including) *root*, children first."""
    stack: list[tuple[Element, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        stack.append((node, True))
        for child in reversed(node.children):
            if isinstance(child, Element):
                stack.append((child, False))


def prune_in_place(
    tree: Document | Element,
    labels: dict[Node, Label],
    open_policy: bool = False,
) -> None:
    """Figure 2's ``prune(T, n)``: postorder removal on *tree* itself.

    *labels* must be keyed by the nodes of *tree* (use this on a clone,
    transferring labels, or on a tree you own). Text/comment/PI nodes of
    non-permitted elements are removed as well — they are the "values"
    of the paper's tree model and share their parent's sign.
    """
    root = tree.root if isinstance(tree, Document) else tree
    if root is None:
        return
    survived = _prune_element(root, labels, open_policy)
    if not survived and isinstance(tree, Document):
        tree.remove(root)
        tree.doctype_name = None
        tree.system_id = None


def _prune_element(
    element: Element, labels: dict[Node, Label], open_policy: bool
) -> bool:
    """Postorder in-place pruning; returns whether *element* survives."""
    survived: dict[Element, bool] = {}
    for node in _postorder_elements(element):
        label = labels.get(node)
        permitted = label is not None and label.permitted_under(open_policy)

        for attribute in list(node.attributes.values()):
            attr_label = labels.get(attribute)
            if attr_label is None or not attr_label.permitted_under(open_policy):
                node.remove_attribute(attribute.name)

        for child in list(node.children):
            if isinstance(child, Element):
                if not survived[child]:
                    node.remove(child)
            elif not permitted:
                node.remove(child)

        survived[node] = permitted or bool(node.attributes) or bool(node.children)
    return survived[element]
