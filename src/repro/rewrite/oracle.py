"""Lazy view-visibility oracle for virtual views.

A materialized view answers "is node *n* visible?" by labeling and
pruning the whole tree. The oracle answers the same question — with the
same labels, computed by the same :class:`~repro.core.labeling.TreeLabeler`
propagation code — but lazily: a node's label is derived on first use
from its ancestor chain and memoized, so a selective query touches only
the labels along its matched paths.

View-existence semantics mirror :func:`repro.core.prune.build_view`
exactly:

- an **element** exists iff it *survives*: its final sign is permitted,
  or it keeps a visible attribute, or some descendant element does
  (structural survivors keep bare tags);
- an **attribute** exists iff its own label is permitted (which implies
  the owning element survives);
- **text / comment / PI** nodes exist iff their parent element's final
  sign is permitted (a bare-tag survivor shows no content); nodes
  hanging directly off the Document (prolog comments/PIs) never appear
  in a view;
- the **document** is non-empty iff the root element survives.

``survives`` uses the equivalent formulation "∃ a descendant-or-self
element that is *directly visible* (permitted final sign or a permitted
attribute)", memoizing negative subtrees so repeated probes amortize to
one scan per subtree.
"""

from __future__ import annotations

from typing import Optional

from repro.authz.authorization import Authorization
from repro.authz.conflict import ConflictPolicy
from repro.core.labeling import TreeLabeler
from repro.core.labels import Label
from repro.core.prune import build_view
from repro.limits import Deadline, ResourceLimits
from repro.obs.trace import span
from repro.subjects.hierarchy import SubjectHierarchy
from repro.xml.nodes import (
    Attribute,
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)
from repro.xml.serializer import serialize
from repro.xpath.compile import RelativeMode

__all__ = ["VisibilityOracle"]


class _LazyLabels:
    """A dict-like labels mapping backed by the oracle's lazy labeler.

    :func:`~repro.core.prune.build_view` only reads labels through
    ``.get(node)``; routing that through :meth:`TreeLabeler.label_lazily`
    lets the *unmodified* pruning code serialize virtual matches — the
    byte-identity guarantee comes from running the same construction.
    A label the lazy labeler has already memoized is returned directly.
    """

    __slots__ = ("_labeler", "_labels")

    def __init__(self, labeler: TreeLabeler, labels: dict[Node, Label]) -> None:
        self._labeler = labeler
        self._labels = labels

    def get(self, node: Node, default=None) -> Optional[Label]:
        found = self._labels.get(node)
        if found is not None:
            return found
        return self._labeler.label_lazily(node, self._labels)


class VisibilityOracle:
    """View membership / string-values for one (document, auths, policy).

    Binding the authorization paths happens once, at construction
    (under the usual ``label.bind`` span); everything after is lazy and
    memoized, so an oracle is cheap to keep around and share between
    requests of one effective-permission class (the store and document
    versions it was built against are the sharer's staleness guard).

    Thread-safety: all memo writes are idempotent dict inserts of
    deterministic values; concurrent readers may duplicate a little
    work but never see a wrong answer.
    """

    #: Elements scanned between two deadline checks in a survives() scan.
    _DEADLINE_STRIDE = 2048

    def __init__(
        self,
        document: Document,
        instance_auths: list[Authorization],
        schema_auths: list[Authorization],
        hierarchy: SubjectHierarchy,
        policy: Optional[ConflictPolicy] = None,
        open_policy: bool = False,
        relative_mode: RelativeMode = "descendant",
        limits: Optional[ResourceLimits] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self.document = document
        self.open_policy = open_policy
        self._labeler = TreeLabeler(
            document,
            instance_auths,
            schema_auths,
            hierarchy,
            policy=policy,
            relative_mode=relative_mode,
            limits=limits,
            deadline=deadline,
        )
        # Binding evaluates every authorization path once — the only
        # eager work. The construction deadline applies here; later
        # requests sharing the oracle pass their own deadline per call.
        self._labeler.bind()
        self._labels: dict[Node, Label] = {}
        self._survives: dict[Element, bool] = {}
        self._id_attrs: Optional[dict[str, tuple[str, ...]]] = None

    # -- labels ------------------------------------------------------------

    def label(self, node: Node) -> Label:
        """The node's label, computed lazily (identical to a full run)."""
        return self._labeler.label_lazily(node, self._labels)

    def permitted(self, node: Node) -> bool:
        """Whether the node's final sign permits it (policy-aware)."""
        return self.label(node).permitted_under(self.open_policy)

    # -- view existence ----------------------------------------------------

    def exists(self, node: Node, deadline: Optional[Deadline] = None) -> bool:
        """Whether *node* appears in the requester's materialized view."""
        if isinstance(node, Element):
            return self.survives(node, deadline)
        if isinstance(node, Attribute):
            return self.permitted(node)
        if isinstance(node, (Text, Comment, ProcessingInstruction)):
            parent = node.parent
            # Prolog/epilog nodes (parent is the Document) are never
            # part of a view; build_view copies only the root element.
            if not isinstance(parent, Element):
                return False
            return self.permitted(parent)
        if isinstance(node, Document):
            return self.has_visible_root()
        return False

    def survives(
        self, element: Element, deadline: Optional[Deadline] = None
    ) -> bool:
        """Whether *element* is kept by pruning (possibly as a bare tag).

        An element survives iff some descendant-or-self element is
        directly visible. Subtrees proven invisible are memoized as
        ``False``, so repeated probes across one query amortize.
        """
        memo = self._survives
        known = memo.get(element)
        if known is not None:
            return known
        stack: list[Element] = [element]
        dead: list[Element] = []
        scanned = 0
        while stack:
            node = stack.pop()
            known = memo.get(node)
            if known is True:
                memo[element] = True
                return True
            if known is False:
                continue  # proven-dead subtree: nothing visible below
            if self._directly_visible(node):
                memo[node] = True
                memo[element] = True
                return True
            dead.append(node)
            for child in node.children:
                if isinstance(child, Element):
                    stack.append(child)
            scanned += 1
            if deadline is not None and scanned % self._DEADLINE_STRIDE == 0:
                deadline.check("virtual-view visibility scan")
        # No directly-visible element anywhere below: every scanned
        # element (element included) is invisible.
        for node in dead:
            memo[node] = False
        return False

    def _directly_visible(self, element: Element) -> bool:
        if self.permitted(element):
            return True
        return any(
            self.permitted(attribute)
            for attribute in element.attributes.values()
        )

    def has_visible_root(self) -> bool:
        """Whether the view is non-empty (the root element survives)."""
        root = self.document.root
        return root is not None and self.survives(root)

    # -- virtual string-values ---------------------------------------------

    def string_value(self, node: Node) -> str:
        """The node's string-value *as seen in the view*.

        For elements: the concatenation of descendant text whose parent
        element is permitted — exactly the text the pruned copy keeps.
        Other node kinds keep their source string-value (they only
        exist in the view whole).
        """
        if isinstance(node, Attribute):
            return node.value
        if isinstance(node, (Text, Comment, ProcessingInstruction)):
            return node.data
        if isinstance(node, Document):
            root = node.root
            if root is None or not self.survives(root):
                return ""
            return self.string_value(root)
        if not isinstance(node, Element):
            return ""
        parts: list[str] = []
        # Preorder with reversed pushes keeps document order; text is
        # pushed as plain strings so subtree text interleaves correctly.
        stack: list = [(node, self.permitted(node))]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            element, permitted = item
            for child in reversed(element.children):
                if isinstance(child, Text):
                    if permitted:
                        stack.append(child.data)
                elif isinstance(child, Element):
                    stack.append((child, self.permitted(child)))
        return "".join(parts)

    # -- match serialization -----------------------------------------------

    def serialize_match(self, node: Node) -> str:
        """Serialize one matched source node as its view counterpart.

        Element matches are serialized by feeding the *original*
        pruning construction (:func:`~repro.core.prune.build_view`'s
        element builder) a lazy labels mapping — the output is the
        byte-identical subtree a materialized view would contain,
        because it is produced by the same code over the same labels.
        A Document match yields the whole view. Leaf nodes serialize
        directly (the view's copies carry the same data).
        """
        if isinstance(node, Document):
            view = build_view(
                node, self.lazy_labels(), self.open_policy, loosen_dtd=True
            )
            return serialize(view)
        if isinstance(node, Element):
            from repro.core.prune import _build_element

            copy, _ = _build_element(node, self.lazy_labels(), self.open_policy)
            if copy is None:  # matched nodes always exist; defensive
                return ""
            return serialize(copy)
        return serialize(node)

    def lazy_labels(self) -> _LazyLabels:
        """A labels mapping (``.get``) computing labels on demand."""
        return _LazyLabels(self._labeler, self._labels)

    # -- view-level ID lookup ------------------------------------------------

    def id_attribute_names(self, element_name: str) -> tuple[str, ...]:
        """The ID-typed attribute names for *element_name*.

        With a DTD, attributes *declared* of type ID are authoritative
        (per element type); without one, the attribute named ``id`` is
        the conventional fallback — both exactly as the materialized
        evaluator's ``id()`` resolves them.
        """
        if self._id_attrs is None:
            id_attrs: dict[str, tuple[str, ...]] = {}
            dtd = self.document.dtd
            if dtd is not None:
                from repro.dtd.model import AttributeType

                for decl in dtd.elements.values():
                    names = tuple(
                        attr.name
                        for attr in decl.attributes.values()
                        if attr.type is AttributeType.ID
                    )
                    if names:
                        id_attrs[decl.name] = names
            self._id_attrs = id_attrs
        if self.document.dtd is not None:
            return self._id_attrs.get(element_name, ())
        return ("id",)

    def visible_ids(self, element: Element) -> list[str]:
        """The element's ID attribute values *as seen in the view* —
        an ID hidden by the policy must not make its element findable
        through ``id()``."""
        values: list[str] = []
        for name in self.id_attribute_names(element.name):
            attribute = element.attribute_node(name)
            if attribute is not None and self.permitted(attribute):
                values.append(attribute.value)
        return values

    # -- incremental refresh after an update ---------------------------------

    def refreshed_for_update(self, document, node_map, deltas):
        """A twin of this oracle on the post-update tree, plus whether
        the edit affected this class's view.

        *document* is the committed clone, *node_map* the old→new map
        from :func:`repro.update.relabel.clone_with_map`, *deltas* the
        applied :class:`~repro.update.relabel.EditDelta` sequence.

        Returns ``None`` when the policy cannot be rebound
        incrementally — some path is outside the exact subset of
        :meth:`TreeLabeler.compile_dispatch` — so the caller drops what
        it cached for this class; else ``(refreshed_oracle, affected)``.
        The dispatch automaton is compiled for this call and dropped
        with it: an oracle kept in a cache holds no automaton.

        This oracle is **not mutated** beyond read-only memo probes —
        in-flight queries over the pre-update tree keep their
        consistent state; the refreshed twin carries every memo over by
        O(memo) key remapping, with the edited subtrees (and each
        anchor's ancestor survival chain) purged and rebound.

        ``affected`` is ``True`` when any edited region was visible
        before (``old_nodes`` against the pre-update tree) or is
        visible after (``dirty`` against the refreshed twin).
        ``False`` is a proof that the served view bytes are unchanged:
        the pruned copy is a pure function of the visible node set;
        the removed-or-replaced old content and the new content are
        both invisible to this class, and every node outside the
        edited regions keeps its label (top-down propagation) and its
        structural survival (no visible node appeared or disappeared
        below any ancestor).
        """
        import copy as _copy

        from repro.xml.traversal import preorder

        automaton = self._labeler.compile_dispatch()
        if automaton is None:
            return None

        # Phase 1 — before-visibility, against the current (old) tree:
        # old_nodes are the pre-update counterparts of every edited or
        # removed region; element survival subsumes attribute and text
        # visibility (a visible attribute or text makes its element
        # directly visible).
        affected = False
        for delta in deltas:
            for old_root in delta.old_nodes:
                if isinstance(old_root, Element) and self.survives(old_root):
                    affected = True
                    break
            if affected:
                break

        # Phase 2 — the refreshed twin: remap every memo onto the new
        # tree, then purge what the edit may have changed (labels and
        # bins inside dirty regions, survival along each anchor's
        # ancestor chain, everything under detached subtrees).
        # TreeLabeler.rebase installs a fresh bins dict and
        # rebind_subtree replaces a node's mapping instead of editing
        # it, so the twin never writes through to this oracle's state.
        clone = _copy.copy(self)
        clone._labeler = _copy.copy(self._labeler)
        clone._labeler.rebase(document, node_map)
        clone.document = document
        clone._labels = {
            node_map[node]: label
            for node, label in self._labels.items()
            if node in node_map
        }
        clone._survives = {
            node_map[node]: flag
            for node, flag in self._survives.items()
            if node in node_map
        }
        clone._id_attrs = None
        for delta in deltas:
            for removed in delta.removed:
                for node in preorder(removed):
                    clone._labels.pop(node, None)
                    if isinstance(node, Element):
                        clone._survives.pop(node, None)
            if delta.dirty is not None:
                clone._labeler.rebind_subtree(delta.dirty, automaton)
                for node in preorder(delta.dirty):
                    clone._labels.pop(node, None)
                    if isinstance(node, Element):
                        clone._survives.pop(node, None)
            ancestor = delta.anchor
            while isinstance(ancestor, Element):
                clone._survives.pop(ancestor, None)
                ancestor = ancestor.parent

        # Phase 3 — after-visibility, against the refreshed twin.
        if not affected:
            for delta in deltas:
                if isinstance(delta.dirty, Element) and clone.survives(
                    delta.dirty
                ):
                    affected = True
                    break
        return clone, affected
