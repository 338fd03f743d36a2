"""Incremental relabeling after an edit (the fast half of updates).

The labeling model is strictly top-down: a node's label depends only on
the authorization bins along its own root path (propagation never flows
sideways or upwards). An edit therefore invalidates bins and labels
only inside the edited subtree — everything outside keeps its labels,
and relabeling can re-run the normal :class:`~repro.core.labeling.TreeLabeler`
machinery *from the nearest labeled ancestor down* instead of from
scratch.

Two ingredients make that cheap:

1. :func:`clone_with_map` — edits apply to a deep clone (readers keep
   walking the old tree lock-free; the commit is an atomic swap), and
   the clone records an old→new node map so bound labeler state carries
   over by *dict remapping* instead of re-evaluating every
   authorization's XPath.
2. the labeler's own **dispatch automaton**
   (:meth:`~repro.core.labeling.TreeLabeler.compile_dispatch`, exact
   mode) — the one :meth:`~repro.core.labeling.TreeLabeler.bind` walks.
   An element's dispatch state is a function of its root path
   (ancestor names/attributes) alone, which is exactly the
   edit-locality property:
   :meth:`~repro.core.labeling.TreeLabeler.rebind_subtree` climbs to
   the nearest memoized ancestor state and walks just the edited
   subtree, binning exactly what a full bind of the edited tree would.

When any applicable authorization path falls outside the exact subset
(see :func:`repro.stream.paths.compile_stream_pattern`),
:meth:`LabelState.apply_delta` raises :class:`IncrementalUnsupported`
and the caller falls back to a full rebind — correctness is never
traded for speed, the fallback is merely slower (and metered).

The differential property — incremental relabel ≡ full relabel, for
every edit sequence under all four conflict policies — is enforced by
``tests/update/test_incremental.py`` and the hypothesis suite in
``tests/properties/test_update_properties.py``;
``tests/core/test_nfa_binding.py`` holds the rebind itself to ``bind()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.authz.authorization import Authorization
from repro.authz.conflict import ConflictPolicy
from repro.core.labeling import TreeLabeler
from repro.core.labels import Label
from repro.errors import ReproError
from repro.limits import Deadline, ResourceLimits
from repro.stream.paths import DispatchNode
from repro.subjects.hierarchy import SubjectHierarchy
from repro.xml.nodes import Document, Element, Node
from repro.xml.traversal import preorder
from repro.xpath.compile import RelativeMode

__all__ = [
    "IncrementalUnsupported",
    "EditDelta",
    "LabelState",
    "clone_with_map",
]


class IncrementalUnsupported(ReproError):
    """The applicable policy cannot be rebound incrementally (an
    authorization path is outside the exact subset)."""


def clone_with_map(document: Document) -> tuple[Document, dict[Node, Node]]:
    """Deep-clone *document*, returning the clone and an old→new map.

    The map covers the document node, every element, attribute and leaf
    node — everything a labeler, oracle or cache may hold memoized
    state against. Iterative, so arbitrarily deep documents never
    exhaust the interpreter stack.
    """
    copy = Document()
    copy.doctype_name = document.doctype_name
    copy.system_id = document.system_id
    copy.dtd = document.dtd
    copy.uri = document.uri
    copy.xml_version = document.xml_version
    copy.encoding = document.encoding
    copy.standalone = document.standalone
    node_map: dict[Node, Node] = {document: copy}
    for child in document.children:
        if isinstance(child, Element):
            copy.append(_clone_element(child, node_map))
        else:
            dup = child.clone(deep=True)
            node_map[child] = dup
            copy.append(dup)
    return copy, node_map


def _clone_element(element: Element, node_map: dict[Node, Node]) -> Element:
    top = Element(element.name)
    node_map[element] = top
    for name, attr in element.attributes.items():
        node_map[attr] = top.set_attribute(name, attr.value)
    stack: list[tuple[Element, Element]] = [(element, top)]
    while stack:
        source, target = stack.pop()
        for child in source.children:
            if isinstance(child, Element):
                dup = Element(child.name)
                for name, attr in child.attributes.items():
                    node_map[attr] = dup.set_attribute(name, attr.value)
                node_map[child] = dup
                target.append(dup)
                stack.append((child, dup))
            else:
                leaf = child.clone(deep=True)
                node_map[child] = leaf
                target.append(leaf)
    return top


@dataclass
class EditDelta:
    """One applied mutation, in terms the relabeler understands.

    ``dirty`` is the (attached, new-tree) subtree whose bins and labels
    must be recomputed; ``removed`` holds detached old-content subtree
    roots whose memoized state should be purged; ``anchor`` is the
    element the change hangs off (for ancestor-chain survivability
    purges on the read side); ``old_nodes`` are the corresponding
    subtree roots in the *pre-update* tree, when the edited region
    existed before the batch (used for before-visibility checks during
    cache invalidation).
    """

    kind: str
    anchor: Optional[Element]
    dirty: Optional[Node] = None
    removed: tuple[Node, ...] = ()
    old_nodes: tuple[Node, ...] = ()


@dataclass
class LabelState:
    """A reusable (labeler, memoized labels, dispatch automaton) triple.

    One state follows one document across edits: :meth:`rebase` carries
    it onto the post-edit clone by key remapping, :meth:`apply_delta`
    repairs exactly the edited subtree. ``automaton`` is the labeler's
    :meth:`~repro.core.labeling.TreeLabeler.compile_dispatch`, ``None``
    when the policy is outside the exact subset — then every delta
    raises :class:`IncrementalUnsupported` and callers rebuild.
    """

    labeler: TreeLabeler
    labels: dict[Node, Label] = field(default_factory=dict)
    automaton: Optional[tuple] = None
    # element → the automaton's dispatch node at that element; valid
    # while the element's root path is unchanged (purged with removed
    # subtrees, rewritten by each rebind).
    dispatch_states: dict[Element, DispatchNode] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        document: Document,
        instance_auths: list[Authorization],
        schema_auths: list[Authorization],
        hierarchy: SubjectHierarchy,
        policy: Optional[ConflictPolicy] = None,
        relative_mode: RelativeMode = "descendant",
        limits: Optional[ResourceLimits] = None,
        deadline: Optional[Deadline] = None,
    ) -> "LabelState":
        labeler = TreeLabeler(
            document,
            instance_auths,
            schema_auths,
            hierarchy,
            policy=policy,
            relative_mode=relative_mode,
            limits=limits,
            deadline=deadline,
        )
        labeler.bind()
        return cls(labeler, {}, labeler.compile_dispatch())

    @property
    def stream_safe(self) -> bool:
        return self.automaton is not None

    def label(self, node: Node) -> Label:
        return self.labeler.label_lazily(node, self.labels)

    def rebase(self, document: Document, node_map: dict[Node, Node]) -> None:
        """Carry the state onto a clone of its document (O(memo))."""
        self.labeler.rebase(document, node_map)
        self.labels = {
            node_map[node]: label
            for node, label in self.labels.items()
            if node in node_map
        }
        self.dispatch_states = {
            node_map[node]: state
            for node, state in self.dispatch_states.items()
            if node in node_map
        }

    def apply_delta(self, delta: EditDelta) -> int:
        """Repair bins and labels for one applied edit.

        Returns the number of nodes relabeled. Raises
        :class:`IncrementalUnsupported` when the policy cannot be
        rebound incrementally (the caller rebuilds from scratch).
        """
        if self.automaton is None:
            raise IncrementalUnsupported(
                "an authorization path is outside the exact subset"
            )
        bins = self.labeler.slot_bins()
        for removed in delta.removed:
            for node in preorder(removed):
                bins.pop(node, None)
                self.labels.pop(node, None)
                self.dispatch_states.pop(node, None)
        relabeled = 0
        if delta.dirty is not None:
            self.labeler.rebind_subtree(
                delta.dirty, self.automaton, self.dispatch_states
            )
            for node in preorder(delta.dirty):
                self.labels.pop(node, None)
            relabeled = self.labeler.relabel_subtree(delta.dirty, self.labels)
        return relabeled
