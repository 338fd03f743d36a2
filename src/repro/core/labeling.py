"""The tree-labeling pass of the compute-view algorithm (Figure 2).

Given a document and the applicable instance-level (Axml) and
schema-level (Adtd) authorizations for one requester, :class:`TreeLabeler`
computes a :class:`~repro.core.labels.Label` for every element,
attribute and text node:

1. **initial_label** — each authorization's path expression is evaluated
   once against the document; for every selected node the authorization
   is binned into its label slot (L/R/LW/RW for instance authorizations,
   LD/RD for schema ones). Per node and slot, authorizations with
   non-most-specific subjects are discarded and the conflict policy
   resolves the surviving signs (the paper's step 1b/1c, with
   denials-take-precedence as the default policy).
2. **label** — a preorder walk propagates signs downward with
   most-specific-object overriding. The propagation rules follow the
   paper's prose; see DESIGN.md ("Faithfulness notes") for the exact
   reconstruction, in particular the paired blocking of R/RW.

Text nodes (the paper's "values") inherit their parent's final sign.

When every path compiles exactly to the shared dispatch automaton,
:meth:`TreeLabeler.run` does both steps in one preorder walk, handing
out labels interned by :class:`LabelInterner` (the same helper the
streaming labeler uses): most nodes share a few labels, so each
distinct one is resolved once.

Binding runs on one walk of that automaton, :meth:`TreeLabeler._bind_walk`:
:meth:`TreeLabeler.bind` walks the whole tree with it, and
:meth:`TreeLabeler.rebind_subtree` walks just an edited subtree after an
update, so incremental relabeling bins exactly what a full bind would.

The labeler keeps no record of *why* a node got its label. A label is a
function of the bins on the node's root path, so
:class:`~repro.core.explain.Provenance` derives the reasons afterwards
from :meth:`TreeLabeler.slot_bins` and the labels, with the functions
below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.authz.authorization import AuthType, Authorization
from repro.authz.conflict import ConflictPolicy, DenialsTakePrecedence, EPSILON
from repro.core.labels import MINUS, PLUS, Label, first_def
from repro.limits import Deadline, ResourceLimits
from repro.obs.trace import span
from repro.subjects.hierarchy import SubjectHierarchy
from repro.xml.nodes import Attribute, Document, Element, Node
from repro.xml.traversal import preorder
from repro.xpath.compile import RelativeMode

__all__ = [
    "TreeLabeler",
    "LabelingResult",
    "LabelInterner",
    "SLOTS",
    "INSTANCE_SLOT",
    "SCHEMA_SLOT",
    "ATTRIBUTE_SLOT_DEGRADE",
    "most_specific",
    "resolve_slot_sign",
    "propagate_element_label",
    "propagate_attribute_label",
]

#: The six label slots, in final-sign priority order.
SLOTS = ("L", "R", "LD", "RD", "LW", "RW")

#: Instance-level authorization type -> slot.
INSTANCE_SLOT = {
    AuthType.LOCAL: "L",
    AuthType.RECURSIVE: "R",
    AuthType.LOCAL_WEAK: "LW",
    AuthType.RECURSIVE_WEAK: "RW",
}

#: Schema-level authorization type -> slot. Weak types are meaningless at
#: the schema level (strength only inverts instance/schema priority), so
#: they degrade to their strong counterparts.
SCHEMA_SLOT = {
    AuthType.LOCAL: "LD",
    AuthType.RECURSIVE: "RD",
    AuthType.LOCAL_WEAK: "LD",
    AuthType.RECURSIVE_WEAK: "RD",
}

#: On attributes — terminal nodes with "no propagation possible"
#: (Section 6.1) — recursive slots degrade to their local counterparts,
#: so an R authorization naming an attribute directly behaves like the
#: L it effectively is.
ATTRIBUTE_SLOT_DEGRADE = {"R": "L", "RW": "LW", "RD": "LD"}

#: Shared empty attribute view for predicate-free dispatch steps.
_NO_ATTRS: dict[str, str] = {}

#: The all-ε label the root element propagates from. Read-only.
_DOCUMENT_LABEL = Label()

#: Interned attribute labels per :class:`LabelInterner`; past the cap
#: lookups still work, they just recompute (hostile vocabularies stay
#: bounded).
_ATTRIBUTE_LABEL_CAP = 65536


def most_specific(
    authorizations: list[Authorization], hierarchy: SubjectHierarchy
) -> list[Authorization]:
    """Step 1b: discard authorizations whose subject is strictly
    dominated by another applicable authorization's subject."""
    return [
        a
        for a in authorizations
        if not any(
            other is not a
            and hierarchy.strictly_dominates(other.subject, a.subject)
            for other in authorizations
        )
    ]


def resolve_slot_sign(
    authorizations: list[Authorization],
    hierarchy: SubjectHierarchy,
    policy: ConflictPolicy,
) -> str:
    """Resolve the sign of one label slot (paper's steps 1b/1c).

    Keeps the authorizations whose subject is not strictly dominated by
    another applicable authorization's subject, then lets *policy*
    resolve the surviving signs. Shared by the DOM labeler and the
    streaming labeler so both backends agree sign-for-sign.
    """
    if len(authorizations) == 1:
        return authorizations[0].sign.value
    survivors = most_specific(authorizations, hierarchy)
    return policy.resolve([a.sign for a in survivors])


def propagate_element_label(label: Label, parent: Label) -> None:
    """Element propagation (paper prose, Section 6.1).

    The recursive pair (R, RW) propagates from the parent only when the
    node carries no recursive authorization of either strength — "most
    specific overrides", with a node's weak recursive authorization also
    blocking the parent's strong one. Schema recursion propagates
    independently. Local signs never propagate to sub-elements.
    """
    if label.R == EPSILON and label.RW == EPSILON:
        label.R = parent.R
        label.RW = parent.RW
    label.RD = first_def(label.RD, parent.RD)
    label.compute_final()


def propagate_attribute_label(label: Label, parent: Label) -> None:
    """Attribute propagation (DESIGN.md decision 2).

    R/RW/RD are always ε on attributes. The parent contributes, in
    order local-before-recursive at each level: instance-strong
    (L_p, R_p), schema (LD_p, RD_p) and weak (LW_p, RW_p) signs. An
    attribute's own weak authorization blocks parent *instance*
    propagation but still yields to schema signs.
    """
    own_weak = label.LW
    label.LD = first_def(label.LD, parent.LD, parent.RD)
    label.LW = first_def(label.LW, parent.LW, parent.RW)
    if own_weak != EPSILON:
        label.final = first_def(label.L, label.LD, own_weak)
    else:
        label.final = first_def(
            label.L, parent.L, parent.R, label.LD, label.LW
        )
    # Recursive slots stay ε: attributes are terminal nodes.


def _element_bins(
    entries: list[tuple[Authorization, str]], node
) -> dict[str, list[Authorization]]:
    """A fresh slot → authorizations binning for an element entering
    dispatch node *node*; ``entries[i]`` is pattern *i*'s
    ``(authorization, slot)`` pair."""
    bins: dict[str, list[Authorization]] = {}
    for index in node.accepts:
        authorization, slot = entries[index]
        bins.setdefault(slot, []).append(authorization)
    return bins


def _attribute_bins(
    entries: list[tuple[Authorization, str]], node, name: str
) -> dict[str, list[Authorization]]:
    """A fresh slot → authorizations binning for attribute *name* of an
    element at dispatch node *node*. Recursive slots degrade: attributes
    are terminal nodes."""
    bins: dict[str, list[Authorization]] = {}
    for index, tails in node.attr_entries:
        for tail in tails:
            if tail is None or tail == name:
                authorization, slot = entries[index]
                slot = ATTRIBUTE_SLOT_DEGRADE.get(slot, slot)
                bins.setdefault(slot, []).append(authorization)
                break
    return bins


class LabelInterner:
    """Labels interned over the nodes of one dispatch automaton.

    A node's label is fixed by little: an element's by its
    :class:`~repro.stream.paths.DispatchNode` (which authorizations
    select it) and its parent's recursive slots R/RW/RD; an
    attribute's by its element's dispatch node, its own name and its
    element's label; a text, comment or PI node's by its parent's final
    sign. Both labelers walk the same automaton, so both resolve each
    distinct label once here and share it between every node that has
    it:

    - ``signs`` — dispatch node → resolved ``(slot, sign)`` pairs of
      the authorizations its element part accepts;
    - ``elements`` — ``(node, parent.R, parent.RW, parent.RD)`` → label;
    - ``attributes`` — ``(node, name, id(element label))`` → label
      (element labels live as long as the interner, so ids are stable);
    - ``inherited`` — ``id(element label)`` → the label of an attribute
      no pattern selects;
    - ``values`` — final sign → the label of a text/comment/PI node.

    Walkers keep a hit to one inline dict lookup — the DOM walk in
    these dicts, the streaming labeler in its verdict caches over the
    same keys — and call the matching method only on a miss; the
    method resolves, stores and returns the label. Labels handed out
    are shared: never mutate one.

    *entries* maps each pattern index of the automaton to its
    ``(authorization, slot)`` pair, in binding order (instance list,
    then schema list), so slot lists reach conflict resolution in the
    order the per-authorization XPath binding produces.
    """

    __slots__ = (
        "_entries",
        "_hierarchy",
        "_policy",
        "signs",
        "elements",
        "attributes",
        "inherited",
        "values",
    )

    def __init__(
        self,
        entries: list[tuple[Authorization, str]],
        hierarchy: SubjectHierarchy,
        policy: ConflictPolicy,
    ) -> None:
        self._entries = entries
        self._hierarchy = hierarchy
        self._policy = policy
        self.signs: dict = {}
        self.elements: dict[tuple, Label] = {}
        self.attributes: dict[tuple, Label] = {}
        self.inherited: dict[int, Label] = {}
        self.values: dict[str, Label] = {
            sign: Label(final=sign) for sign in (PLUS, MINUS, EPSILON)
        }

    def node_signs(self, node) -> tuple[tuple[str, str], ...]:
        """Resolved ``(slot, sign)`` pairs for dispatch node *node*."""
        signs = self.signs.get(node)
        if signs is None:
            signs = tuple(
                (slot, resolve_slot_sign(auths, self._hierarchy, self._policy))
                for slot, auths in _element_bins(self._entries, node).items()
            )
            self.signs[node] = signs
        return signs

    def element_label(self, node, parent: Label) -> Label:
        """Resolve and intern the label of an element at *node* whose
        parent element carries *parent*."""
        label = Label()
        for slot, sign in self.node_signs(node):
            setattr(label, slot, sign)
        propagate_element_label(label, parent)
        self.elements[(node, parent.R, parent.RW, parent.RD)] = label
        return label

    def attribute_label(self, node, name: str, element_label: Label) -> Label:
        """Resolve and intern the label of attribute *name* on an element
        at *node* labelled *element_label*."""
        label = Label()
        for slot, auths in _attribute_bins(self._entries, node, name).items():
            setattr(
                label, slot, resolve_slot_sign(auths, self._hierarchy, self._policy)
            )
        propagate_attribute_label(label, element_label)
        if len(self.attributes) < _ATTRIBUTE_LABEL_CAP:
            self.attributes[(node, name, id(element_label))] = label
        return label

    def inherited_label(self, element_label: Label) -> Label:
        """Resolve and intern the label every attribute of an element
        labelled *element_label* gets when no pattern selects it."""
        label = Label()
        propagate_attribute_label(label, element_label)
        self.inherited[id(element_label)] = label
        return label


@dataclass
class LabelingResult:
    """Labels per node, plus bookkeeping used by tests and benchmarks.

    ``labels`` holds one entry per node of the labeled tree, so
    ``labeled_nodes`` equals ``count_nodes`` over it. Many nodes may
    share one :class:`~repro.core.labels.Label` object (see
    :class:`LabelInterner`): treat every label as read-only.
    """

    labels: dict[Node, Label]
    evaluated_authorizations: int = 0
    labeled_nodes: int = 0

    def final(self, node: Node) -> str:
        label = self.labels.get(node)
        return label.final if label is not None else EPSILON

    def counts(self) -> dict[str, int]:
        """How many nodes ended '+', '-' and ε (for reports)."""
        out = {"+": 0, "-": 0, EPSILON: 0}
        for label in self.labels.values():
            out[label.final] += 1
        return out


class TreeLabeler:
    """One labeling run: a document against two authorization sets.

    Parameters
    ----------
    document:
        The requested document (not mutated).
    instance_auths:
        Axml — authorizations attached to the document's URI, already
        filtered for the requester.
    schema_auths:
        Adtd — authorizations attached to the DTD's URI, already
        filtered for the requester. Their path expressions are evaluated
        against the instance document (DESIGN.md decision 6).
    hierarchy:
        The subject hierarchy (for the most-specific-subject filter).
    policy:
        Conflict-resolution policy; defaults to denials-take-precedence.
    relative_mode:
        How relative path expressions anchor (DESIGN.md decision 5).
    limits:
        Optional :class:`~repro.limits.ResourceLimits`; caps the XPath
        step budget of each authorization's path evaluation.
    deadline:
        Optional shared wall-clock :class:`~repro.limits.Deadline`,
        checked after every authorization evaluation and periodically
        during the labeling walk.

    ``hierarchy`` and ``policy`` stay readable as attributes.
    """

    #: Labeled nodes between two deadline checks in the main walk.
    _DEADLINE_STRIDE = 1024

    def __init__(
        self,
        document: Document | Element,
        instance_auths: list[Authorization],
        schema_auths: list[Authorization],
        hierarchy: SubjectHierarchy,
        policy: Optional[ConflictPolicy] = None,
        relative_mode: RelativeMode = "descendant",
        limits: Optional[ResourceLimits] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self._document = document
        self._root = (
            document.root if isinstance(document, Document) else document
        )
        self._instance_auths = instance_auths
        self._schema_auths = schema_auths
        self.hierarchy = hierarchy
        self.policy = policy if policy is not None else DenialsTakePrecedence()
        self._relative_mode = relative_mode
        self._max_steps = limits.max_xpath_steps if limits is not None else None
        self._deadline = (
            deadline if deadline is not None and not deadline.unbounded else None
        )
        # node -> slot -> authorizations covering that node
        self._node_slot_auths: dict[Node, dict[str, list[Authorization]]] = {}
        self._evaluated = 0
        self._bound = False

    # -- public ------------------------------------------------------------

    def run(self) -> LabelingResult:
        """Label the whole tree; returns labels for every node.

        On an unbound labeler whose paths all compile exactly, binding
        and labeling share one preorder walk (reported as
        ``label.propagate``) and the labels are interned; otherwise
        :meth:`bind` runs first and a per-node walk labels the tree.
        Either way the bins, the six slots and the final sign of every
        node come out the same.
        """
        with span("label"):
            return self._run()

    def bind(self) -> "TreeLabeler":
        """Evaluate and bin every authorization path (idempotent).

        This is the shared first half of :meth:`run`: after it, each
        node's per-slot candidate authorizations are known and single
        nodes can be labeled on demand via :meth:`label_lazily` without
        walking the whole tree — the basis of the virtual-view
        visibility oracle (:mod:`repro.rewrite`).
        """
        if not self._bound:
            with span("label.bind"):
                self._bin_authorizations()
            self._bound = True
        return self

    def label_lazily(self, node: Node, labels: dict[Node, Label]) -> Label:
        """Label *node* on demand, reusing *labels* as the shared memo.

        Labels exactly match :meth:`run`'s: the node's unlabeled
        ancestors are labeled first (signs propagate root-down), each
        via the same ``initial_label``/propagation functions the full
        walk uses. Amortized O(1) per node once ancestors are memoized.
        """
        self.bind()
        found = labels.get(node)
        if found is not None:
            return found
        # Climb to the nearest labeled ancestor (or the root).
        chain: list[Node] = []
        current = node
        while True:
            parent = current.parent
            if parent is None or isinstance(parent, Document):
                break
            chain.append(current)
            current = parent
            if current in labels:
                break
        if current not in labels:
            root_label = self._initial_label(current)
            root_label.compute_final()
            labels[current] = root_label
        for item in reversed(chain):
            labels[item] = self._label_node(item, labels[item.parent])
        return labels[node]

    # -- incremental relabeling support (repro.update) ---------------------

    def slot_bins(self) -> dict[Node, dict[str, list[Authorization]]]:
        """The mutable node → slot → candidate-authorizations binning.

        Binds first if needed. The update subsystem drops the bins of
        removed subtrees through it (:mod:`repro.update.relabel`);
        everyone else should treat it as read-only.
        """
        self.bind()
        return self._node_slot_auths

    def authorization_slots(self) -> Iterator[tuple[Authorization, str]]:
        """``(authorization, slot)`` pairs in binding order — instance
        authorizations first, then schema ones, exactly as
        :meth:`bind` bins them."""
        for authorization in self._instance_auths:
            yield authorization, INSTANCE_SLOT[authorization.type]
        for authorization in self._schema_auths:
            yield authorization, SCHEMA_SLOT[authorization.type]

    def rebind_subtree(
        self, root: Node, automaton: tuple, memo: Optional[dict] = None
    ) -> None:
        """Recompute the bins of ``subtree(root)`` in place after an edit.

        *automaton* is a :meth:`compile_dispatch` result of this labeler.
        The subtree's stale bins are dropped, the dispatch state at
        *root*'s parent is found by climbing *root*'s ancestors to the
        nearest one in *memo* (element → the
        :class:`~repro.stream.paths.DispatchNode` at that element) or to
        the document, and :meth:`_bind_walk` bins the subtree from
        there — exactly as :meth:`bind` would over the edited tree. The
        climb and the walk record every element they step in *memo*. A
        memoized state stays valid while its element's root path
        (ancestor names and attributes) is unchanged, which holds
        outside an edit's subtree.
        """
        bins = self.slot_bins()
        for node in preorder(root):
            bins.pop(node, None)
        dispatch, entries = automaton
        if not isinstance(root, Element) or not entries:
            return
        chain: list[Element] = []
        state = None
        ancestor = root.parent
        while isinstance(ancestor, Element):
            if memo is not None:
                state = memo.get(ancestor)
                if state is not None:
                    break
            chain.append(ancestor)
            ancestor = ancestor.parent
        if state is None:
            state = dispatch.initial
        for ancestor in reversed(chain):
            values = {
                name: attribute.value
                for name, attribute in ancestor.attributes.items()
            }
            state = dispatch.advance(state, ancestor.name, values)
            if memo is not None:
                memo[ancestor] = state
        # No deadline: a labeler kept across requests (a LabelState, a
        # cached oracle) holds the deadline of the request that built it.
        self._bind_walk(automaton, root, state, memo)

    def rebase(self, document: Document | Element, node_map: dict) -> None:
        """Re-anchor a *bound* labeler onto a cloned tree.

        *node_map* maps every node of the current tree to its clone
        (see :func:`repro.update.relabel.clone_with_map`). The bound
        authorization bins are carried over by key remapping — no path
        expression is re-evaluated, which is what makes incremental
        relabeling cheap. Nodes absent from the map (none, for a full
        clone) simply drop their bins.
        """
        self.bind()
        self._document = document
        self._root = (
            document.root if isinstance(document, Document) else document
        )
        remapped: dict[Node, dict[str, list[Authorization]]] = {}
        for node, slots in self._node_slot_auths.items():
            new = node_map.get(node)
            if new is not None:
                remapped[new] = slots
        self._node_slot_auths = remapped

    def relabel_subtree(self, root: Node, labels: dict[Node, Label]) -> int:
        """Eagerly (re)label *root* and its whole subtree into *labels*.

        Overwrites any memoized entries — this is the "re-run the
        labeler from the nearest labeled ancestor down" step after an
        edit invalidated a subtree's labels (the ancestors' labels are
        unaffected by construction: a node's label depends only on the
        bins along its own root path). Returns the number of nodes
        labeled.
        """
        self.bind()
        parent = root.parent
        if parent is None or isinstance(parent, Document):
            label = self._initial_label(root)
            label.compute_final()
            labels[root] = label
        else:
            parent_label = labels.get(parent)
            if parent_label is None:
                parent_label = self.label_lazily(parent, labels)
            labels[root] = self._label_node(root, parent_label)
        count = 1
        if isinstance(root, Element):
            stack: list[tuple[Node, Element]] = []
            self._push_children(root, stack)
            while stack:
                node, node_parent = stack.pop()
                labels[node] = self._label_node(node, labels[node_parent])
                count += 1
                if isinstance(node, Element):
                    self._push_children(node, stack)
        return count

    def _run(self) -> LabelingResult:
        labels: dict[Node, Label] = {}
        root = self._root
        if root is None:
            return LabelingResult(labels)
        if not self._bound:
            automaton = self.compile_dispatch()
            if automaton is not None:
                with span("label.propagate"):
                    self._bind_and_label(*automaton, labels)
                self._bound = True
                return LabelingResult(labels, self._evaluated, len(labels))
        self.bind()

        with span("label.propagate"):
            # Figure 2 steps 4-5: initial label of the root, final by
            # first_def.
            root_label = self._initial_label(root)
            root_label.compute_final()
            labels[root] = root_label

            # Step 6: label(c, r) for each child (attributes included:
            # the paper's tree model hangs attributes off their
            # element).
            stack: list[tuple[Node, Element]] = []
            self._push_children(root, stack)
            deadline = self._deadline
            labeled = 0
            while stack:
                node, parent = stack.pop()
                parent_label = labels[parent]
                label = self._label_node(node, parent_label)
                labels[node] = label
                if isinstance(node, Element):
                    self._push_children(node, stack)
                if deadline is not None:
                    labeled += 1
                    if labeled % self._DEADLINE_STRIDE == 0:
                        deadline.check("tree labeling")
        return LabelingResult(labels, self._evaluated, len(labels))

    # -- authorization binning ------------------------------------------------

    def _bin_authorizations(self) -> None:
        automaton = self.compile_dispatch()
        if automaton is None:
            for authorization, slot in self.authorization_slots():
                self._bin_one(authorization, slot, self._document)
            return
        dispatch, entries = automaton
        self._evaluated += len(entries)
        if self._root is not None and entries:
            self._bind_walk(
                automaton, self._root, dispatch.initial, deadline=self._deadline
            )

    def compile_dispatch(self) -> Optional[tuple]:
        """``(dispatch, entries)`` when every path compiles exactly, else
        ``None``.

        All paths are compiled to the streaming NFA matchers in *exact*
        mode (:func:`repro.stream.paths.compile_stream_pattern`) and
        joined into one :class:`~repro.stream.paths.PatternDispatch`;
        ``entries[i]`` is the ``(authorization, slot)`` pair of pattern
        *i*, instance list first, then schema, both in list order. Any
        path outside the exactly-streamable subset — or an Element
        context, which anchors absolute paths differently — keeps the
        evaluator's one-XPath-per-authorization binding instead, and
        leaves no automaton to rebind an edited subtree with.
        """
        if not isinstance(self._document, Document):
            return None
        # Deferred import: repro.stream imports this module at load time.
        from repro.stream.paths import (
            PatternDispatch,
            StreamPathUnsupported,
            compile_stream_pattern,
        )

        entries = list(self.authorization_slots())
        try:
            patterns = [
                compile_stream_pattern(
                    authorization.object.path, self._relative_mode, exact=True
                )
                for authorization, _ in entries
            ]
        except StreamPathUnsupported:
            return None
        return PatternDispatch(patterns), entries

    def _bind_walk(
        self,
        automaton: tuple,
        root: Element,
        parent_state,
        memo: Optional[dict] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Bin ``subtree(root)`` in one preorder walk, entering *root*
        from dispatch state *parent_state*.

        Each element advances its parent's joint dispatch state and bins
        every accepting authorization — the per-node slot lists come out
        in the same order the per-authorization XPath evaluations would
        have produced. Each element's state goes into *memo* when one is
        given; *deadline* is checked every ``_DEADLINE_STRIDE`` elements.
        """
        dispatch, entries = automaton
        bins = self._node_slot_auths
        stack: list[tuple[Element, object]] = [(root, parent_state)]
        visited = 0
        while stack:
            element, parent_state = stack.pop()
            attributes = element.attributes
            if attributes and parent_state.preds:
                values = {
                    name: attribute.value
                    for name, attribute in attributes.items()
                }
            else:
                values = _NO_ATTRS
            state = dispatch.advance(parent_state, element.name, values)
            if memo is not None:
                memo[element] = state
            if state.accepts:
                bins[element] = _element_bins(entries, state)
            if attributes and state.attr_entries:
                for name, attribute in attributes.items():
                    found = _attribute_bins(entries, state, name)
                    if found:
                        bins[attribute] = found
            for child in element.children:
                if isinstance(child, Element):
                    stack.append((child, state))
            if deadline is not None:
                visited += 1
                if visited % self._DEADLINE_STRIDE == 0:
                    deadline.check("authorization binding")

    def _bind_and_label(
        self,
        dispatch,
        entries: list[tuple[Authorization, str]],
        labels: dict[Node, Label],
    ) -> None:
        """Bind and label the whole tree in one preorder walk.

        The walk of :meth:`_bind_walk`, which also labels each node
        from its dispatch state and its parent's label through a
        :class:`LabelInterner`: one resolution per distinct label, one
        dict lookup per node after that. Bins and labels equal what
        :meth:`bind` followed by the per-node walk produces.
        """
        self._evaluated += len(entries)
        interner = LabelInterner(entries, self.hierarchy, self.policy)
        element_labels = interner.elements
        attribute_labels = interner.attributes
        inherited_labels = interner.inherited
        value_labels = interner.values
        bins = self._node_slot_auths
        deadline = self._deadline
        stack: list[tuple[Element, object, Label]] = [
            (self._root, dispatch.initial, _DOCUMENT_LABEL)
        ]
        visited = 0
        while stack:
            element, parent_state, parent_label = stack.pop()
            attributes = element.attributes
            if attributes and parent_state.preds:
                values = {
                    name: attribute.value
                    for name, attribute in attributes.items()
                }
            else:
                values = _NO_ATTRS
            state = dispatch.advance(parent_state, element.name, values)
            label = element_labels.get(
                (state, parent_label.R, parent_label.RW, parent_label.RD)
            )
            if label is None:
                label = interner.element_label(state, parent_label)
            labels[element] = label
            if state.accepts:
                bins[element] = _element_bins(entries, state)
            if attributes:
                if state.attr_entries:
                    label_id = id(label)
                    for name, attribute in attributes.items():
                        attribute_label = attribute_labels.get(
                            (state, name, label_id)
                        )
                        if attribute_label is None:
                            attribute_label = interner.attribute_label(
                                state, name, label
                            )
                        labels[attribute] = attribute_label
                        found = _attribute_bins(entries, state, name)
                        if found:
                            bins[attribute] = found
                else:
                    inherited = inherited_labels.get(id(label))
                    if inherited is None:
                        inherited = interner.inherited_label(label)
                    for attribute in attributes.values():
                        labels[attribute] = inherited
            # Text/comment/PI nodes ("values") share the parent's final.
            value_label = value_labels[label.final]
            for child in element.children:
                if isinstance(child, Element):
                    stack.append((child, state, label))
                else:
                    labels[child] = value_label
            if deadline is not None:
                visited += 1
                if visited % self._DEADLINE_STRIDE == 0:
                    deadline.check("tree labeling")

    def _bin_one(self, authorization: Authorization, slot: str, context: Node) -> None:
        nodes = authorization.select_nodes(
            context,
            self._relative_mode,
            max_steps=self._max_steps,
            deadline=self._deadline,
        )
        self._evaluated += 1
        if self._deadline is not None:
            self._deadline.check("authorization evaluation")
        for node in nodes:
            node_slot = slot
            if isinstance(node, Attribute):
                node_slot = ATTRIBUTE_SLOT_DEGRADE.get(slot, slot)
            slots = self._node_slot_auths.get(node)
            if slots is None:
                slots = {}
                self._node_slot_auths[node] = slots
            slots.setdefault(node_slot, []).append(authorization)

    # -- initial_label ------------------------------------------------------------

    def _initial_label(self, node: Node) -> Label:
        """Paper's initial_label(n): per-slot most-specific filtering and
        conflict resolution."""
        label = Label()
        slots = self._node_slot_auths.get(node)
        if not slots:
            return label
        for slot, authorizations in slots.items():
            setattr(
                label,
                slot,
                resolve_slot_sign(authorizations, self.hierarchy, self.policy),
            )
        return label

    # -- label(n, p) ------------------------------------------------------------

    def _label_node(self, node: Node, parent_label: Label) -> Label:
        label = self._initial_label(node)
        if isinstance(node, Attribute):
            self._propagate_to_attribute(label, parent_label)
        elif isinstance(node, Element):
            self._propagate_to_element(label, parent_label)
        else:
            # Text/comment/PI nodes ("values"): visibility follows the
            # parent element's final sign.
            label.final = parent_label.final
        return label

    _propagate_to_element = staticmethod(propagate_element_label)
    _propagate_to_attribute = staticmethod(propagate_attribute_label)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _push_children(element: Element, stack: list[tuple[Node, Element]]) -> None:
        for attribute in element.attributes.values():
            stack.append((attribute, element))
        for child in element.children:
            stack.append((child, element))
