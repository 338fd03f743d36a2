"""Decision explanation: *why* is this node visible (or not)?

Policy debugging is the first thing an administrator of this model
needs: with propagation, overriding, weak types and two specification
levels, "why can Tom see this?" has a non-obvious answer. A node's
label is a function of the bins on its root path (paper §6.1,
Figure 2), and so is every reason for it. :class:`Provenance` derives
those reasons from a bound :class:`~repro.core.labeling.TreeLabeler`'s
bins and labels, with the same conflict-resolution and propagation
functions the labeling walks use, and this module turns them into, per
node:

- the final sign and which label slot decided it,
- for slots set directly: every candidate authorization, the ones that
  survived the most-specific-subject filter and the ones it eliminated,
- for inherited slots: the exact ancestor/slot the sign propagated from,
- whether the node's own recursive authorization blocked the parent's
  (a weak label overriding a strong one included), and whether a weak
  sign was itself overridden by a higher-priority slot,
- why the node is/isn't in the emitted view (own sign vs structural
  survivor), and the winning authorizations behind the final sign.

Entry points: :func:`explain` (one node: a bind, then that node's root
path and subtree), :func:`explain_view` / :func:`explain_from_auths`
(whole-document :class:`Explanation`), and ``SecureXMLServer.explain``
for the server facade. An :class:`Explanation` carries enough evidence
to *re-derive* every node's final sign without re-running the labeler —
:meth:`Explanation.rederive_final` — which the differential test suite
checks against :class:`~repro.core.labeling.LabelingResult` under all
four conflict policies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.authz.authorization import Authorization
from repro.authz.conflict import ConflictPolicy, EPSILON
from repro.authz.store import AuthorizationStore
from repro.core.labeling import (
    SLOTS,
    TreeLabeler,
    most_specific,
    resolve_slot_sign,
)
from repro.core.labels import Label, first_def
from repro.core.view import resolve_dtd_uri
from repro.errors import ReproError
from repro.limits import Deadline, ResourceLimits
from repro.obs.trace import span
from repro.subjects.hierarchy import Requester, SubjectHierarchy
from repro.xml.nodes import Attribute, Document, Element, Node
from repro.xml.traversal import node_path, postorder
from repro.xpath.compile import RelativeMode, compile_xpath

__all__ = [
    "Provenance",
    "SlotDecision",
    "SlotOrigin",
    "NodeExplanation",
    "Explanation",
    "explain",
    "explain_view",
    "explain_from_auths",
]


@dataclass
class SlotDecision:
    """Provenance of one directly-decided label slot on one node.

    ``candidates`` are every authorization binned into the slot,
    ``winners`` the subset surviving the most-specific-subject filter,
    ``overridden`` the eliminated ones. ``sign`` is the conflict
    policy's verdict over the winners' signs (possibly ε when the
    policy dissolves the conflict).
    """

    slot: str
    sign: str
    candidates: list[Authorization]
    winners: list[Authorization]
    overridden: list[Authorization]


class Provenance:
    """Why each node of a bound labeler's tree carries its label.

    Derived, per node, from the labeler's
    :meth:`~repro.core.labeling.TreeLabeler.slot_bins` and *labels* (a
    :meth:`~repro.core.labeling.TreeLabeler.label_lazily` memo, filled
    on demand) by climbing the node's root path:

    - :meth:`decisions` — slot → :class:`SlotDecision` for every slot
      with candidate authorizations (the paper's steps 1b/1c);
    - :meth:`origins` — slot → ``(origin node, origin slot)`` for every
      non-ε slot: where its sign was decided directly. A propagated
      slot points at its ancestor's origin;
    - :meth:`blocked` — the parent's recursive slots the node's own
      recursive authorization kept from propagating (a weak label
      blocking a strong parent included);
    - :meth:`attribute_inputs` — for attributes, the ``(own weak sign,
      parent instance sign)`` inputs of the attribute final-sign
      formula (DESIGN.md decision 2);
    - :meth:`final_origin` — the origin of the final sign (``None``
      when it is ε).

    Decisions and origins are memoized per node, so deriving a whole
    document is linear in its size. They are as current as the bins
    and labels they came from: derive with a fresh instance after an
    edit.
    """

    def __init__(self, labeler: TreeLabeler, labels: dict[Node, Label]) -> None:
        self._labeler = labeler
        self._labels = labels
        self._bins = labeler.slot_bins()
        self._decisions: dict[Node, dict[str, SlotDecision]] = {}
        self._origins: dict[Node, dict[str, tuple[Node, str]]] = {}

    def label(self, node: Node) -> Label:
        return self._labeler.label_lazily(node, self._labels)

    def decisions(self, node: Node) -> dict[str, SlotDecision]:
        found = self._decisions.get(node)
        if found is None:
            hierarchy = self._labeler.hierarchy
            found = {}
            for slot, candidates in self._bins.get(node, {}).items():
                winners = most_specific(candidates, hierarchy)
                found[slot] = SlotDecision(
                    slot,
                    resolve_slot_sign(candidates, hierarchy, self._labeler.policy),
                    list(candidates),
                    winners,
                    [a for a in candidates if a not in winners],
                )
            self._decisions[node] = found
        return found

    def decision_at(
        self, origin: Optional[tuple[Node, str]]
    ) -> Optional[SlotDecision]:
        """The :class:`SlotDecision` behind an origin pair, if any."""
        if origin is None:
            return None
        node, slot = origin
        return self.decisions(node).get(slot)

    def origins(self, node: Node) -> dict[str, tuple[Node, str]]:
        found = self._origins.get(node)
        if found is not None:
            return found
        chain: list[Node] = []
        current: Optional[Node] = node
        while current is not None and current not in self._origins:
            chain.append(current)
            current = _parent_element(current)
        for item in reversed(chain):
            self._origins[item] = self._derive_origins(item)
        return self._origins[node]

    def blocked(self, node: Node) -> tuple[str, ...]:
        parent = _parent_element(node)
        if (
            parent is None
            or not isinstance(node, Element)
            or self._own(node, "R") == self._own(node, "RW") == EPSILON
        ):
            return ()
        parent_label = self.label(parent)
        return tuple(
            slot for slot in ("R", "RW") if getattr(parent_label, slot) != EPSILON
        )

    def attribute_inputs(self, node: Node) -> tuple[str, str]:
        if not isinstance(node, Attribute):
            return EPSILON, EPSILON
        parent_label = self.label(node.parent)
        return self._own(node, "LW"), first_def(parent_label.L, parent_label.R)

    def final_origin(self, node: Node) -> Optional[tuple[Node, str]]:
        if isinstance(node, Element):
            label = self.label(node)
            sources = [(label, node, slot) for slot in SLOTS]
        elif isinstance(node, Attribute):
            label = self.label(node)
            parent = node.parent
            parent_label = self.label(parent)
            if self._own(node, "LW") != EPSILON:
                sources = [(label, node, "L"), (label, node, "LD"), (label, node, "LW")]
            else:
                sources = [
                    (label, node, "L"),
                    (parent_label, parent, "L"),
                    (parent_label, parent, "R"),
                    (label, node, "LD"),
                    (label, node, "LW"),
                ]
        else:
            # Values (text/comment/PI) take their element's final sign.
            return self.final_origin(node.parent)
        for label, source, slot in sources:
            if getattr(label, slot) != EPSILON:
                return self.origins(source).get(slot, (source, slot))
        return None

    def _own(self, node: Node, slot: str) -> str:
        """*node*'s directly decided sign in *slot* (ε when undecided)."""
        decision = self.decisions(node).get(slot)
        return decision.sign if decision is not None else EPSILON

    def _derive_origins(self, node: Node) -> dict[str, tuple[Node, str]]:
        """Origins of *node*'s slots; its parent's are already derived."""
        origins = {
            slot: (node, slot)
            for slot, decision in self.decisions(node).items()
            if decision.sign != EPSILON
        }
        parent = _parent_element(node)
        if parent is None:
            return origins
        # A non-ε slot the node did not decide non-ε itself propagated
        # from the parent: on elements from the same recursive slot
        # (propagate_element_label), on attributes LD from LD or RD and
        # LW from LW or RW (propagate_attribute_label).
        if isinstance(node, Element):
            sources = (("R", "R"), ("RW", "RW"), ("RD", "RD"))
        elif isinstance(node, Attribute):
            parent_label = self.label(parent)
            sources = tuple(
                (slot, local if getattr(parent_label, local) != EPSILON else recursive)
                for slot, local, recursive in (("LD", "LD", "RD"), ("LW", "LW", "RW"))
            )
        else:
            return origins
        label = self.label(node)
        inherited = self._origins[parent]
        for slot, source in sources:
            if slot not in origins and getattr(label, slot) != EPSILON:
                origins[slot] = inherited.get(source, (parent, source))
        return origins


def _parent_element(node: Node) -> Optional[Element]:
    """*node*'s parent element; ``None`` for the root element."""
    parent = node.parent
    return parent if isinstance(parent, Element) else None


@dataclass
class SlotOrigin:
    """Where one slot's sign came from."""

    slot: str
    sign: str
    #: "direct" (authorizations on the node), "inherited" (propagated
    #: from an ancestor) or "none".
    kind: str
    winners: list[Authorization] = field(default_factory=list)
    overridden: list[Authorization] = field(default_factory=list)
    inherited_from: Optional[Node] = None

    def describe(self) -> str:
        if self.kind == "none":
            return f"{self.slot}: ε"
        if self.kind == "direct":
            winners = "; ".join(a.unparse() for a in self.winners) or "(policy)"
            text = f"{self.slot}: {self.sign} from {winners}"
            if self.overridden:
                text += (
                    " [overrode: "
                    + "; ".join(a.unparse() for a in self.overridden)
                    + "]"
                )
            return text
        source = node_path(self.inherited_from) if self.inherited_from else "?"
        text = f"{self.slot}: {self.sign} inherited from {source}"
        if self.winners:
            text += " (granted by " + "; ".join(
                a.unparse() for a in self.winners
            ) + ")"
        return text

    def as_dict(self) -> dict:
        out: dict = {"slot": self.slot, "sign": self.sign, "kind": self.kind}
        if self.winners:
            out["winners"] = [a.unparse() for a in self.winners]
        if self.overridden:
            out["overridden"] = [a.unparse() for a in self.overridden]
        if self.inherited_from is not None:
            out["inherited_from"] = node_path(self.inherited_from)
        return out


@dataclass
class NodeExplanation:
    """The full story for one node."""

    path: str
    final: str
    deciding_slot: Optional[str]
    origins: list[SlotOrigin]
    in_view: bool
    structural_only: bool  # kept only because a descendant is visible
    #: The explained node itself ("element" / "attribute" / "value").
    node: Optional[Node] = None
    node_kind: str = "element"
    #: The node/slot where the final sign was decided directly
    #: (``None`` when the final is ε). ``source_path`` names the node.
    source_path: Optional[str] = None
    source_slot: Optional[str] = None
    #: The authorizations behind the final sign (empty for ε finals).
    winning: list[Authorization] = field(default_factory=list)
    #: Parent recursive slots this node's own recursive authorization
    #: blocked from propagating (weak-over-strong included).
    blocked: tuple[str, ...] = ()
    #: The node carried a weak sign that lost to a stronger slot.
    weak_overridden: bool = False
    #: Attribute-only inputs of the final-sign formula (ε otherwise).
    own_weak_sign: str = EPSILON
    parent_instance_sign: str = EPSILON

    def describe(self) -> str:
        lines = [f"{self.path}: final={self.final}"]
        if self.deciding_slot:
            deciding = next(
                origin for origin in self.origins if origin.slot == self.deciding_slot
            )
            lines.append(f"  decided by {deciding.describe()}")
        elif self.final != EPSILON:
            # Attributes can receive their final sign straight from the
            # parent element's composed instance signs (no slot records it).
            source = self.source_path or "?"
            winners = "; ".join(a.unparse() for a in self.winning)
            lines.append(
                f"  decided by the parent element's sign ({self.final}),"
                f" from {source}"
                + (f" [{winners}]" if winners else "")
            )
        else:
            lines.append("  no authorization applies (ε)")
        for origin in self.origins:
            if origin.slot != self.deciding_slot and origin.kind != "none":
                lines.append(f"  also {origin.describe()}")
        if self.blocked:
            lines.append(
                "  blocked the parent's recursive sign"
                f" ({', '.join(self.blocked)}) with its own recursive"
                " authorization"
            )
        if self.weak_overridden:
            lines.append("  its weak sign was overridden by a stronger slot")
        if self.in_view and self.structural_only:
            lines.append(
                "  in view as a bare tag only (a descendant is visible)"
            )
        elif self.in_view:
            lines.append("  in view")
        else:
            lines.append("  not in view")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        out: dict = {
            "path": self.path,
            "kind": self.node_kind,
            "final": self.final,
            "deciding_slot": self.deciding_slot,
            "in_view": self.in_view,
            "structural_only": self.structural_only,
            "origins": [o.as_dict() for o in self.origins if o.kind != "none"],
        }
        if self.source_path is not None:
            out["source"] = {"path": self.source_path, "slot": self.source_slot}
        if self.winning:
            out["winning"] = [a.unparse() for a in self.winning]
        if self.blocked:
            out["blocked_parent_slots"] = list(self.blocked)
        if self.weak_overridden:
            out["weak_overridden"] = True
        if self.node_kind == "attribute":
            out["own_weak_sign"] = self.own_weak_sign
            out["parent_instance_sign"] = self.parent_instance_sign
        return out


class Explanation:
    """Structured decision provenance for one (document, requester) pair.

    Behaves as a read-only mapping ``node -> NodeExplanation`` covering
    every node of the document, plus request metadata, optional
    ``targets`` (the nodes an XPath narrowed the question to), a
    human-readable :meth:`describe` rendering and a JSON-safe
    :meth:`as_dict` / :meth:`to_json`.

    :meth:`rederive_final` recomputes any node's final sign from the
    evidence it carries alone (no labeler, no authorizations) — the
    differential guarantee the test suite enforces.
    """

    def __init__(
        self,
        nodes: dict[Node, NodeExplanation],
        uri: str = "",
        requester: str = "",
        action: str = "read",
        policy: str = "DenialsTakePrecedence",
        open_policy: bool = False,
        targets: Optional[list[Node]] = None,
    ) -> None:
        self._nodes = nodes
        self.uri = uri
        self.requester = requester
        self.action = action
        self.policy = policy
        self.open_policy = open_policy
        self.targets: list[Node] = list(targets) if targets else []
        #: Per-stage seconds when produced through the traced facade.
        self.timings: dict[str, float] = {}

    # -- mapping protocol ----------------------------------------------------

    def __getitem__(self, node: Node) -> NodeExplanation:
        return self._nodes[node]

    def get(self, node: Node, default=None):
        return self._nodes.get(node, default)

    def __contains__(self, node: Node) -> bool:
        return node in self._nodes

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def keys(self):
        return self._nodes.keys()

    def values(self):
        return self._nodes.values()

    def items(self):
        return self._nodes.items()

    # -- derived views -------------------------------------------------------

    @property
    def target_explanations(self) -> list[NodeExplanation]:
        return [self._nodes[node] for node in self.targets if node in self._nodes]

    @property
    def visible_nodes(self) -> int:
        return sum(1 for ne in self._nodes.values() if ne.in_view)

    def rederive_final(self, node: Node) -> str:
        """Recompute *node*'s final sign from this explanation alone.

        Elements fold their six explained slot signs with ``first_def``;
        attributes replay the attribute formula from the explained
        ``own_weak_sign`` / ``parent_instance_sign`` inputs; values
        (text/comment/PI) take their parent element's re-derived sign.
        """
        ne = self._nodes[node]
        if ne.node_kind == "value":
            return self.rederive_final(node.parent)
        signs = {origin.slot: origin.sign for origin in ne.origins}
        if ne.node_kind == "attribute":
            if ne.own_weak_sign != EPSILON:
                return first_def(signs["L"], signs["LD"], ne.own_weak_sign)
            return first_def(
                signs["L"], ne.parent_instance_sign, signs["LD"], signs["LW"]
            )
        return first_def(*(signs[slot] for slot in SLOTS))

    # -- renderings ----------------------------------------------------------

    def describe(self, max_nodes: Optional[int] = None) -> str:
        """Per-node decision chains; ``targets`` only when set."""
        chosen = (
            self.target_explanations
            if self.targets
            else list(self._nodes.values())
        )
        if max_nodes is not None:
            chosen = chosen[:max_nodes]
        header = (
            f"explanation for {self.requester or 'anonymous'}"
            f" on {self.uri or '(document)'}"
            f" [{self.policy}{', open' if self.open_policy else ''}]"
        )
        return "\n".join([header] + [ne.describe() for ne in chosen])

    def as_dict(self) -> dict:
        return {
            "uri": self.uri,
            "requester": self.requester,
            "action": self.action,
            "policy": self.policy,
            "open_policy": self.open_policy,
            "targets": [node_path(node) for node in self.targets],
            "visible_nodes": self.visible_nodes,
            "total_nodes": len(self._nodes),
            "nodes": [ne.as_dict() for ne in self._nodes.values()],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), ensure_ascii=False, indent=indent)


def explain(
    document: Document,
    target: str | Node,
    requester: Requester,
    store: AuthorizationStore,
    dtd_uri: Optional[str] = None,
    policy: Optional[ConflictPolicy] = None,
    open_policy: bool = False,
    relative_mode: RelativeMode = "descendant",
    action: str = "read",
) -> NodeExplanation:
    """Explain the decision for one node (an XPath string or a node).

    Binds the document's authorizations, then labels and explains only
    the node's root path and subtree (the subtree decides whether the
    node survives pruning).

    Raises :class:`ReproError` when the path selects no node or more
    than one (explanations are per node — refine the path).
    """
    if isinstance(target, str):
        nodes = compile_xpath(target, relative_mode).select(document)
        if len(nodes) != 1:
            raise ReproError(
                f"explain() needs exactly one node; {target!r} selected "
                f"{len(nodes)}"
            )
        node = nodes[0]
    else:
        node = target
    ancestor: Optional[Node] = node
    while ancestor is not None and ancestor is not document.root:
        ancestor = ancestor.parent
    if ancestor is None:
        raise ReproError("target node does not belong to the document")
    instance, schema = _applicable(document, requester, store, dtd_uri, action)
    labeler = TreeLabeler(
        document,
        instance,
        schema,
        store.hierarchy,
        policy=policy,
        relative_mode=relative_mode,
    )
    labels: dict[Node, Label] = {}
    labeler.relabel_subtree(node, labels)
    return _explain_node(
        Provenance(labeler, labels),
        node,
        _survival(node, labels, open_policy)[node],
        open_policy,
    )


def explain_view(
    document: Document,
    requester: Requester,
    store: AuthorizationStore,
    dtd_uri: Optional[str] = None,
    policy: Optional[ConflictPolicy] = None,
    open_policy: bool = False,
    relative_mode: RelativeMode = "descendant",
    action: str = "read",
) -> Explanation:
    """Explanations for every node of *document* under one request."""
    instance, schema = _applicable(document, requester, store, dtd_uri, action)
    return explain_from_auths(
        document,
        instance,
        schema,
        store.hierarchy,
        policy=policy,
        open_policy=open_policy,
        relative_mode=relative_mode,
        uri=document.uri or "",
        requester=str(requester),
        action=action,
    )


def _applicable(
    document: Document,
    requester: Requester,
    store: AuthorizationStore,
    dtd_uri: Optional[str],
    action: str,
) -> tuple[list[Authorization], list[Authorization]]:
    """The requester's instance- and schema-level authorizations."""
    uri = document.uri or ""
    instance = store.applicable(requester, uri, action) if uri else []
    resolved = resolve_dtd_uri(document, dtd_uri)
    schema = store.applicable(requester, resolved, action) if resolved else []
    return instance, schema


def explain_from_auths(
    document: Document,
    instance_auths: list[Authorization],
    schema_auths: list[Authorization],
    hierarchy: SubjectHierarchy,
    policy: Optional[ConflictPolicy] = None,
    open_policy: bool = False,
    relative_mode: RelativeMode = "descendant",
    uri: str = "",
    requester: str = "",
    action: str = "read",
    limits: Optional[ResourceLimits] = None,
    deadline: Optional[Deadline] = None,
) -> Explanation:
    """Build an :class:`Explanation` from pre-selected authorization
    sets — the worker behind :func:`explain_view` and the server
    facade's ``explain()``.

    Labels with the plain :meth:`~repro.core.labeling.TreeLabeler.run`
    (one fused walk when every path is exact), then derives every
    node's provenance over one shared :class:`Provenance`.
    """
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
    with span("decision.label"):
        labels = labeler.run().labels
    with span("decision.assemble"):
        nodes: dict[Node, NodeExplanation] = {}
        root = document.root
        if root is not None:
            provenance = Provenance(labeler, labels)
            in_view = _survival(root, labels, open_policy)
            for node in _walk_order(root):
                nodes[node] = _explain_node(
                    provenance, node, in_view[node], open_policy
                )
    return Explanation(
        nodes,
        uri=uri or (document.uri or ""),
        requester=requester,
        action=action,
        policy=type(labeler.policy).__name__,
        open_policy=open_policy,
    )


def _explain_node(
    provenance: Provenance, node: Node, in_view: bool, open_policy: bool
) -> NodeExplanation:
    """One node's explanation from its derived provenance."""
    label = provenance.label(node)
    decisions = provenance.decisions(node)
    origin_map = provenance.origins(node)
    origins: list[SlotOrigin] = []
    deciding: Optional[str] = None
    for slot in SLOTS:
        sign = getattr(label, slot)
        decision = decisions.get(slot)
        origin = origin_map.get(slot)
        if decision is not None and (origin is None or origin[0] is node):
            origins.append(
                SlotOrigin(
                    slot, sign, "direct", decision.winners, decision.overridden
                )
            )
        elif origin is not None and origin[0] is not node:
            source = provenance.decision_at(origin)
            origins.append(
                SlotOrigin(
                    slot,
                    sign,
                    "inherited",
                    winners=list(source.winners) if source is not None else [],
                    overridden=(
                        list(source.overridden) if source is not None else []
                    ),
                    inherited_from=origin[0],
                )
            )
        else:
            origins.append(
                SlotOrigin(slot, sign, "none" if sign == EPSILON else "direct")
            )
        if deciding is None and sign != EPSILON and sign == label.final:
            deciding = slot
    final_origin = provenance.final_origin(node)
    source = provenance.decision_at(final_origin)
    own_weak, parent_instance = provenance.attribute_inputs(node)
    if isinstance(node, Attribute):
        node_kind = "attribute"
    elif isinstance(node, Element):
        node_kind = "element"
    else:
        node_kind = "value"
    own_visible = label.permitted_under(open_policy)
    return NodeExplanation(
        path=node_path(node),
        final=label.final,
        deciding_slot=deciding,
        origins=origins,
        in_view=in_view,
        structural_only=in_view and not own_visible,
        node=node,
        node_kind=node_kind,
        source_path=(
            node_path(final_origin[0]) if final_origin is not None else None
        ),
        source_slot=final_origin[1] if final_origin is not None else None,
        winning=list(source.winners) if source else [],
        blocked=provenance.blocked(node),
        weak_overridden=(
            first_def(label.LW, label.RW) != EPSILON
            and final_origin is not None
            and final_origin[1] not in ("LW", "RW")
        ),
        own_weak_sign=own_weak,
        parent_instance_sign=parent_instance,
    )


def _survival(
    root: Node, labels: dict[Node, Label], open_policy: bool
) -> dict[Node, bool]:
    """node → in the pruned view, for ``subtree(root)``: permitted
    itself, or kept as the ancestor of a node that is."""
    kept: dict[Node, bool] = {}
    for node in postorder(root):
        kept[node] = labels[node].permitted_under(open_policy) or (
            isinstance(node, Element)
            and any(
                kept[child]
                for child in (*node.attributes.values(), *node.children)
            )
        )
    return kept


def _walk_order(root: Element) -> Iterator[Node]:
    """The per-node labeling walk's order, which fixes the order of an
    :class:`Explanation`'s nodes (and of its JSON)."""
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Element):
            stack.extend(node.attributes.values())
            stack.extend(node.children)
