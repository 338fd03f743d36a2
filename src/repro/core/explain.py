"""Decision explanation: *why* is this node visible (or not)?

Policy debugging is the first thing an administrator of this model
needs: with propagation, overriding, weak types and two specification
levels, "why can Tom see this?" has a non-obvious answer. This module
runs the labeling with a :class:`~repro.core.labeling.ProvenanceRecorder`
attached and turns the recorded evidence into, per node:

- the final sign and which label slot decided it,
- for slots set directly: every candidate authorization, the ones that
  survived the most-specific-subject filter and the ones it eliminated,
- for inherited slots: the exact ancestor/slot the sign propagated from
  (recorded during propagation — no heuristics),
- whether the node's own recursive authorization blocked the parent's
  (a weak label overriding a strong one included), and whether a weak
  sign was itself overridden by a higher-priority slot,
- why the node is/isn't in the emitted view (own sign vs structural
  survivor), and the winning authorizations behind the final sign.

Entry points: :func:`explain` (one node), :func:`explain_view` /
:func:`explain_from_auths` (whole-document :class:`Explanation`), and
``SecureXMLServer.explain`` for the server facade. An
:class:`Explanation` carries enough evidence to *re-derive* every
node's final sign without re-running the labeler —
:meth:`Explanation.rederive_final` — which the differential test suite
checks against :class:`~repro.core.labeling.LabelingResult` under all
four conflict policies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.authz.authorization import Authorization
from repro.authz.conflict import ConflictPolicy, DenialsTakePrecedence, EPSILON
from repro.authz.store import AuthorizationStore
from repro.core.labeling import SLOTS, ProvenanceRecorder, TreeLabeler
from repro.core.labels import first_def
from repro.errors import ReproError
from repro.limits import Deadline, ResourceLimits
from repro.obs.trace import span
from repro.subjects.hierarchy import Requester, SubjectHierarchy
from repro.xml.nodes import Attribute, Document, Element, Node
from repro.xml.traversal import node_path
from repro.xpath.compile import RelativeMode, compile_xpath

__all__ = [
    "SlotOrigin",
    "NodeExplanation",
    "Explanation",
    "explain",
    "explain_view",
    "explain_from_auths",
]


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
    recorded evidence alone (no labeler, no authorizations) — the
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

        Elements fold their six recorded slot signs with ``first_def``;
        attributes replay the attribute formula from the recorded
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
    report = explain_view(
        document,
        requester,
        store,
        dtd_uri=dtd_uri,
        policy=policy,
        open_policy=open_policy,
        relative_mode=relative_mode,
        action=action,
    )
    found = report.get(node)
    if found is None:
        raise ReproError("target node does not belong to the document")
    return found


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
    uri = document.uri or ""
    instance = store.applicable(requester, uri, action) if uri else []
    resolved = dtd_uri or (document.dtd.uri if document.dtd else None) or document.system_id
    schema = store.applicable(requester, resolved, action) if resolved else []
    return explain_from_auths(
        document,
        instance,
        schema,
        store.hierarchy,
        policy=policy,
        open_policy=open_policy,
        relative_mode=relative_mode,
        uri=uri,
        requester=str(requester),
        action=action,
    )


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
    facade's ``explain()``."""
    chosen_policy = policy if policy is not None else DenialsTakePrecedence()
    recorder = ProvenanceRecorder()
    labeler = TreeLabeler(
        document,
        instance_auths,
        schema_auths,
        hierarchy,
        policy=chosen_policy,
        relative_mode=relative_mode,
        limits=limits,
        deadline=deadline,
        recorder=recorder,
    )
    with span("decision.label"):
        result = labeler.run()
    with span("decision.assemble"):
        nodes = _assemble(document, result.labels, recorder, open_policy)
    return Explanation(
        nodes,
        uri=uri or (document.uri or ""),
        requester=requester,
        action=action,
        policy=type(chosen_policy).__name__,
        open_policy=open_policy,
    )


def _assemble(
    document: Document,
    labels: dict,
    recorder: ProvenanceRecorder,
    open_policy: bool,
) -> dict[Node, NodeExplanation]:
    """Turn one run's recorded provenance into per-node explanations."""
    # Visibility including structural survival (the pruning outcome).
    visible_subtree: dict[Node, bool] = {}
    root = document.root
    if root is not None:
        for node in _postorder(root):
            own = labels[node].permitted_under(open_policy)
            child_visible = False
            if isinstance(node, Element):
                child_visible = any(
                    visible_subtree.get(child, False)
                    for child in list(node.attributes.values()) + node.children
                )
            visible_subtree[node] = own or child_visible

    explanations: dict[Node, NodeExplanation] = {}
    for node, label in labels.items():
        decisions = recorder.decisions.get(node, {})
        origin_map = recorder.origins.get(node, {})
        origins: list[SlotOrigin] = []
        deciding: Optional[str] = None
        for slot in SLOTS:
            sign = getattr(label, slot)
            decision = decisions.get(slot)
            origin = origin_map.get(slot)
            if decision is not None and (origin is None or origin[0] is node):
                kind = "direct" if decision.candidates else "none"
                origins.append(
                    SlotOrigin(
                        slot, sign, kind, decision.winners, decision.overridden
                    )
                )
            elif origin is not None and origin[0] is not node and sign != EPSILON:
                source_decision = recorder.decision_at(origin)
                origins.append(
                    SlotOrigin(
                        slot,
                        sign,
                        "inherited",
                        winners=(
                            list(source_decision.winners)
                            if source_decision is not None
                            else []
                        ),
                        overridden=(
                            list(source_decision.overridden)
                            if source_decision is not None
                            else []
                        ),
                        inherited_from=origin[0],
                    )
                )
            else:
                origins.append(
                    SlotOrigin(
                        slot, sign, "none" if sign == EPSILON else "direct"
                    )
                )
            if deciding is None and sign != EPSILON and sign == label.final:
                deciding = slot
        final_origin = recorder.final_origin.get(node)
        source_decision = recorder.decision_at(final_origin)
        winning = list(source_decision.winners) if source_decision else []
        blocked = recorder.blocked.get(node, ())
        own_weak, parent_instance = recorder.attr_inputs.get(
            node, (EPSILON, EPSILON)
        )
        weak_sign = first_def(label.LW, label.RW)
        weak_overridden = (
            weak_sign != EPSILON
            and final_origin is not None
            and final_origin[1] not in ("LW", "RW")
        )
        if isinstance(node, Attribute):
            node_kind = "attribute"
        elif isinstance(node, Element):
            node_kind = "element"
        else:
            node_kind = "value"
        own_visible = label.permitted_under(open_policy)
        in_view = visible_subtree.get(node, own_visible)
        explanations[node] = NodeExplanation(
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
            winning=winning,
            blocked=tuple(blocked),
            weak_overridden=weak_overridden,
            own_weak_sign=own_weak,
            parent_instance_sign=parent_instance,
        )
    return explanations


def _postorder(root: Element):
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        stack.append((node, True))
        if isinstance(node, Element):
            for child in reversed(node.children):
                stack.append((child, False))
            for attribute in reversed(list(node.attributes.values())):
                stack.append((attribute, False))
