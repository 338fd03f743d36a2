"""Authorization-checked application of update batches.

The enforcement rules (unchanged from the original write path):

- an operation may touch a node only if the node's **write label** is
  ``+`` — writes are always closed-policy: unlabeled means not
  writable, whatever the document's read policy;
- deleting or replacing a subtree requires every node in it to be
  writable — a requester must never destroy content that is hidden
  from them;
- inserting under an element requires the element itself to be
  writable, and a fresh attribute inherits its element's writability;
- the root element may not be deleted or replaced;
- operations apply to a clone of the stored document; if the document
  has a DTD, the result must still validate; only then does the caller
  commit (all-or-nothing semantics — readers of the old tree are never
  disturbed).

What is new is *how* labels are maintained: the engine works on a
:func:`~repro.update.relabel.clone_with_map` clone, keeps a
:class:`~repro.update.relabel.LabelState` that labels targets lazily,
and repairs exactly the edited subtree after each operation
(:meth:`LabelState.apply_delta`) — so mid-batch operations see labels
that reflect earlier edits, and the state can be reused across update
requests by rebasing instead of re-evaluating every authorization
path. When the policy cannot be rebound incrementally the engine falls
back to a full rebind per edit (correct, slower, reported via
``UpdateResult.incremental``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.authz.authorization import Authorization, Sign
from repro.authz.conflict import ConflictPolicy
from repro.core.explain import Provenance
from repro.dtd.validator import validate
from repro.errors import ReproError, ValidationError
from repro.limits import Deadline, ResourceLimits
from repro.obs.trace import span
from repro.subjects.hierarchy import SubjectHierarchy
from repro.update.ops import (
    DeleteNode,
    InsertChild,
    RemoveAttribute,
    ReplaceSubtree,
    SetAttribute,
    SetText,
    UpdateDenied,
    UpdateOperation,
    UpdateOutcome,
    UpdateRequest,
)
from repro.update.relabel import (
    EditDelta,
    IncrementalUnsupported,
    LabelState,
    clone_with_map,
)
from repro.xml.nodes import Document, Element, Node, Text
from repro.xml.parser import parse_fragment
from repro.xml.traversal import node_path, preorder
from repro.xpath.compile import RelativeMode, compile_xpath
from repro.xpath.evaluator import select

__all__ = ["UpdateEngine", "UpdateResult"]


@dataclass
class UpdateResult:
    """Everything one applied batch produced, pre-commit.

    ``document`` is the edited clone (the caller commits it);
    ``node_map`` maps old-tree nodes to their clones (for carrying
    oracle/cache state over); ``deltas`` describe each mutation in
    relabeler terms; ``state`` is the post-edit label state, reusable
    for the next batch against the committed tree.
    """

    document: Document
    outcome: UpdateOutcome
    deltas: tuple[EditDelta, ...]
    state: LabelState
    node_map: dict[Node, Node]
    incremental: bool


class UpdateEngine:
    """Checks and applies update batches against write labels."""

    def __init__(
        self,
        hierarchy: SubjectHierarchy,
        policy: Optional[ConflictPolicy] = None,
        relative_mode: RelativeMode = "descendant",
        validate_result: bool = True,
    ) -> None:
        self._hierarchy = hierarchy
        self._policy = policy
        self._relative_mode = relative_mode
        self._validate_result = validate_result

    def apply(
        self,
        document: Document,
        request: UpdateRequest,
        instance_auths,
        schema_auths,
    ) -> tuple[Document, UpdateOutcome]:
        """Enforce and apply *request* against *document*.

        Returns ``(new_document, outcome)``; *document* itself is never
        mutated. Raises :class:`UpdateDenied` when any operation touches
        a non-writable node and :class:`ValidationError` when the result
        would no longer conform to the document's DTD.
        """
        result = self.apply_full(document, request, instance_auths, schema_auths)
        return result.document, result.outcome

    def apply_full(
        self,
        document: Document,
        request: UpdateRequest,
        instance_auths,
        schema_auths,
        limits: Optional[ResourceLimits] = None,
        deadline: Optional[Deadline] = None,
        state: Optional[LabelState] = None,
        collect_admitted: bool = False,
    ) -> UpdateResult:
        """:meth:`apply` with the full relabeling machinery exposed.

        *state*, when given, must be a :class:`LabelState` bound to
        *document* (e.g. carried over from the previous committed
        batch); it is rebased onto the working clone instead of
        re-evaluating every authorization path. *collect_admitted*
        records, per authorized target, exactly which authorizations
        admitted the write (``outcome.admitted``).
        """
        with span("update.plan"):
            working, node_map = clone_with_map(document)
            if state is not None:
                state.rebase(working, node_map)
            else:
                state = self._build_state(
                    working, instance_auths, schema_auths, limits, deadline
                )
        reverse = {new: old for old, new in node_map.items()}
        max_steps = limits.max_xpath_steps if limits is not None else None
        admitted: Optional[list] = [] if collect_admitted else None
        deltas: list[EditDelta] = []
        incremental = state.stream_safe
        relabeled = 0
        touched = 0
        with span("update.apply"):
            for operation in request.operations:
                count, op_deltas = self._apply_one(
                    working, operation, state, reverse, admitted,
                    max_steps, deadline,
                )
                touched += count
                for delta in op_deltas:
                    deltas.append(delta)
                    try:
                        with span("update.relabel"):
                            relabeled += state.apply_delta(delta)
                    except IncrementalUnsupported:
                        # Full fallback: rebind everything against the
                        # edited tree. Correct for any policy, just not
                        # incremental. The rebind must not replay node-sets
                        # cached against this (now mutated) tree.
                        incremental = False
                        self._invalidate_compiled(instance_auths, schema_auths)
                        state = self._build_state(
                            working, instance_auths, schema_auths,
                            limits, deadline,
                        )
                if deadline is not None:
                    deadline.check("update batch")

        if self._validate_result and working.dtd is not None:
            with span("update.validate"):
                report = validate(working, working.dtd)
                if not report.valid:
                    raise ValidationError(report.violations)

        # The batch mutated `working` in place, but compiled XPaths cache
        # their most recent (context root, node-set) pair — and are shared
        # process-wide by source string. Drop those node-sets so any later
        # bind against the committed tree (full relabel, serving, the next
        # batch) re-evaluates instead of replaying pre-edit selections.
        self._invalidate_compiled(instance_auths, schema_auths)

        outcome = UpdateOutcome(
            applied=True,
            touched_nodes=touched,
            operations=len(request.operations),
            incremental=incremental,
            relabeled_nodes=relabeled,
            admitted=tuple(admitted) if admitted is not None else (),
        )
        return UpdateResult(
            document=working,
            outcome=outcome,
            deltas=tuple(deltas),
            state=state,
            node_map=node_map,
            incremental=incremental,
        )

    def _invalidate_compiled(self, instance_auths, schema_auths) -> None:
        """Drop cached node-sets of every authorization path.

        :class:`~repro.xpath.compile.CompiledXPath` memoizes its last
        (context root, result) pair per compiled path, and compiled paths
        are shared by source string. After an in-place edit the same
        document object no longer yields the same node-set, so the memo
        must go.
        """
        for authorization in (*instance_auths, *schema_auths):
            compiled = authorization.compiled_path(self._relative_mode)
            if compiled is not None:
                compiled.invalidate()

    def _build_state(
        self, working, instance_auths, schema_auths, limits, deadline
    ) -> LabelState:
        return LabelState.build(
            working,
            instance_auths,
            schema_auths,
            self._hierarchy,
            policy=self._policy,
            relative_mode=self._relative_mode,
            limits=limits,
            deadline=deadline,
        )

    # -- per-operation -----------------------------------------------------

    def _apply_one(
        self,
        working: Document,
        operation: UpdateOperation,
        state: LabelState,
        reverse: dict[Node, Node],
        admitted: Optional[list],
        max_steps: Optional[int],
        deadline: Optional[Deadline],
    ) -> tuple[int, list[EditDelta]]:
        targets = self._writable_targets(
            working, operation.target, state, admitted, max_steps, deadline
        )
        deltas: list[EditDelta] = []
        if isinstance(operation, SetAttribute):
            for element in targets:
                self._require_attribute_writable(element, operation.name, state)
                element.set_attribute(operation.name, operation.value)
                deltas.append(
                    EditDelta(
                        "set_attribute",
                        anchor=element,
                        dirty=element,
                        old_nodes=self._old_of(reverse, element),
                    )
                )
            return len(targets), deltas
        if isinstance(operation, RemoveAttribute):
            for element in targets:
                self._require_attribute_writable(element, operation.name, state)
                removed = element.attribute_node(operation.name)
                element.remove_attribute(operation.name)
                deltas.append(
                    EditDelta(
                        "remove_attribute",
                        anchor=element,
                        dirty=element,
                        removed=(removed,) if removed is not None else (),
                        old_nodes=self._old_of(reverse, element),
                    )
                )
            return len(targets), deltas
        if isinstance(operation, SetText):
            for element in targets:
                old_text = [
                    child for child in element.children if isinstance(child, Text)
                ]
                for child in old_text:
                    element.remove(child)
                element.insert(0, Text(operation.text))
                deltas.append(
                    EditDelta(
                        "set_text",
                        anchor=element,
                        dirty=element,
                        removed=tuple(old_text),
                        old_nodes=self._old_of(reverse, element),
                    )
                )
            return len(targets), deltas
        if isinstance(operation, InsertChild):
            for element in targets:
                fragment = parse_fragment(operation.fragment)
                if operation.position is None:
                    element.append(fragment)
                else:
                    element.insert(operation.position, fragment)
                deltas.append(
                    EditDelta("insert", anchor=element, dirty=fragment)
                )
            return len(targets), deltas
        if isinstance(operation, DeleteNode):
            for element in targets:
                self._require_subtree_writable(element, state)
                parent = element.parent
                if isinstance(parent, Document):
                    raise UpdateDenied("the root element may not be deleted")
                if isinstance(parent, Element):
                    parent.remove(element)
                    deltas.append(
                        EditDelta(
                            "delete",
                            anchor=parent,
                            removed=(element,),
                            old_nodes=self._old_of(reverse, element),
                        )
                    )
            return len(targets), deltas
        if isinstance(operation, ReplaceSubtree):
            for element in targets:
                self._require_subtree_writable(element, state)
                parent = element.parent
                if isinstance(parent, Document):
                    raise UpdateDenied("the root element may not be replaced")
                if not isinstance(parent, Element):
                    raise UpdateDenied(
                        f"cannot replace detached node {node_path(element)}"
                    )
                fragment = parse_fragment(operation.fragment)
                index = next(
                    i
                    for i, child in enumerate(parent.children)
                    if child is element
                )
                parent.remove(element)
                parent.insert(index, fragment)
                deltas.append(
                    EditDelta(
                        "replace",
                        anchor=parent,
                        dirty=fragment,
                        removed=(element,),
                        old_nodes=self._old_of(reverse, element),
                    )
                )
            return len(targets), deltas
        raise ReproError(f"unknown operation {type(operation).__name__}")

    @staticmethod
    def _old_of(reverse: dict[Node, Node], node: Node) -> tuple[Node, ...]:
        """The pre-update counterpart of *node*, when it existed before
        the batch (nodes created by an earlier operation have none)."""
        old = reverse.get(node)
        return (old,) if old is not None else ()

    # -- entitlement checks ---------------------------------------------------

    def _writable_targets(
        self,
        working: Document,
        target: str,
        state: LabelState,
        admitted: Optional[list],
        max_steps: Optional[int],
        deadline: Optional[Deadline],
    ) -> list[Element]:
        # Evaluated past the compiled path's node-set memo: earlier
        # operations in the batch may have mutated `working`, and the
        # memo, shared process-wide by source string, would pin this
        # clone once it becomes the committed tree.
        nodes = select(
            compile_xpath(target, self._relative_mode).ast,
            working,
            max_steps=max_steps,
            deadline=deadline,
        )
        elements: list[Element] = []
        for node in nodes:
            if not isinstance(node, Element):
                raise UpdateDenied(
                    f"update target {target!r} selected a non-element node "
                    f"at {node_path(node)}"
                )
            self._require_writable(node, state)
            if admitted is not None:
                admitted.append(
                    (node_path(node), self._admitting_authorizations(state, node))
                )
            elements.append(node)
        return elements

    def _require_writable(self, node: Node, state: LabelState) -> None:
        # Writes are closed-policy regardless of the document's read
        # policy: only an explicit '+' write label admits a mutation.
        if state.label(node).final != "+":
            raise UpdateDenied(f"no write authorization for {node_path(node)}")

    def _require_attribute_writable(
        self, element: Element, name: str, state: LabelState
    ) -> None:
        attribute = element.attribute_node(name)
        if attribute is not None:
            self._require_writable(attribute, state)
        # A new attribute inherits the element's writability, already
        # checked by _writable_targets.

    def _require_subtree_writable(
        self, element: Element, state: LabelState
    ) -> None:
        for node in preorder(element):
            self._require_writable(node, state)

    @staticmethod
    def _admitting_authorizations(
        state: LabelState, node: Node
    ) -> tuple[str, ...]:
        """Exactly which '+' authorizations decided *node*'s write label:
        the surviving authorizations of the slot its final sign came
        from, derived from the state's bins and label memo by a fresh
        :class:`~repro.core.explain.Provenance`, so nothing derived
        outlives an edit."""
        provenance = Provenance(state.labeler, state.labels)
        decision = provenance.decision_at(provenance.final_origin(node))
        if decision is None:
            return ()
        return tuple(
            authorization.unparse()
            for authorization in decision.winners
            if authorization.sign is Sign.PLUS
        )
