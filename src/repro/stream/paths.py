"""Compile authorization path expressions into streaming matchers.

The DOM pipeline evaluates each authorization's XPath against the
materialized tree. Here the same expressions compile into NFA-style
position automata evaluated per :class:`StartElement` event — the same
set-of-states technique as the Glushkov automata in
:mod:`repro.dtd.content_model`, applied to location paths (cf. Mahfoud
& Imine's rewriting approach to securely querying XML views).

A compiled :class:`PathProgram` is a sequence of steps of two kinds:

- an *element step* (``child::name`` / ``child::*``, with optional
  attribute predicates), which consumes one tree level;
- a *descendant glue* step (``descendant-or-self::node()``, written
  ``//``), which may consume any number of levels, including zero.

A state is a set of step positions; entering an element advances the
parent's set, ε-closing through glue steps — so ``/a//@id`` correctly
selects ``a``'s own attributes (the "self" case of ``//``) as well as
every descendant's. Matching one element costs O(states), independent
of document size.

Only the subset actually used by authorization objects is streamable:
child/descendant name tests, attribute tails, and attribute-comparison
predicates. Anything else (ancestor axes, positional predicates,
functions...) raises :class:`StreamPathUnsupported`; the server facade
falls back to the DOM pipeline, so unsupported policies stay *correct*,
just not streamed.

Node tests that can only select text or comment nodes compile to a
null program on purpose: authorizations binned on such nodes have no
effect on a view in the DOM pipeline either (value visibility always
follows the parent element's final sign), so dropping them preserves
the served bytes. It does not preserve labels — the DOM evaluator does
bin such an authorization on the text node — so the DOM side compiles
in *exact* mode (:func:`compile_stream_pattern`), which rejects every
path the matcher represents lossily.

Patterns are never stepped one by one. :class:`PatternDispatch` joins
every pattern of a policy into one lazily built DFA, and both labelers
walk it: :class:`repro.stream.labeler.StreamLabeler` event by event,
:class:`repro.core.labeling.TreeLabeler` node by node — to bind a whole
tree, or to rebind just the subtree an update edited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Union

from repro.errors import ReproError
from repro.xpath.ast import (
    Axis,
    BinaryExpr,
    Expr,
    Literal,
    LocationPath,
    NodeTestKind,
    Step,
    UnionExpr,
)
from repro.xpath.compile import RelativeMode, compile_xpath

__all__ = [
    "StreamPathUnsupported",
    "AttrPredicate",
    "ElementStep",
    "DESCENDANT_GLUE",
    "PathProgram",
    "StreamPattern",
    "PatternDispatch",
    "DispatchNode",
    "compile_stream_pattern",
]


class StreamPathUnsupported(ReproError):
    """The expression falls outside the streamable XPath subset."""


@dataclass(frozen=True)
class AttrPredicate:
    """``[@name]``, ``[./@name = "v"]`` or ``[@name != "v"]``.

    *name* ``None`` means ``@*``. *op* ``None`` is a bare existence
    test. Comparison semantics follow the evaluator's node-set rules:
    ``=`` holds iff a matching attribute exists with that exact value,
    ``!=`` iff one exists with a different value.
    """

    name: Optional[str]
    op: Optional[str] = None
    value: Optional[str] = None

    def matches(self, attributes: dict[str, str]) -> bool:
        if self.name is not None:
            if self.name not in attributes:
                return False
            candidates = (attributes[self.name],)
        else:
            if not attributes:
                return False
            candidates = tuple(attributes.values())
        if self.op is None:
            return True
        if self.op == "=":
            return any(value == self.value for value in candidates)
        return any(value != self.value for value in candidates)


@dataclass(frozen=True)
class ElementStep:
    """One ``child::`` step: name test (``None`` = wildcard) plus
    attribute predicates (all must hold)."""

    name: Optional[str]
    predicates: tuple[AttrPredicate, ...] = ()


class _Glue:
    """Sentinel for a ``descendant-or-self::node()`` step."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "//"


DESCENDANT_GLUE = _Glue()

_StepT = Union[ElementStep, _Glue]


@dataclass(frozen=True)
class _AttrTail:
    """A trailing ``@name`` / ``@*`` step selecting attributes."""

    name: Optional[str]


@dataclass
class PathProgram:
    """One compiled location path.

    A state is a frozenset of positions into *steps*; position
    ``len(steps)`` is the accepting position. A null program (a path
    that can never select an element or attribute) has ``null`` set and
    empty machinery.
    """

    steps: tuple[_StepT, ...] = ()
    attr: Optional[_AttrTail] = None
    null: bool = False

    _EMPTY: frozenset = frozenset()

    def initial(self) -> frozenset:
        """The document node's state, before any element."""
        if self.null:
            return self._EMPTY
        return self._closure({0})

    def _closure(self, positions: set) -> frozenset:
        """ε-closure: glue steps also match the empty descent."""
        pending = list(positions)
        out = set(positions)
        steps = self.steps
        while pending:
            position = pending.pop()
            if position < len(steps) and steps[position] is DESCENDANT_GLUE:
                nxt = position + 1
                if nxt not in out:
                    out.add(nxt)
                    pending.append(nxt)
        return frozenset(out)


#: ``/*`` — what a bare-URI authorization object denotes (the document's
#: root element; DESIGN.md decision 4).
ROOT_PROGRAM = PathProgram(steps=(ElementStep(None),))

_NULL = PathProgram(null=True)


@dataclass
class StreamPattern:
    """The compiled form of one authorization object's path."""

    source: Optional[str]
    programs: list[PathProgram] = field(default_factory=list)


#: Per-node transition-memo cap. Nodes (interned state tuples) are
#: bounded by the reachable subset construction, but *transitions* are
#: keyed by element name and would otherwise grow with the document's
#: vocabulary — a streamed document must not accumulate O(distinct
#: names) memory. Past the cap, lookups still work; they just recompute.
_TRANS_CACHE_CAP = 4096


class DispatchNode:
    """One interned joint state of every compiled program.

    ``states`` is the flat tuple of per-program NFA states (one
    frozenset per program, across all patterns in pattern order).
    Everything an element event needs is precomputed at interning time:

    - ``accepts`` — indices of the *patterns* (not programs) whose
      element part selects a node in this state, in pattern order — the
      same order the labelers bin authorizations in;
    - ``attr_entries`` — ``(pattern_index, tail_names)`` pairs for the
      patterns with an active attribute tail here (``None`` in
      *tail_names* is ``@*``);
    - ``preds`` / ``pred_bit`` — the distinct attribute predicates any
      outgoing transition depends on, and their bit positions in the
      transition-key mask;
    - ``trans`` — the memoized ``(child_name, predicate_mask)`` →
      :class:`DispatchNode` transitions.

    Nodes compare and hash by identity; the dispatch interns them so
    identical joint states are the same object.
    """

    __slots__ = ("states", "preds", "pred_bit", "trans", "accepts", "attr_entries")

    def __init__(self, states: tuple) -> None:
        self.states = states
        self.trans: dict = {}
        self.preds: tuple = ()
        self.pred_bit: dict = {}
        self.accepts: tuple = ()
        self.attr_entries: tuple = ()


class PatternDispatch:
    """A lazily-built DFA over the joint state of many patterns.

    The per-element work of the streaming labeler — advance every
    pattern's NFA, collect accepting patterns, collect active attribute
    tails — collapses to one dict lookup per element once a transition
    is warm: ``(name, predicate_mask)`` → child node, where the mask
    packs the outcomes of the few attribute predicates this state
    actually depends on (``0`` when the element has no attributes,
    since no predicate matches an empty attribute set).

    The same object drives both backends: the streaming labeler walks
    it event-by-event and :class:`repro.core.labeling.TreeLabeler` walks
    it node-by-node, so one construction binds authorizations for
    either pipeline.
    """

    __slots__ = ("_programs", "_nodes", "initial")

    def __init__(self, patterns: list[StreamPattern]) -> None:
        self._programs: list[tuple[int, PathProgram]] = [
            (index, program)
            for index, pattern in enumerate(patterns)
            for program in pattern.programs
        ]
        self._nodes: dict[tuple, DispatchNode] = {}
        self.initial = self._intern(
            tuple(program.initial() for _, program in self._programs)
        )

    def advance(
        self, node: DispatchNode, name: str, attributes: dict[str, str]
    ) -> DispatchNode:
        """The child node entered from *node* by an element event."""
        mask = 0
        if attributes and node.preds:
            for bit, predicate in enumerate(node.preds):
                if predicate.matches(attributes):
                    mask |= 1 << bit
        key = (name, mask)
        child = node.trans.get(key)
        if child is None:
            child = self._build(node, name, mask)
            if len(node.trans) < _TRANS_CACHE_CAP:
                node.trans[key] = child
        return child

    def _build(self, node: DispatchNode, name: str, mask: int) -> DispatchNode:
        pred_bit = node.pred_bit
        new_states = []
        for (_, program), states in zip(self._programs, node.states):
            out: set[int] = set()
            steps = program.steps
            for position in states:
                if position >= len(steps):
                    continue
                step = steps[position]
                if step is DESCENDANT_GLUE:
                    out.add(position)  # position+1 came from the ε-closure
                    continue
                if step.name is not None and step.name != name:
                    continue
                for predicate in step.predicates:
                    if not (mask >> pred_bit[predicate]) & 1:
                        break
                else:
                    out.add(position + 1)
            new_states.append(program._closure(out))
        return self._intern(tuple(new_states))

    def _intern(self, states: tuple) -> DispatchNode:
        node = self._nodes.get(states)
        if node is not None:
            return node
        node = DispatchNode(states)
        self._nodes[states] = node
        preds: list[AttrPredicate] = []
        pred_bit: dict[AttrPredicate, int] = {}
        accepts: list[int] = []
        attr_tails: dict[int, list] = {}
        for (pattern_index, program), state in zip(self._programs, states):
            accepting = len(program.steps) in state
            if accepting:
                if program.attr is None:
                    if not accepts or accepts[-1] != pattern_index:
                        accepts.append(pattern_index)
                else:
                    tails = attr_tails.setdefault(pattern_index, [])
                    if program.attr.name not in tails:
                        tails.append(program.attr.name)
            for position in state:
                if position >= len(program.steps):
                    continue
                step = program.steps[position]
                if step is not DESCENDANT_GLUE:
                    for predicate in step.predicates:
                        if predicate not in pred_bit:
                            pred_bit[predicate] = len(preds)
                            preds.append(predicate)
        node.preds = tuple(preds)
        node.pred_bit = pred_bit
        node.accepts = tuple(accepts)
        node.attr_entries = tuple(
            (pattern_index, tuple(tails))
            for pattern_index, tails in attr_tails.items()
        )
        return node


def compile_stream_pattern(
    path: Optional[str],
    relative_mode: RelativeMode = "descendant",
    exact: bool = False,
) -> StreamPattern:
    """Compile an authorization path for streaming evaluation.

    ``None`` (a bare-URI object) denotes the document's root element.
    Raises :class:`StreamPathUnsupported` for expressions outside the
    streamable subset.

    With ``exact=True`` the compilation additionally rejects paths the
    stream matcher represents *lossily* rather than equivalently —
    paths whose final selecting step could bind text, comment or
    document nodes under the XPath evaluator (``text()``/``comment()``/
    ``node()`` tests on the child or descendant axes, bare ``/``,
    trailing ``//`` or ``.``). For a pattern compiled exactly, the set
    of element/attribute nodes the matcher accepts equals the node-set
    ``Authorization.select_nodes`` would bin — which is what lets
    :class:`repro.core.labeling.TreeLabeler` bind every authorization
    in one tree walk instead of one XPath evaluation each.
    """
    if path is None:
        return StreamPattern(source=None, programs=[ROOT_PROGRAM])
    return _compile_cached(path, relative_mode, exact)


@lru_cache(maxsize=1024)
def _compile_cached(
    path: str, relative_mode: RelativeMode, exact: bool
) -> StreamPattern:
    # compile_xpath parses (with its own memoization) and applies the
    # same relative-path anchoring as the DOM pipeline, so both backends
    # see the identical AST.
    ast = compile_xpath(path, relative_mode).ast
    parts = _union_parts(ast, path)
    if exact:
        for part in parts:
            _check_exact(part, path)
    programs = [_compile_path(part, path) for part in parts]
    return StreamPattern(source=path, programs=programs)


def _check_exact(ast: Expr, source: str) -> None:
    """Reject a union part whose stream compilation would be lossy.

    Only the *final selecting step* can diverge: intermediate
    ``text()``/``comment()`` steps make the whole path select nothing
    under both engines (such nodes have no children), and intermediate
    ``node()`` tests behave like ``*`` because only elements have
    children. A final step, though, decides what gets binned — so it
    must provably select only elements (child/descendant axis with a
    name or ``*`` test) or only attributes (the attribute axis, whose
    principal node type filters everything else out).
    """
    if not isinstance(ast, LocationPath):
        raise StreamPathUnsupported(
            f"cannot stream {type(ast).__name__} expression {source!r}"
        )
    steps = list(ast.steps)
    # Trailing self::node() steps are ε: they keep the previous step's
    # selection. (Self steps with other tests are rejected downstream.)
    while (
        steps
        and steps[-1].axis is Axis.SELF
        and steps[-1].test.kind is NodeTestKind.NODE
        and not steps[-1].predicates
    ):
        steps.pop()
    if not steps:
        raise StreamPathUnsupported(
            f"cannot bind {source!r} exactly: selects the document node"
        )
    last = steps[-1]
    if last.axis is Axis.ATTRIBUTE:
        return
    if last.axis in (Axis.CHILD, Axis.DESCENDANT) and last.test.kind in (
        NodeTestKind.NAME,
        NodeTestKind.WILDCARD,
    ):
        return
    raise StreamPathUnsupported(
        f"cannot bind {source!r} exactly: the final step may select "
        "non-element nodes"
    )


def _union_parts(ast: Expr, source: str) -> list[Expr]:
    if isinstance(ast, UnionExpr):
        return list(ast.parts)
    return [ast]


def _compile_path(ast: Expr, source: str) -> PathProgram:
    if not isinstance(ast, LocationPath):
        raise StreamPathUnsupported(
            f"cannot stream {type(ast).__name__} expression {source!r}"
        )
    steps: list[_StepT] = []
    attr: Optional[_AttrTail] = None
    for index, step in enumerate(ast.steps):
        last = index == len(ast.steps) - 1
        if attr is not None:
            # Attributes are terminal; nothing may follow.
            raise StreamPathUnsupported(
                f"step after attribute step in {source!r}"
            )
        if step.axis is Axis.DESCENDANT_OR_SELF:
            if step.test.kind is not NodeTestKind.NODE or step.predicates:
                raise StreamPathUnsupported(
                    f"cannot stream predicated descendant-or-self in {source!r}"
                )
            steps.append(DESCENDANT_GLUE)
            continue
        if step.axis is Axis.DESCENDANT:
            steps.append(DESCENDANT_GLUE)
            element = _element_step(step, source)
            if element is None:  # text()/comment(): nothing selectable
                return _NULL
            steps.append(element)
            continue
        if step.axis is Axis.CHILD:
            element = _element_step(step, source)
            if element is None:
                return _NULL
            steps.append(element)
            continue
        if step.axis is Axis.SELF:
            # self::node() consumes nothing — an ε-step ('.' in a path).
            if step.test.kind is NodeTestKind.NODE and not step.predicates:
                continue
            raise StreamPathUnsupported(
                f"cannot stream self step with a test in {source!r}"
            )
        if step.axis is Axis.ATTRIBUTE:
            if step.predicates:
                raise StreamPathUnsupported(
                    f"cannot stream predicated attribute step in {source!r}"
                )
            if not last:
                raise StreamPathUnsupported(
                    f"step after attribute step in {source!r}"
                )
            if step.test.kind is NodeTestKind.NAME:
                attr = _AttrTail(step.test.name)
            elif step.test.kind in (NodeTestKind.WILDCARD, NodeTestKind.NODE):
                attr = _AttrTail(None)
            else:  # text()/comment() on the attribute axis: empty set
                return _NULL
            continue
        raise StreamPathUnsupported(
            f"cannot stream axis {step.axis.value!r} in {source!r}"
        )
    return PathProgram(steps=tuple(steps), attr=attr)


def _element_step(step: Step, source: str) -> Optional[ElementStep]:
    """An :class:`ElementStep` for a child/descendant step, or ``None``
    when the node test can only select text/comment nodes (whose labels
    never affect the view)."""
    kind = step.test.kind
    if kind in (NodeTestKind.TEXT, NodeTestKind.COMMENT):
        return None
    if kind is NodeTestKind.NAME:
        name = step.test.name
    elif kind in (NodeTestKind.WILDCARD, NodeTestKind.NODE):
        name = None
    else:  # pragma: no cover - exhaustive over NodeTestKind
        raise StreamPathUnsupported(f"cannot stream node test in {source!r}")
    predicates = tuple(
        _attr_predicate(predicate, source) for predicate in step.predicates
    )
    return ElementStep(name=name, predicates=predicates)


def _attr_predicate(predicate: Expr, source: str) -> AttrPredicate:
    if isinstance(predicate, LocationPath):
        name = _attr_path_name(predicate)
        if name is not _UNSUPPORTED:
            return AttrPredicate(name=name)
    if isinstance(predicate, BinaryExpr) and predicate.op in ("=", "!="):
        left, right = predicate.left, predicate.right
        if isinstance(right, Literal) and isinstance(left, LocationPath):
            path, literal = left, right
        elif isinstance(left, Literal) and isinstance(right, LocationPath):
            path, literal = right, left
        else:
            raise StreamPathUnsupported(
                f"cannot stream predicate in {source!r}"
            )
        name = _attr_path_name(path)
        if name is not _UNSUPPORTED:
            return AttrPredicate(name=name, op=predicate.op, value=literal.value)
    raise StreamPathUnsupported(f"cannot stream predicate in {source!r}")


_UNSUPPORTED = object()


def _attr_path_name(path: LocationPath):
    """The attribute name of an ``@k`` / ``./@k`` predicate path.

    Returns ``None`` for ``@*``, or :data:`_UNSUPPORTED` when the path
    is not a pure own-attribute reference.
    """
    if path.absolute:
        return _UNSUPPORTED
    steps = path.steps
    if len(steps) == 2:
        first = steps[0]
        if not (
            first.axis is Axis.SELF
            and first.test.kind is NodeTestKind.NODE
            and not first.predicates
        ):
            return _UNSUPPORTED
        steps = steps[1:]
    if len(steps) != 1:
        return _UNSUPPORTED
    step = steps[0]
    if step.axis is not Axis.ATTRIBUTE or step.predicates:
        return _UNSUPPORTED
    if step.test.kind is NodeTestKind.NAME:
        return step.test.name
    if step.test.kind in (NodeTestKind.WILDCARD, NodeTestKind.NODE):
        return None
    return _UNSUPPORTED
