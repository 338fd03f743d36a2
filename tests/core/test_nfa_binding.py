"""Single-walk NFA binding vs the legacy per-authorization xpath scan.

``TreeLabeler._bin_authorizations`` now tries to bind every
authorization in one preorder walk driven by the shared
:class:`~repro.stream.paths.PatternDispatch` automaton, falling back to
the legacy per-auth ``xpath.eval`` loop whenever any path fails
*exact-mode* stream compilation. These tests pin the contract: both
binders must produce the same per-node slot bins **in the same order**
(binning order feeds conflict resolution), and therefore the same
final labels.

On an unbound labeler, ``run()`` goes further and binds *and* labels in
that one walk, with interned labels; a property holds it to the
per-node walk node for node — six slots, final sign and bins — under
every conflict policy, open and closed. The update path rebinds an
edited subtree with the same walk (``rebind_subtree``); the last
property holds it to ``bind()``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.authz.authorization import Authorization
from repro.authz.conflict import policy_by_name
from repro.core.labeling import TreeLabeler
from repro.core.prune import build_view
from repro.limits import Deadline
from repro.obs.trace import tracing
from repro.stream.paths import StreamPathUnsupported, compile_stream_pattern
from repro.subjects.hierarchy import SubjectHierarchy
from repro.workloads.generator import synthetic_authorizations, synthetic_document
from repro.xml.nodes import Element
from repro.xml.parser import parse_document, parse_fragment
from repro.xml.serializer import serialize
from repro.xml.traversal import preorder
from tests.core import strategies


def auth(path, sign, auth_type):
    # AuthObject notation is URI[:PE]; None means the bare-URI object,
    # which denotes the document root.
    obj = "d.xml" if path is None else f"d.xml:{path}"
    return Authorization.build(("Public", "*", "*"), obj, sign, auth_type)


def bind_both_ways(document, instance, schema):
    hierarchy = SubjectHierarchy()
    nfa = TreeLabeler(document, instance, schema, hierarchy)
    legacy = TreeLabeler(document, instance, schema, hierarchy)
    legacy.compile_dispatch = lambda: None  # force the per-auth xpath path
    nfa.bind()
    legacy.bind()
    used_nfa = nfa.compile_dispatch() is not None
    return nfa, legacy, used_nfa


def assert_equivalent(document, instance, schema, expect_nfa=None):
    nfa, legacy, used_nfa = bind_both_ways(document, instance, schema)
    if expect_nfa is not None:
        assert used_nfa is expect_nfa
    bins_nfa, bins_legacy = nfa.slot_bins(), legacy.slot_bins()
    assert set(bins_nfa) == set(bins_legacy)
    for node in bins_nfa:
        assert bins_nfa[node] == bins_legacy[node], node
    finals_legacy = legacy.run().labels
    # Bound labelers label node by node; a fresh one takes the fused
    # bind-and-label walk whenever the paths compile exactly.
    for labeler in (nfa, TreeLabeler(document, instance, schema, SubjectHierarchy())):
        finals = labeler.run().labels
        assert set(finals) == set(finals_legacy)
        for node in finals:
            assert finals[node].final == finals_legacy[node].final


class TestSyntheticWorkloads:
    @pytest.mark.parametrize("seed", range(6))
    def test_bins_and_finals_match_legacy(self, seed):
        document = synthetic_document(nodes=300, seed=seed)
        instance, schema = synthetic_authorizations(
            document, count=10, seed=seed * 7 + 1,
            dtd_uri="d.dtd", schema_share=0.3,
        )
        assert_equivalent(document, instance, schema)


DOC = (
    '<lab name="x"><project type="public"><paper cat="private">'
    "<title>S</title></paper><paper cat='public'/></project>"
    '<project type="internal"/></lab>'
)

EXACT_CASES = [
    [("//paper[./@cat='private']", "-", "R")],
    [("//project/@type", "+", "L")],
    [("//project/@*", "-", "LW")],
    [(None, "+", "R")],  # bare URI: binds the root
    [("/lab/project", "+", "L"), ("//paper", "-", "RW")],
    [("//paper/@cat | //title", "+", "R")],
    [("/lab//title", "+", "R")],
    [("//project[./@type='public']//title", "+", "R")],
]

LOSSY_CASES = [
    [("//title/text()", "+", "R")],
    [("//comment()", "-", "L")],
    [("//node()", "+", "R")],
    [("/", "+", "R")],
    [("//paper[1]", "+", "R")],
]


class TestHandWrittenCases:
    @pytest.mark.parametrize("case", EXACT_CASES, ids=range(len(EXACT_CASES)))
    def test_exact_paths_bind_via_nfa(self, case):
        document = parse_document(DOC, uri="d.xml")
        auths = [auth(path, sign, slot) for path, sign, slot in case]
        assert_equivalent(document, auths, [], expect_nfa=True)

    @pytest.mark.parametrize("case", LOSSY_CASES, ids=range(len(LOSSY_CASES)))
    def test_lossy_paths_fall_back_and_still_agree(self, case):
        document = parse_document(DOC, uri="d.xml")
        auths = [auth(path, sign, slot) for path, sign, slot in case]
        assert_equivalent(document, auths, [], expect_nfa=False)


class TestExactModeCompilation:
    """exact=True must reject exactly the paths whose stream semantics
    diverge from ``xpath.eval`` — anything not selecting elements or
    attributes by a final child/descendant/attribute step."""

    @pytest.mark.parametrize(
        "path",
        ["//paper", "/lab/project", "//project/@type", "//paper/@*",
         "//a//b", "//paper[./@cat='x']", "//title/self::node()"],
    )
    def test_accepts(self, path):
        compile_stream_pattern(path, exact=True)

    @pytest.mark.parametrize(
        "path",
        ["//title/text()", "//comment()", "//node()", "/", "/self::node()"],
    )
    def test_rejects(self, path):
        with pytest.raises(StreamPathUnsupported):
            compile_stream_pattern(path, exact=True)

    @pytest.mark.parametrize(
        "path", ["//title/text()", "//node()", "//comment()"]
    )
    def test_non_exact_mode_still_accepts_lossy(self, path):
        compile_stream_pattern(path, exact=False)


class TestFusedRun:
    """``run()`` on a fresh labeler vs ``bind()`` + the per-node walk."""

    @pytest.mark.parametrize("open_policy", [False, True], ids=["closed", "open"])
    @pytest.mark.parametrize("policy_name", strategies.CONFLICT_POLICIES)
    @given(
        document=strategies.documents(),
        pairs=st.lists(strategies.authorizations(), max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_walk_matches_per_node_walk(
        self, policy_name, open_policy, document, pairs
    ):
        instance, schema = strategies.split(pairs)
        hierarchy = strategies.hierarchy()

        def labeler():
            return TreeLabeler(
                document, instance, schema, hierarchy,
                policy=policy_by_name(policy_name),
            )

        fused_labeler = labeler()
        with tracing() as tracer:
            fused = fused_labeler.run()
        # One walk: no separate binding pass ran.
        assert "label.bind" not in {s.name for s in tracer.spans}
        per_node_labeler = labeler().bind()
        per_node = per_node_labeler.run()

        assert set(fused.labels) == set(per_node.labels)
        for node, label in fused.labels.items():
            expected = per_node.labels[node]
            assert label.as_tuple() == expected.as_tuple(), node
            assert label.final == expected.final, node
        assert fused.labeled_nodes == per_node.labeled_nodes
        assert fused_labeler.slot_bins() == per_node_labeler.slot_bins()
        views = [
            serialize(build_view(document, result.labels, open_policy))
            for result in (fused, per_node)
        ]
        assert views[0] == views[1]


class TestRebindSubtree:
    """``rebind_subtree`` restores exactly the bins ``bind()`` made."""

    @given(
        document=strategies.documents(),
        pairs=st.lists(strategies.authorizations(), max_size=8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rebind_restores_bind(self, document, pairs, data):
        instance, schema = strategies.split(pairs)
        labeler = TreeLabeler(
            document, instance, schema, strategies.hierarchy()
        ).bind()
        expected = {
            node: {slot: list(auths) for slot, auths in slots.items()}
            for node, slots in labeler.slot_bins().items()
        }
        automaton = labeler.compile_dispatch()
        elements = [
            node for node in preorder(document.root) if isinstance(node, Element)
        ]
        memo: dict = {}
        # First with an empty memo, then with the one the first rebind
        # left behind; the subtree's bins go stale each time.
        for _ in range(2):
            root = data.draw(st.sampled_from(elements))
            bins = labeler.slot_bins()
            for node in preorder(root):
                bins[node] = {"L": []}
            labeler.rebind_subtree(root, automaton, memo)
            # List equality: the slot lists come back in bind()'s order.
            assert labeler.slot_bins() == expected

    def test_rebind_ignores_the_labelers_expired_deadline(self):
        # A labeler kept across requests holds the deadline of the one
        # that built it; a later rebind must not trip on it.
        document = parse_document("<lab><project/></lab>", uri="d.xml")
        labeler = TreeLabeler(
            document,
            [auth("//paper", "+", "R")],
            [],
            SubjectHierarchy(),
            deadline=Deadline.after(0.0),
        ).bind()
        big = parse_fragment("<list>" + "<paper/>" * 3000 + "</list>")
        document.root.append(big)
        labeler.rebind_subtree(big, labeler.compile_dispatch())
        assert len(labeler.slot_bins()) == 3000
