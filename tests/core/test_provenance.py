"""Differential tests for derived provenance and the explain engine.

The acceptance bar: re-deriving visibility from an :class:`Explanation`
alone must reproduce ``LabelingResult.final`` for 100 % of nodes, under
all four conflict policies, over generated corpora — every non-ε final
must name the winning authorizations (or its propagation source), and
explaining one node must say exactly what the whole-document
explanation says about it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.authz.authorization import Authorization
from repro.authz.conflict import (
    EPSILON,
    DenialsTakePrecedence,
    MajorityTakesPrecedence,
    NothingTakesPrecedence,
    PermissionsTakePrecedence,
    policy_by_name,
)
from repro.authz.store import AuthorizationStore
from repro.core.explain import (
    Explanation,
    Provenance,
    explain,
    explain_from_auths,
    explain_view,
)
from repro.core.labeling import TreeLabeler
from repro.core.view import compute_view_from_auths
from repro.subjects.hierarchy import Requester
from repro.workloads.generator import build_workload
from repro.workloads.scenarios import lab_scenario
from repro.xml.parser import parse_document
from repro.xml.traversal import preorder
from repro.xpath.evaluator import select
from tests.core import strategies

ALL_POLICIES = [
    DenialsTakePrecedence,
    PermissionsTakePrecedence,
    NothingTakesPrecedence,
    MajorityTakesPrecedence,
]


def _assert_rederivation_matches(workload, policy):
    plain = TreeLabeler(
        workload.document,
        workload.instance_auths,
        workload.schema_auths,
        workload.store.hierarchy,
        policy=policy,
    ).run()
    explanation = explain_from_auths(
        workload.document,
        workload.instance_auths,
        workload.schema_auths,
        workload.store.hierarchy,
        policy=policy,
    )
    assert len(explanation) == len(plain.labels)
    mismatches = [
        explanation[node].path
        for node in plain.labels
        if explanation.rederive_final(node) != plain.labels[node].final
    ]
    assert mismatches == []
    # The recorded final agrees with the labeler too (sanity on the
    # assembly itself, not just the re-derivation formula).
    assert all(
        explanation[node].final == plain.labels[node].final
        for node in plain.labels
    )
    return explanation, plain


class TestDifferentialRederivation:
    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_generated_corpus_all_policies(self, policy_cls, seed):
        workload = build_workload(nodes=400, auth_count=24, seed=seed)
        _assert_rederivation_matches(workload, policy_cls())

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_lab_scenario_all_policies(self, policy_cls):
        s = lab_scenario()

        class _W:
            document = s.document
            instance_auths = s.store.applicable(s.tom, s.document.uri, "read")
            schema_auths = s.store.applicable(
                s.tom, s.document.system_id or "", "read"
            )
            store = s.store

        _assert_rederivation_matches(_W, policy_cls())

    @pytest.mark.parametrize("open_policy", [False, True])
    def test_in_view_matches_pruned_view_counts(self, open_policy):
        workload = build_workload(nodes=350, auth_count=20, seed=3)
        view = compute_view_from_auths(
            workload.document,
            workload.instance_auths,
            workload.schema_auths,
            workload.store.hierarchy,
            open_policy=open_policy,
        )
        explanation = explain_from_auths(
            workload.document,
            workload.instance_auths,
            workload.schema_auths,
            workload.store.hierarchy,
            open_policy=open_policy,
        )
        assert explanation.visible_nodes == view.visible_nodes

    def test_every_decided_node_names_its_source(self):
        workload = build_workload(nodes=400, auth_count=24, seed=11)
        explanation = explain_from_auths(
            workload.document,
            workload.instance_auths,
            workload.schema_auths,
            workload.store.hierarchy,
        )
        for node in explanation:
            ne = explanation[node]
            if ne.final == EPSILON:
                continue
            assert ne.source_path is not None, ne.path
            assert ne.source_slot is not None, ne.path
            assert ne.winning, f"{ne.path} has no winning authorization"


class TestRecorderSemantics:
    URI = "d.xml"

    def _explain(self, xml, *auths, requester=None, hierarchy=None):
        from repro.authz.store import AuthorizationStore
        from repro.subjects.hierarchy import Requester

        document = parse_document(xml, uri=self.URI)
        store = AuthorizationStore(hierarchy) if hierarchy else None
        if store is None:
            from repro.authz.store import AuthorizationStore as _S

            store = _S()
        store.add_all(auths)
        return document, explain_view(
            document, requester or Requester(), store
        )

    def test_recursive_blocking_recorded(self):
        document, report = self._explain(
            "<a><b/></a>",
            Authorization.build("Public", f"{self.URI}://a", "-", "R"),
            Authorization.build("Public", f"{self.URI}://b", "+", "RW"),
        )
        b = select("//b", document)[0]
        ne = report[b]
        assert ne.final == "+"
        assert ne.blocked == ("R",)
        assert "blocked the parent's recursive sign" in ne.describe()

    def test_weak_override_flagged(self):
        document, report = self._explain(
            "<a><b/></a>",
            Authorization.build("Public", f"{self.URI}://b", "+", "RW"),
            Authorization.build("Public", f"{self.URI}://b", "-", "L"),
        )
        b = select("//b", document)[0]
        ne = report[b]
        assert ne.final == "-"
        assert ne.weak_overridden
        assert ne.source_slot == "L"

    def test_exact_propagation_source_deep_chain(self):
        document, report = self._explain(
            "<a><b><c><d/></c></b></a>",
            Authorization.build("Public", f"{self.URI}://a", "+", "R"),
            Authorization.build("Public", f"{self.URI}://c", "-", "R"),
        )
        b, c, d = (select(f"//{name}", document)[0] for name in "bcd")
        # b inherits from a; d inherits from c (not a — the override cuts
        # the chain, exactly).
        b_origin = next(o for o in report[b].origins if o.slot == "R")
        assert b_origin.inherited_from.name == "a"
        d_origin = next(o for o in report[d].origins if o.slot == "R")
        assert d_origin.inherited_from.name == "c"
        assert report[d].final == "-"
        assert report[d].source_path.endswith("/c")

    def test_attribute_parent_instance_source(self):
        document, report = self._explain(
            '<a k="v"><b/></a>',
            Authorization.build("Public", f"{self.URI}://a", "+", "L"),
        )
        attr = select("//a/@k", document)[0]
        ne = report[attr]
        assert ne.final == "+"
        assert ne.node_kind == "attribute"
        assert ne.parent_instance_sign == "+"
        assert ne.source_path == "/a"
        assert ne.source_slot == "L"
        assert ne.winning  # names the parent's authorization
        assert report.rederive_final(attr) == "+"

    def test_value_nodes_follow_parent(self):
        document, report = self._explain(
            "<a><b>text</b></a>",
            Authorization.build("Public", f"{self.URI}://b", "+", "R"),
        )
        b = select("//b", document)[0]
        text = b.children[0]
        assert report[text].final == "+"
        assert report[text].node_kind == "value"
        assert report.rederive_final(text) == "+"
        assert report[text].source_path == report[b].source_path

    def test_conflict_candidates_and_verdict_recorded(self):
        document = parse_document("<a><b/></a>", uri=self.URI)
        plus = Authorization.build("Public", f"{self.URI}://b", "+", "R")
        minus = Authorization.build("Public", f"{self.URI}://b", "-", "R")
        store = AuthorizationStore()
        store.add_all([plus, minus])
        labeler = TreeLabeler(
            document,
            [plus, minus],
            [],
            store.hierarchy,
            policy=NothingTakesPrecedence(),
        )
        provenance = Provenance(labeler, labeler.run().labels)
        b = select("//b", document)[0]
        decision = provenance.decisions(b)["R"]
        assert decision.sign == EPSILON  # the conflict dissolved
        assert len(decision.candidates) == 2
        assert plus in decision.candidates and minus in decision.candidates
        assert decision.overridden == []  # same subject: both survive
        assert provenance.origins(b) == {}
        assert provenance.final_origin(b) is None
        # Every node is derivable, and nothing here decided a sign.
        assert [
            provenance.final_origin(node) for node in preorder(document.root)
        ] == [None, None]


class TestExplanationRendering:
    def test_as_dict_and_json_round_trip(self):
        import json

        workload = build_workload(nodes=120, auth_count=10, seed=4)
        explanation = explain_from_auths(
            workload.document,
            workload.instance_auths,
            workload.schema_auths,
            workload.store.hierarchy,
            uri="w.xml",
            requester="someone",
        )
        data = json.loads(explanation.to_json())
        assert data["uri"] == "w.xml"
        assert data["total_nodes"] == len(explanation)
        assert len(data["nodes"]) == len(explanation)
        assert data["visible_nodes"] == explanation.visible_nodes

    def test_describe_targets_subset(self):
        s = lab_scenario()
        explanation = explain_view(s.document, s.tom, s.store)
        node = select("/laboratory/project[1]/paper[1]", s.document)[0]
        explanation.targets = [node]
        text = explanation.describe()
        assert "explanation for" in text
        assert explanation[node].path in text
        assert len(explanation.target_explanations) == 1


ALICE = Requester("alice", "10.0.0.1", "pc.props.example")


class TestDerivedProvenanceProperty:
    """Explaining one node agrees with the whole-document explanation,
    and both agree with the plain labeler, for every node."""

    @pytest.mark.parametrize("open_policy", [False, True])
    @pytest.mark.parametrize("policy_name", strategies.CONFLICT_POLICIES)
    @given(
        document=strategies.documents(),
        pairs=st.lists(strategies.authorizations(), max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_single_node_explain_matches_whole_document(
        self, policy_name, open_policy, document, pairs
    ):
        store = AuthorizationStore(strategies.hierarchy())
        store.add_all(authorization for authorization, _ in pairs)
        instance = store.applicable(ALICE, strategies.URI, "read")
        schema = store.applicable(ALICE, strategies.DTD_URI, "read")
        plain = TreeLabeler(
            document,
            instance,
            schema,
            store.hierarchy,
            policy=policy_by_name(policy_name),
        ).run()
        whole = explain_from_auths(
            document,
            instance,
            schema,
            store.hierarchy,
            policy=policy_by_name(policy_name),
            open_policy=open_policy,
        )
        assert len(whole) == len(plain.labels)
        for node, label in plain.labels.items():
            assert whole.rederive_final(node) == label.final
            single = explain(
                document,
                node,
                ALICE,
                store,
                dtd_uri=strategies.DTD_URI,
                policy=policy_by_name(policy_name),
                open_policy=open_policy,
            )
            assert single.as_dict() == whole[node].as_dict()
