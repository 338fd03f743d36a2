"""Tests for the decision-explanation facility."""

import pytest

from repro.authz.authorization import Authorization
from repro.core.explain import explain, explain_view
from repro.errors import ReproError
from repro.subjects.hierarchy import Requester, SubjectHierarchy
from repro.workloads.scenarios import lab_scenario
from repro.xml.parser import parse_document
from repro.xpath.evaluator import select


@pytest.fixture
def lab_setup():
    return lab_scenario()


class TestPaperScenarioExplanations:
    def test_private_paper_denied_by_schema_auth(self, lab_setup):
        s = lab_setup
        e = explain(s.document, "/laboratory/project[1]/paper[1]", s.tom, s.store)
        assert e.final == "-"
        assert e.deciding_slot == "RD"
        deciding = next(o for o in e.origins if o.slot == "RD")
        assert deciding.kind == "direct"
        assert any("Foreign" in a.unparse() for a in deciding.winners)
        assert not e.in_view
        assert "Foreign" in e.describe()

    def test_flname_inherited_from_manager(self, lab_setup):
        s = lab_setup
        e = explain(
            s.document, "/laboratory/project[1]/manager/flname", s.tom, s.store
        )
        assert e.final == "+"
        assert e.deciding_slot == "RW"
        deciding = next(o for o in e.origins if o.slot == "RW")
        assert deciding.kind == "inherited"
        assert deciding.inherited_from is not None
        assert e.in_view

    def test_structural_survivor_flagged(self, lab_setup):
        s = lab_setup
        e = explain(s.document, "/laboratory/project[1]", s.tom, s.store)
        assert e.final == "ε"
        assert e.deciding_slot is None
        assert e.in_view
        assert e.structural_only
        assert "bare tag" in e.describe()

    def test_fully_hidden_node(self, lab_setup):
        s = lab_setup
        e = explain(s.document, "/laboratory/project[2]/manager", s.tom, s.store)
        assert not e.in_view
        assert "not in view" in e.describe()

    def test_attribute_inheritance_explained(self, lab_setup):
        s = lab_setup
        e = explain(
            s.document, "/laboratory/project[1]/paper[2]/@category", s.tom, s.store
        )
        assert e.final == "+"
        assert e.in_view


class TestExplainApi:
    URI = "d.xml"

    def store_with(self, *auths):
        from repro.authz.store import AuthorizationStore

        store = AuthorizationStore()
        store.add_all(auths)
        return store

    def test_ambiguous_path_rejected(self, lab_setup):
        s = lab_setup
        with pytest.raises(ReproError, match="exactly one node"):
            explain(s.document, "//paper", s.tom, s.store)

    def test_no_match_rejected(self, lab_setup):
        s = lab_setup
        with pytest.raises(ReproError, match="exactly one node"):
            explain(s.document, "//nosuch", s.tom, s.store)

    def test_node_object_accepted(self, lab_setup):
        s = lab_setup
        node = select("//fund", s.document)[0]
        e = explain(s.document, node, s.tom, s.store)
        assert e.path.endswith("/fund")

    def test_foreign_node_rejected(self, lab_setup):
        s = lab_setup
        other = parse_document("<x/>").root
        with pytest.raises(ReproError, match="does not belong"):
            explain(s.document, other, s.tom, s.store)

    def test_explain_view_covers_every_node(self, lab_setup):
        s = lab_setup
        from repro.xml.traversal import preorder

        report = explain_view(s.document, s.tom, s.store)
        assert set(report) == set(preorder(s.document.root))

    def test_overridden_subjects_reported(self):
        document = parse_document("<a><b/></a>", uri=self.URI)
        hierarchy = SubjectHierarchy()
        hierarchy.directory.add_group("CS")
        hierarchy.directory.add_group("Grad", parents=["CS"])
        from repro.authz.store import AuthorizationStore

        store = AuthorizationStore(hierarchy)
        loser = Authorization.build(("CS", "*", "*"), f"{self.URI}://b", "-", "R")
        winner = Authorization.build(("Grad", "*", "*"), f"{self.URI}://b", "+", "R")
        store.add_all([loser, winner])
        requester = Requester("anonymous")
        # Build explanations directly from auth lists (requester-agnostic).
        report = explain_view(document, requester, store)
        # anonymous matches neither CS nor Grad: nothing applies.
        b = select("//b", document)[0]
        assert report[b].final == "ε"

        hierarchy.directory.add_user("gina", groups=["Grad"])
        gina = Requester("gina", "1.1.1.1", "g.x")
        report = explain_view(document, gina, store)
        origin = next(o for o in report[b].origins if o.slot == "R")
        assert origin.winners == [winner]
        assert origin.overridden == [loser]
        assert report[b].final == "+"

    def test_open_policy_reflected_in_view_membership(self):
        document = parse_document("<a><b/></a>", uri=self.URI)
        store = self.store_with()
        report = explain_view(document, Requester(), store, open_policy=True)
        b = select("//b", document)[0]
        assert report[b].final == "ε"
        assert report[b].in_view  # ε = permit under the open policy

    def test_deep_propagation_source(self):
        document = parse_document("<a><b><c><d/></c></b></a>", uri=self.URI)
        store = self.store_with(
            Authorization.build("Public", f"{self.URI}://a", "+", "R")
        )
        report = explain_view(document, Requester(), store)
        d = select("//d", document)[0]
        origin = next(o for o in report[d].origins if o.slot == "R")
        assert origin.kind == "inherited"
        assert origin.inherited_from.name == "a"

