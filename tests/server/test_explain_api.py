"""Tests for the facade's explain() endpoint (decision provenance)."""

import json

import pytest

from repro.authz.authorization import Authorization
from repro.core.explain import Explanation
from repro.errors import DeadlineExceeded
from repro.limits import ResourceLimits
from repro.server.service import SecureXMLServer
from repro.subjects.hierarchy import Requester

URI = "http://x/notes.xml"
XML = (
    "<notes>"
    "<note owner='alice'>hi<secret>k</secret></note>"
    "<note owner='bob'>yo</note>"
    "</notes>"
)


@pytest.fixture
def server():
    server = SecureXMLServer()
    server.add_user("alice")
    server.publish_document(URI, XML)
    server.grant(Authorization.build("Public", URI, "+", "R"))
    server.grant(Authorization.build("Public", f"{URI}://secret", "-", "R"))
    return server


def alice():
    return Requester("alice", "10.0.0.1", "pc.x")


class TestExplainEndpoint:
    def test_returns_an_explanation(self, server):
        explanation = server.explain(alice(), URI)
        assert isinstance(explanation, Explanation)
        assert explanation.uri == URI
        assert "alice" in explanation.requester
        assert len(explanation) > 0

    def test_finals_match_the_served_view(self, server):
        explanation = server.explain(alice(), URI)
        view = server.view(alice(), URI)
        assert len(explanation) == len(view.labels)
        for node, label in view.labels.items():
            assert explanation[node].final == label.final
        assert explanation.visible_nodes == view.visible_nodes

    def test_xpath_targets_focus_the_report(self, server):
        explanation = server.explain(alice(), URI, xpath="//secret")
        assert len(explanation.targets) == 1
        text = explanation.describe()
        assert "/notes/note[1]/secret" in text
        # The hidden node's denial is explained, not omitted.
        ne = explanation.target_explanations[0]
        assert ne.final == "-"
        assert not ne.in_view

    def test_metrics_and_audit_trail(self, server):
        server.explain(alice(), URI)
        server.explain(alice(), URI, xpath="//note")
        assert server.metrics.value("explain_requests_total") == 2
        assert server.metrics.value("provenance_nodes_recorded_total") > 0
        actions = [record.action for record in server.audit]
        assert "explain" in actions
        assert "explain[//note]" in actions
        assert all(record.outcome == "released" for record in server.audit)

    def test_timings_include_the_decision_stages(self, server):
        explanation = server.explain(alice(), URI)
        assert "request.explain" in explanation.timings
        assert "decision.explain" in explanation.timings
        assert "decision.label" in explanation.timings

    def test_to_json_is_loadable(self, server):
        explanation = server.explain(alice(), URI)
        data = json.loads(explanation.to_json())
        assert data["uri"] == URI
        assert data["total_nodes"] == len(explanation)

    def test_unknown_document_is_audited_error(self, server):
        from repro.errors import RepositoryError

        with pytest.raises(RepositoryError):
            server.explain(alice(), "http://x/nope.xml")
        assert server.audit.tail(1)[0].outcome == "error"


class TestTrippedGuard:
    """A tripped guard is counted and audited as serve's are, then
    raised."""

    @pytest.mark.parametrize("extra_path", [None, "//note[1]"])
    @pytest.mark.parametrize(
        "xpath, action", [(None, "explain"), ("//secret", "explain[//secret]")]
    )
    def test_deadline_trip_is_counted_and_audited(
        self, server, extra_path, xpath, action
    ):
        if extra_path is not None:
            # Outside the exact subset: binds through the evaluator.
            server.grant(Authorization.build("Public", f"{URI}:{extra_path}", "+", "R"))
        with pytest.raises(DeadlineExceeded):
            server.explain(
                alice(), URI, xpath=xpath, limits=ResourceLimits(deadline_seconds=0.0)
            )
        metrics = server.metrics
        assert metrics.value("requests_total", kind="explain", outcome="error") == 1
        assert metrics.value("guard_trips_total", kind="deadline-exceeded") == 1
        assert metrics.value("explain_requests_total") is None
        record = server.audit.tail(1)[0]
        assert (record.action, record.outcome) == (action, "error")
        assert record.detail.startswith("deadline-exceeded: ")
