"""Facade-level contract of the write path (:meth:`SecureXMLServer.update`).

Engine semantics live in ``tests/update/``; the old-path behaviours
(atomicity, denial messages, schema-level grants) in
``tests/server/test_updates.py``. This suite pins what the *server*
adds around the engine:

- ``update.*`` spans under a ``request.update`` umbrella;
- ``update_requests_total`` / ``relabel_nodes_total`` /
  ``cache_partial_invalidations_total`` metrics that agree with the
  audit trail (``backend="update"``);
- subtree-granular cache invalidation: views provably disjoint from
  the edit survive with re-stamped versions and keep hitting;
- structured guard failures (``applied=False`` + ``error_kind``);
- the write-consistency checker endpoint;
- ``concurrent.dispatch`` routing of :class:`UpdateRequest`.
"""

from __future__ import annotations

import pytest

from repro.authz.authorization import Authorization
from repro.errors import DeadlineExceeded
from repro.limits import ResourceLimits
from repro.obs import tracing
from repro.server.cache import ViewCache
from repro.server.concurrent import dispatch
from repro.server.request import AccessRequest
from repro.server.service import SecureXMLServer
from repro.subjects.hierarchy import Requester
from repro.testing.faults import FAULTS
from repro.update import SetAttribute, SetText, UpdateDenied, UpdateRequest
from repro.xml.serializer import serialize

URI = "http://x/notes.xml"
NOTES = (
    "<notes>"
    "<note owner='alice' state='open'>a-note</note>"
    "<note owner='bob' state='open'>b-note</note>"
    "</notes>"
)


def alice():
    return Requester("alice", "10.0.0.1", "pc.lab.com")


def carol():
    return Requester("carol", "10.0.0.3", "pc3.lab.com")


def make_server(view_cache=None):
    server = SecureXMLServer(view_cache=view_cache)
    server.add_user("alice")
    server.add_user("carol")
    # alice sees everything; carol sees only bob's note (disjoint from
    # the subtree alice edits below).
    server.publish_document(URI, NOTES)
    server.grant(Authorization.build(("alice", "*", "*"), URI, "+", "R"))
    server.grant(
        Authorization.build(
            ("carol", "*", "*"), f"{URI}://note[@owner='bob']", "+", "R"
        )
    )
    server.grant(
        Authorization.build(
            ("alice", "*", "*"),
            f"{URI}://note[@owner='alice']",
            "+",
            "R",
            action="write",
        )
    )
    return server


def edit_alices_note():
    return UpdateRequest.of(
        alice(), URI, SetAttribute("//note[@owner='alice']", "state", "done")
    )


class TestMetricsAndSpans:
    def test_applied_update_meters_and_spans(self):
        server = make_server(view_cache=ViewCache())
        with tracing() as tracer:
            outcome = server.update(edit_alices_note())
        assert outcome.applied
        names = {span.name for span in tracer.spans}
        for stage in (
            "request.update",
            "update.plan",
            "update.apply",
            "update.relabel",
            "update.commit",
            "update.invalidate",
            "authz.bind",
        ):
            assert stage in names, stage
        assert (
            server.metrics.value("update_requests_total", outcome="applied") == 1
        )
        assert server.metrics.value("relabel_nodes_total") == (
            outcome.relabeled_nodes
        )
        assert (
            server.metrics.value(
                "requests_total", kind="update", outcome="released"
            )
            == 1
        )

    def test_denied_update_meters_and_audits(self):
        server = make_server()
        with pytest.raises(UpdateDenied):
            server.update(
                UpdateRequest.of(
                    alice(),
                    URI,
                    SetAttribute("//note[@owner='bob']", "state", "done"),
                )
            )
        assert (
            server.metrics.value("update_requests_total", outcome="denied") == 1
        )
        assert (
            server.metrics.value(
                "requests_total", kind="update", outcome="denied"
            )
            == 1
        )
        last = server.audit.tail(1)[0]
        assert last.outcome == "denied"
        assert last.backend == "update"

    def test_applied_update_audits_with_update_backend(self):
        server = make_server()
        server.update(edit_alices_note())
        last = server.audit.tail(1)[0]
        assert last.outcome == "released"
        assert last.backend == "update"
        assert last.detail == "1 operation(s) applied"


class TestSubtreeGranularInvalidation:
    def teardown_method(self):
        FAULTS.reset()

    def test_disjoint_view_survives_the_edit(self):
        cache = ViewCache()
        server = make_server(view_cache=cache)
        server.serve(AccessRequest(alice(), URI))  # warm both classes
        server.serve(AccessRequest(carol(), URI))
        outcome = server.update(edit_alices_note())
        # carol's cached view never shows alice's note: provably
        # disjoint from the edit, so it survives; alice's view drops.
        assert outcome.cache_kept == 1
        assert outcome.cache_dropped == 1
        assert (
            server.metrics.value(
                "cache_partial_invalidations_total", result="kept"
            )
            == 1
        )
        assert (
            server.metrics.value(
                "cache_partial_invalidations_total", result="dropped"
            )
            == 1
        )
        stats = cache.stats()
        assert stats["invalidated"] == 1
        assert stats["revalidated"] == 1

    def test_surviving_entry_keeps_hitting(self):
        cache = ViewCache()
        server = make_server(view_cache=cache)
        before = server.serve(AccessRequest(carol(), URI)).xml_text
        server.serve(AccessRequest(alice(), URI))
        server.update(edit_alices_note())
        hits = cache.stats()["hits"]
        response = server.serve(AccessRequest(carol(), URI))
        assert response.xml_text == before
        assert cache.stats()["hits"] == hits + 1  # re-stamped, not stale
        # alice's dropped entry recomputes and shows the new bytes.
        assert 'state="done"' in server.serve(AccessRequest(alice(), URI)).xml_text

    def test_edit_intersecting_every_view_drops_everything(self):
        cache = ViewCache()
        server = make_server(view_cache=cache)
        server.grant(
            Authorization.build(
                ("alice", "*", "*"), f"{URI}://note", "+", "R", action="write"
            )
        )
        server.serve(AccessRequest(alice(), URI))
        server.serve(AccessRequest(carol(), URI))
        outcome = server.update(
            UpdateRequest.of(alice(), URI, SetText("//note", "rewritten"))
        )
        assert outcome.cache_kept == 0
        assert outcome.cache_dropped == 2
        assert "rewritten" in server.serve(AccessRequest(carol(), URI)).xml_text

    def test_class_outside_the_exact_subset_is_dropped_not_proven(self):
        dave = Requester("dave", "10.0.0.4", "pc4.lab.com")
        # dave sees what carol sees, but one read path ends in text():
        # no exact automaton can rebind it, so no disjointness proof.
        grants = [
            Authorization.build(
                ("dave", "*", "*"), f"{URI}://note[@owner='bob']", "+", "R"
            ),
            Authorization.build(
                ("dave", "*", "*"), f"{URI}://note/text()", "-", "L"
            ),
        ]
        server = make_server(view_cache=ViewCache())
        server.add_user("dave")
        for grant in grants:
            server.grant(grant)
        for requester in (alice(), carol(), dave):
            server.serve(AccessRequest(requester, URI))
        outcome = server.update(edit_alices_note())
        assert outcome.cache_kept == 1  # carol's class only
        assert outcome.cache_dropped == 2
        scratch = SecureXMLServer()
        scratch.add_user("dave")
        scratch.publish_document(URI, serialize(server.repository.document(URI)))
        for grant in grants:
            scratch.grant(grant)
        assert (
            server.serve(AccessRequest(dave, URI)).xml_text
            == scratch.serve(AccessRequest(dave, URI)).xml_text
        )


    def test_post_commit_invalidation_reads_no_repository(self):
        server = make_server(view_cache=ViewCache())
        server.serve(AccessRequest(alice(), URI))
        server.serve(AccessRequest(carol(), URI))
        # The update's own read passes; any later one would fail. Each
        # cached view is proven from the binding it recorded, so the
        # committed batch is answered, counted and audited.
        FAULTS.arm("repository.read", times=1, after=1)
        outcome = server.update(edit_alices_note())
        assert FAULTS.fired("repository.read") == 0
        assert (outcome.applied, outcome.version) == (True, 1)
        assert (outcome.cache_kept, outcome.cache_dropped) == (1, 1)
        assert (
            server.metrics.value("update_requests_total", outcome="applied") == 1
        )
        updates = [record for record in server.audit if record.backend == "update"]
        assert [(r.action, r.outcome) for r in updates] == [("write", "released")]


class TestStructuredGuardFailures:
    def test_deadline_trip_returns_structured_outcome(self):
        server = make_server()
        outcome = server.update(
            edit_alices_note(), limits=ResourceLimits(deadline_seconds=0.0)
        )
        assert not outcome.applied
        assert isinstance(outcome.error, DeadlineExceeded)
        assert outcome.error_kind == "deadline-exceeded"
        assert (
            server.metrics.value("guard_trips_total", kind="deadline-exceeded")
            == 1
        )
        assert (
            server.metrics.value("update_requests_total", outcome="error") == 1
        )
        last = server.audit.tail(1)[0]
        assert last.outcome == "error"
        assert last.backend == "update"
        assert last.detail.startswith("deadline-exceeded:")
        # The document is untouched.
        assert "a-note" in server.serve(AccessRequest(alice(), URI)).xml_text


class TestConsistencyEndpoint:
    def test_consistent_policy_accepts(self):
        server = make_server()
        findings = server.check_consistency(alice(), URI)
        assert findings == []
        assert (
            server.metrics.value("consistency_checks_total", outcome="accept")
            == 1
        )
        last = server.audit.tail(1)[0]
        assert last.action == "consistency"
        assert last.outcome == "accept"
        assert last.backend == "update"

    def test_write_grant_on_hidden_node_flagged_with_repair(self):
        server = make_server()
        # carol may write alice's note but cannot read it: flagged.
        server.grant(
            Authorization.build(
                ("carol", "*", "*"),
                f"{URI}://note[@owner='alice']",
                "+",
                "R",
                action="write",
            )
        )
        findings = server.check_consistency(carol(), URI, suggest_repairs=True)
        assert findings
        assert all(f.repair is not None for f in findings)
        assert all("carol" in f.repair.unparse() for f in findings)
        assert (
            server.metrics.value("consistency_checks_total", outcome="repair")
            == 1
        )
        assert server.audit.tail(1)[0].outcome == "repair"


    @pytest.mark.parametrize("extra_path", [None, "//note[1]"])
    def test_tripped_guard_is_counted_and_audited(self, extra_path):
        server = make_server()
        if extra_path is not None:
            # Outside the exact subset: binds through the evaluator.
            server.grant(
                Authorization.build(
                    ("alice", "*", "*"), f"{URI}:{extra_path}", "+", "R"
                )
            )
        with pytest.raises(DeadlineExceeded):
            server.check_consistency(
                alice(), URI, limits=ResourceLimits(deadline_seconds=0.0)
            )
        metrics = server.metrics
        assert (
            metrics.value("requests_total", kind="consistency", outcome="error")
            == 1
        )
        assert metrics.value("guard_trips_total", kind="deadline-exceeded") == 1
        assert metrics.value("consistency_checks_total", outcome="accept") is None
        last = server.audit.tail(1)[0]
        assert (last.action, last.outcome, last.backend) == (
            "consistency", "error", "update",
        )
        assert last.detail.startswith("deadline-exceeded: ")


class TestDispatchRouting:
    def test_dispatch_routes_update_requests(self):
        server = make_server()
        outcome = dispatch(server, edit_alices_note())
        assert outcome.applied
        assert outcome.version == 1

    def test_versions_increase_across_dispatches(self):
        server = make_server()
        first = dispatch(server, edit_alices_note())
        second = dispatch(
            server,
            UpdateRequest.of(
                alice(),
                URI,
                SetAttribute("//note[@owner='alice']", "state", "open"),
            ),
        )
        assert second.version == first.version + 1
