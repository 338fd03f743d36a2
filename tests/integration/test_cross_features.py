"""Cross-feature integration: the extensions must compose correctly.

Each test wires several features together (cache x updates, cache x
validity windows, persistence x auction scenario, explain x analysis)
and checks the *interaction*, not the features in isolation.
"""

import time

import pytest

from repro.authz.authorization import Authorization
from repro.authz.restrictions import ValidityWindow
from repro.server.cache import ViewCache
from repro.server.persistence import load_server, save_server
from repro.server.request import AccessRequest
from repro.server.service import SecureXMLServer
from repro.subjects.hierarchy import Requester
from repro.update import SetText, UpdateRequest

URI = "http://x/d.xml"


class TestCacheComposition:
    def build(self):
        server = SecureXMLServer(view_cache=ViewCache())
        server.add_user("w")
        server.publish_document(URI, "<d><x>original</x></d>")
        server.grant(Authorization.build("Public", URI, "+", "R"))
        server.grant(
            Authorization.build(("w", "*", "*"), URI, "+", "R", action="write")
        )
        return server

    def test_update_then_cached_serve_sees_new_content(self):
        server = self.build()
        reader = Requester("anonymous", "1.1.1.1", "r.x")
        writer = Requester("w", "2.2.2.2", "w.x")
        assert "original" in server.serve(AccessRequest(reader, URI)).xml_text
        server.update(UpdateRequest.of(writer, URI, SetText("//x", "changed")))
        # The cache entry is version-stale; the serve must recompute.
        assert "changed" in server.serve(AccessRequest(reader, URI)).xml_text

    def test_expiring_window_changes_cache_key(self):
        server = SecureXMLServer(view_cache=ViewCache())
        server.publish_document(URI, "<d><x>timed</x></d>")
        now = time.time()
        server.grant(
            Authorization.build(
                "Public", URI, "+", "R",
                validity=ValidityWindow(not_after=now + 0.3),
            )
        )
        reader = Requester("anonymous", "1.1.1.1", "r.x")
        assert "timed" in server.serve(AccessRequest(reader, URI)).xml_text
        time.sleep(0.4)
        # The window expired: the applicable set is now empty, producing
        # a different cache key — the stale cached view must NOT leak.
        assert server.serve(AccessRequest(reader, URI)).empty

    def test_credentialed_and_plain_requesters_not_conflated(self):
        server = SecureXMLServer(view_cache=ViewCache())
        server.publish_document(URI, "<d><x>secret</x></d>")
        from repro.authz.restrictions import CredentialClause

        server.grant(
            Authorization.build(
                "Public", URI, "+", "R",
                credentials=(CredentialClause("badge", "present"),),
            )
        )
        badged = Requester("anonymous", "1.1.1.1", "r.x").with_credentials(badge="1")
        plain = Requester("anonymous", "1.1.1.1", "r.x")
        assert "secret" in server.serve(AccessRequest(badged, URI)).xml_text
        # Same user/IP/host — the credential difference must still
        # separate the cache keys.
        assert server.serve(AccessRequest(plain, URI)).empty


class TestPersistenceComposition:
    def test_auction_scenario_round_trips(self, tmp_path):
        from repro.workloads.auction import AUCTION_SITE_URI, auction_scenario

        scenario = auction_scenario(seed=3)
        state = str(tmp_path / "auction-state")
        save_server(scenario.server, state)
        reloaded = load_server(state)
        for requester in (
            scenario.visitor,
            scenario.requester_for("p0"),
            scenario.fraud_officer,
        ):
            before = scenario.server.serve(
                AccessRequest(requester, AUCTION_SITE_URI)
            ).xml_text
            after = reloaded.serve(AccessRequest(requester, AUCTION_SITE_URI)).xml_text
            assert before == after

    def test_reloaded_server_can_cache(self, tmp_path):
        server = SecureXMLServer()
        server.publish_document(URI, "<d><x>v</x></d>")
        server.grant(Authorization.build("Public", URI, "+", "R"))
        state = str(tmp_path / "s")
        save_server(server, state)
        reloaded = load_server(state, view_cache=ViewCache())
        reader = Requester("anonymous", "1.1.1.1", "r.x")
        reloaded.serve(AccessRequest(reader, URI))
        reloaded.serve(AccessRequest(reader, URI))
        assert reloaded.view_cache.hits == 1


class TestExplainAnalysisAgreement:
    def test_impact_deciding_nodes_match_explanations(self, lab):
        """authorization_impact's deciding count equals a manual count
        over explain_view — the two analysis paths must agree."""
        from repro.core.explain import explain_view
        from repro.server.analysis import authorization_impact
        from repro.server.service import SecureXMLServer
        from repro.workloads.scenarios import (
            LAB_DOCUMENT_URI,
            LAB_DTD_TEXT,
            LAB_DTD_URI,
            lab_document,
        )

        server = SecureXMLServer()
        server.add_group("Foreign")
        server.add_user("Tom", groups=["Foreign"])
        server.publish_dtd(LAB_DTD_URI, LAB_DTD_TEXT)
        server.publish_document(
            LAB_DOCUMENT_URI, lab_document(), dtd_uri=LAB_DTD_URI
        )
        for authorization in lab.authorizations:
            server.grant(authorization)

        tom = Requester("Tom", "130.100.50.8", "infosys.bld1.it")
        target = lab.authorizations[1]  # the public-papers RW+ grant
        impact = authorization_impact(server, LAB_DOCUMENT_URI, target, tom)

        document = server.repository.document(LAB_DOCUMENT_URI)
        report = explain_view(
            document, tom, server.store, dtd_uri=LAB_DTD_URI
        )
        manual = 0
        for explanation in report.values():
            if explanation.deciding_slot is None:
                continue
            origin = next(
                o
                for o in explanation.origins
                if o.slot == explanation.deciding_slot
            )
            if any(w.unparse() == target.unparse() for w in origin.winners):
                manual += 1
        assert impact.deciding_nodes == manual
        assert impact.view_delta > 0
