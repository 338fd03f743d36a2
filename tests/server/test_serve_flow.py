"""``serve`` and ``serve_stream`` run one request flow.

Both entry points probe, fill and share one view cache: an entry one of
them computed answers the other as a cache hit, an update keeps or
drops it by the same proof, and a deferred document's first request
does not cache a view under a key that lacks its DTD's validity marker.
A history-limit denial is counted under the entry point that was
called. A directory change makes cached views and shared oracles
stale, as a grant does. Cross-backend byte comparisons stay on uncached servers
(``tests/stream/test_differential.py``); here the two entry points are
compared through one cache.
"""

import pytest

from repro.authz.authorization import Authorization
from repro.authz.restrictions import HistoryLimit, ValidityWindow
from repro.server.cache import ViewCache
from repro.server.request import AccessRequest, QueryRequest
from repro.server.service import AccessLimitExceeded, PolicyConfig, SecureXMLServer
from repro.subjects.hierarchy import Requester
from repro.update import SetText, UpdateRequest

URI = "http://x/d.xml"
DTD_URI = "http://x/d.dtd"
DTD_TEXT = "<!ELEMENT d (x, y)><!ELEMENT x (#PCDATA)><!ELEMENT y (#PCDATA)>"
DOCUMENT = "<d><x>public</x><y>staff</y></d>"

ENTRY_POINTS = ("serve", "serve_stream")


def cached_server() -> SecureXMLServer:
    server = SecureXMLServer(view_cache=ViewCache())
    server.add_group("Staff")
    server.add_user("alice", groups=["Staff"])
    server.add_user("bob")
    server.publish_document(URI, DOCUMENT)
    server.grant(Authorization.build("Public", f"{URI}://x", "+", "R"))
    server.grant(Authorization.build("Staff", f"{URI}://y", "+", "R"))
    server.grant(
        Authorization.build(
            ("alice", "*", "*"), f"{URI}://y", "+", "R", action="write"
        )
    )
    return server


def alice() -> Requester:
    return Requester("alice", "1.1.1.1", "pc.x")


def bob() -> Requester:
    return Requester("bob", "2.2.2.2", "pc.x")


def view_of(response) -> tuple:
    return (
        response.xml_text,
        response.loosened_dtd_text,
        response.empty,
        response.visible_nodes,
        response.total_nodes,
    )


class TestSharedCache:
    @pytest.mark.parametrize(
        "first, second", [ENTRY_POINTS, ENTRY_POINTS[::-1]]
    )
    def test_second_entry_point_hits_the_first_ones_entry(self, first, second):
        server = cached_server()
        request = AccessRequest(alice(), URI)
        computed = getattr(server, first)(request)
        answered = getattr(server, second)(request)
        assert computed.ok and answered.ok
        assert view_of(answered) == view_of(computed)
        assert server.audit.tail(1)[0].detail == "cache hit"
        assert server.view_cache.stats()["entries"] == 1

    def test_stream_hit_delivers_to_the_sink(self):
        server = cached_server()
        request = AccessRequest(alice(), URI)
        server.serve(request)
        chunks = []
        response = server.serve_stream(request, sink=chunks.append, chunk_size=8)
        assert server.audit.tail(1)[0].detail == "cache hit"
        assert "".join(chunks) == response.xml_text
        assert all(len(chunk) <= 8 for chunk in chunks)
        assert len(chunks) > 1

    def test_update_treats_stream_entries_like_serve_entries(self):
        results = {}
        for entry_point in ENTRY_POINTS:
            server = cached_server()
            for requester in (alice(), bob()):
                getattr(server, entry_point)(AccessRequest(requester, URI))
            outcome = server.update(
                UpdateRequest.of(alice(), URI, SetText("//y", "edited"))
            )
            assert outcome.applied
            after = []
            for requester in (alice(), bob()):
                response = getattr(server, entry_point)(
                    AccessRequest(requester, URI)
                )
                after.append((view_of(response), server.audit.tail(1)[0].detail))
            results[entry_point] = (outcome.cache_kept, outcome.cache_dropped, after)
        assert results["serve_stream"][:2] == results["serve"][:2] == (1, 1)
        # alice's view held the edited node: recomputed; bob's did not:
        # still a hit, under the post-update versions.
        for entry_point in ENTRY_POINTS:
            (alice_view, alice_detail), (_, bob_detail) = results[entry_point][2]
            assert "edited" in alice_view[0]
            assert alice_detail != "cache hit"
            assert bob_detail == "cache hit"
        assert [view for view, _ in results["serve_stream"][2]] == [
            view for view, _ in results["serve"][2]
        ]


class TestDeferredDoctype:
    """A deferred document names its DTD only in its DOCTYPE."""

    TEXT = (
        '<?xml version="1.0"?>'
        f'<!DOCTYPE d SYSTEM "{DTD_URI}">'
        + DOCUMENT
    )

    def build(self, view_cache):
        server = SecureXMLServer(view_cache=view_cache)
        server.publish_dtd(DTD_URI, DTD_TEXT)
        server.publish_document(URI, self.TEXT, defer_parse=True)
        server.grant(Authorization.build("Public", f"{URI}://x", "+", "R"))
        # Schema level, with a validity window: the schema validity
        # marker is part of the cache key once the DTD URI is known.
        server.grant(
            Authorization.build(
                "Public",
                f"{DTD_URI}://y",
                "+",
                "R",
                validity=ValidityWindow(not_before=0.0),
            )
        )
        return server

    def test_first_request_learns_the_dtd_and_caches_nothing(self):
        request = AccessRequest(bob(), URI)
        expected = view_of(self.build(None).serve(request))
        assert "staff" in expected[0] and expected[1] is not None
        server = self.build(ViewCache())
        for entry_point in ("serve_stream", "serve", "serve_stream"):
            assert view_of(getattr(server, entry_point)(request)) == expected
        stats = server.view_cache.stats()
        # The first request probed without the DTD and put nothing; the
        # DOM serve missed and put; the last stream request hit.
        assert (stats["misses"], stats["hits"], stats["entries"]) == (2, 1, 1)


class TestHistoryLimit:
    def test_denied_stream_counts_under_serve_stream(self):
        server = cached_server()
        server.set_policy(
            URI, PolicyConfig(history_limit=HistoryLimit(1, 3600))
        )
        request = AccessRequest(alice(), URI)
        assert server.serve_stream(request).ok
        with pytest.raises(AccessLimitExceeded):
            server.serve_stream(request)
        metrics = server.metrics
        assert metrics.value("requests_total", kind="serve_stream", outcome="denied") == 1
        assert metrics.value("requests_total", kind="serve", outcome="denied") is None


class TestDirectoryChange:
    """bob is in ``staff`` and ``probation``, whose grants on ``secret``
    conflict. Nesting one group in the other makes it the more specific
    subject, which decides ``secret`` without changing bob's groups."""

    SECRET_URI = "http://x/secret.xml"

    def build(self, conflict_policy: str) -> SecureXMLServer:
        server = SecureXMLServer(view_cache=ViewCache())
        server.add_group("staff")
        server.add_group("probation")
        server.add_user("bob", groups=["staff", "probation"])
        server.publish_document(
            self.SECRET_URI,
            "<doc><open>o</open><secret>s</secret></doc>",
            policy=PolicyConfig(conflict_policy=conflict_policy),
        )
        uri = self.SECRET_URI
        server.grant(Authorization.build("Public", f"{uri}:/doc", "+", "R"))
        server.grant(Authorization.build("staff", f"{uri}:/doc/secret", "+", "R"))
        server.grant(
            Authorization.build("probation", f"{uri}:/doc/secret", "-", "R")
        )
        return server

    @staticmethod
    def shows_secret(server: SecureXMLServer, entry: str) -> bool:
        uri = TestDirectoryChange.SECRET_URI
        requester = Requester("bob", "3.3.3.3", "pc.x")
        if entry == "query":
            response = server.query(
                QueryRequest(requester, uri, "//secret"), virtual=True
            )
        else:
            response = getattr(server, entry)(AccessRequest(requester, uri))
        return "<secret>" in response.xml_text

    @pytest.mark.parametrize("entry", ["serve", "serve_stream", "query"])
    @pytest.mark.parametrize(
        "conflict_policy, group, member, shown_before",
        [
            # probation nested in staff: its denial is most specific.
            ("permissions-take-precedence", "staff", "probation", True),
            # staff nested in probation: its permission is most specific.
            ("denials-take-precedence", "probation", "staff", False),
        ],
    )
    def test_answers_like_a_fresh_server(
        self, entry, conflict_policy, group, member, shown_before
    ):
        server = self.build(conflict_policy)
        assert self.shows_secret(server, entry) is shown_before
        server.directory.add_member(group, member)
        fresh = self.build(conflict_policy)
        fresh.directory.add_member(group, member)
        assert self.shows_secret(fresh, entry) is not shown_before
        assert self.shows_secret(server, entry) is not shown_before
