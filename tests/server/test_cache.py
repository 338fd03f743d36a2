"""Tests for the server-side view cache."""

import pytest

from repro.authz.authorization import Authorization
from repro.server.cache import ViewCache
from repro.server.request import AccessRequest
from repro.server.service import SecureXMLServer
from repro.subjects.hierarchy import Requester
from repro.update import SetText, UpdateRequest

URI = "http://x/d.xml"


@pytest.fixture
def server():
    s = SecureXMLServer(view_cache=ViewCache(max_entries=8))
    s.add_group("Staff")
    s.add_user("alice", groups=["Staff"])
    s.add_user("amy", groups=["Staff"])
    s.add_user("bob")
    s.publish_document(URI, "<d><x>public</x><y>staff</y></d>")
    s.grant(Authorization.build("Public", f"{URI}://x", "+", "R"))
    s.grant(Authorization.build("Staff", f"{URI}://y", "+", "R"))
    s.grant(
        Authorization.build(
            ("alice", "*", "*"), f"{URI}://y", "+", "R", action="write"
        )
    )
    return s


def requester(user, ip="1.1.1.1"):
    return Requester(user, ip, "pc.x")


class TestCaching:
    def test_repeat_request_hits(self, server):
        first = server.serve(AccessRequest(requester("alice"), URI))
        second = server.serve(AccessRequest(requester("alice"), URI))
        assert first.xml_text == second.xml_text
        assert server.view_cache.hits == 1
        assert server.view_cache.misses == 1
        assert "cache hit" in server.audit.tail(1)[0].detail

    def test_same_entitlements_share_entry(self, server):
        server.serve(AccessRequest(requester("alice"), URI))
        response = server.serve(AccessRequest(requester("amy", "2.2.2.2"), URI))
        # amy resolves to the same applicable set as alice -> hit.
        assert server.view_cache.hits == 1
        assert "staff" in response.xml_text

    def test_different_entitlements_do_not_share(self, server):
        alice_view = server.serve(AccessRequest(requester("alice"), URI))
        bob_view = server.serve(AccessRequest(requester("bob"), URI))
        assert server.view_cache.hits == 0
        assert "staff" in alice_view.xml_text
        assert "staff" not in bob_view.xml_text

    def test_grant_invalidates(self, server):
        server.serve(AccessRequest(requester("bob"), URI))
        server.grant(Authorization.build("Public", f"{URI}://y", "+", "R"))
        response = server.serve(AccessRequest(requester("bob"), URI))
        # New grant changed the applicable set -> different key -> miss,
        # and the content reflects the new policy.
        assert "staff" in response.xml_text
        assert server.view_cache.hits == 0

    def test_revocation_invalidates_same_key(self, server):
        grant = server.store.for_uri(URI)[1]  # the Staff grant
        server.serve(AccessRequest(requester("alice"), URI))
        server.store.remove(grant)
        response = server.serve(AccessRequest(requester("alice"), URI))
        assert "staff" not in response.xml_text

    def test_update_invalidates(self, server):
        server.serve(AccessRequest(requester("alice"), URI))
        server.update(
            UpdateRequest.of(requester("alice"), URI, SetText("//y", "edited"))
        )
        response = server.serve(AccessRequest(requester("alice"), URI))
        assert "edited" in response.xml_text

    def test_cached_and_fresh_views_identical(self, server):
        fresh = server.serve(AccessRequest(requester("alice"), URI))
        cached = server.serve(AccessRequest(requester("alice"), URI))
        assert fresh.xml_text == cached.xml_text
        assert fresh.visible_nodes == cached.visible_nodes
        assert fresh.total_nodes == cached.total_nodes

    def test_no_cache_by_default(self):
        server = SecureXMLServer()
        assert server.view_cache is None


class TestViewCacheUnit:
    def test_lru_eviction(self):
        cache = ViewCache(max_entries=2)
        from repro.server.cache import CachedView

        def entry():
            return CachedView("<x/>", None, False, 1, 1, [], [], 0, 0)

        cache.put("a", entry())
        cache.put("b", entry())
        cache.get("a", 0, 0)      # touch a -> b becomes LRU
        cache.put("c", entry())   # evicts b
        assert cache.get("b", 0, 0) is None
        assert cache.get("a", 0, 0) is not None
        assert len(cache) == 2

    def test_version_mismatch_is_miss(self):
        from repro.server.cache import CachedView

        cache = ViewCache()
        cache.put("k", CachedView("<x/>", None, False, 1, 1, [], [], store_version=5, document_version=2))
        assert cache.get("k", 5, 2) is not None
        assert cache.get("k", 6, 2) is None  # store changed; entry dropped
        assert cache.get("k", 5, 2) is None

    def test_hit_rate(self):
        from repro.server.cache import CachedView

        cache = ViewCache()
        assert cache.hit_rate == 0.0
        cache.put("k", CachedView("<x/>", None, False, 1, 1, [], [], 0, 0))
        cache.get("k", 0, 0)
        cache.get("missing", 0, 0)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ViewCache(max_entries=0)

    def test_clear(self):
        from repro.server.cache import CachedView

        cache = ViewCache()
        cache.put("k", CachedView("<x/>", None, False, 1, 1, [], [], 0, 0))
        cache.clear()
        assert len(cache) == 0


class TestInvalidateUri:
    """Subtree-granular invalidation, at the cache-unit level."""

    @staticmethod
    def entry(store_version=0, document_version=0):
        from repro.server.cache import CachedView

        return CachedView(
            "<x/>", None, False, 1, 1, [], [], store_version, document_version
        )

    def test_without_keep_drops_every_entry_for_the_uri(self):
        cache = ViewCache()
        cache.put(("u", "c1"), self.entry())
        cache.put(("u", "c2"), self.entry())
        cache.put(("v", "c1"), self.entry())
        kept, dropped = cache.invalidate_uri("u")
        assert (kept, dropped) == (0, 2)
        assert cache.get(("v", "c1"), 0, 0) is not None  # other URI intact

    def test_keep_predicate_restamps_surviving_entries(self):
        cache = ViewCache()
        cache.put(("u", "disjoint"), self.entry(store_version=3, document_version=7))
        cache.put(("u", "affected"), self.entry(store_version=3, document_version=7))
        kept, dropped = cache.invalidate_uri(
            "u",
            keep=lambda key, entry: key[1] == "disjoint",
            versions=((3, 7), (3, 8)),
        )
        assert (kept, dropped) == (1, 1)
        # The survivor answers lookups at the *post-commit* versions.
        assert cache.get(("u", "disjoint"), 3, 8) is not None
        assert cache.get(("u", "affected"), 3, 8) is None

    def test_keep_decides_from_the_entry_it_is_shown(self):
        from repro.server.cache import CachedView

        cache = ViewCache()
        for binding in ("proven", "unproven"):
            cache.put(
                ("u", binding),
                CachedView("<x/>", None, False, 1, 1, [binding], [], 3, 7),
            )
        kept, dropped = cache.invalidate_uri(
            "u",
            keep=lambda key, entry: entry.instance_auths == ["proven"],
            versions=((3, 7), (3, 8)),
        )
        assert (kept, dropped) == (1, 1)
        assert cache.get(("u", "proven"), 3, 8).instance_auths == ["proven"]

    def test_stats_distinguish_partial_invalidations(self):
        cache = ViewCache()
        cache.put(("u", "a"), self.entry())
        cache.put(("u", "b"), self.entry())
        cache.put(("u", "c"), self.entry())
        cache.invalidate_uri("u", keep=lambda key, entry: key[1] != "b")
        stats = cache.stats()
        assert stats["invalidated"] == 1
        assert stats["revalidated"] == 2
        # Update-driven removals are not capacity evictions.
        assert stats["evictions"] == 0

    def test_non_tuple_keys_are_untouched(self):
        cache = ViewCache()
        cache.put("plain", self.entry())
        kept, dropped = cache.invalidate_uri("plain")
        assert (kept, dropped) == (0, 0)
        assert cache.get("plain", 0, 0) is not None
