"""Cached views across a document's removal and re-publication.

A document removed and published again at the same URI is a new
document: no view cached from the earlier one may answer for it, either
straight away or after an update whose keep-proof re-stamps entries.
"""

import threading

import pytest

from repro.authz.authorization import Authorization
from repro.errors import RepositoryError
from repro.server.cache import CachedView, ViewCache
from repro.server.repository import Repository
from repro.server.request import AccessRequest
from repro.server.service import SecureXMLServer
from repro.subjects.hierarchy import Requester
from repro.update import SetText, UpdateRequest

URI = "http://x/doc.xml"


def alice():
    return Requester("alice", "10.0.0.1", "pc.lab.com")


def bob():
    return Requester("bob", "10.0.0.2", "pc.lab.com")


def make_server():
    server = SecureXMLServer(view_cache=ViewCache())
    server.add_user("alice")
    server.add_user("bob")
    server.grant(Authorization.build("Public", URI, "+", "R"))
    return server


def republish(server, text):
    server.repository.remove_document(URI)
    server.publish_document(URI, text)


class TestRepublishedDocument:
    def test_cached_serve_sees_the_new_document(self):
        server = make_server()
        server.publish_document(URI, "<doc><secret>old</secret></doc>")
        first = server.serve(AccessRequest(alice(), URI))
        assert "<secret>old</secret>" in first.xml_text
        republish(server, "<doc><secret>new</secret></doc>")
        again = server.serve(AccessRequest(alice(), URI))
        assert "<secret>new</secret>" in again.xml_text

    def test_update_does_not_revive_a_view_of_the_removed_document(self):
        """The update's keep-proof covers the new document only; an
        entry cached from the removed one must be dropped, not
        re-stamped to the post-update version."""
        server = make_server()
        # alice reads only <shown>; bob may write <hidden>, which alice
        # never sees, so the proof keeps alice's class entry.
        server.grant(
            Authorization.build(("alice", "*", "*"), f"{URI}:/doc/hidden", "-", "R")
        )
        server.grant(
            Authorization.build(
                ("bob", "*", "*"), f"{URI}:/doc/hidden", "+", "R", action="write"
            )
        )
        server.publish_document(URI, "<doc><shown>old</shown><hidden>h</hidden></doc>")
        first = server.serve(AccessRequest(alice(), URI))
        assert "<shown>old</shown>" in first.xml_text
        republish(server, "<doc><shown>new</shown><hidden>h</hidden></doc>")
        outcome = server.update(
            UpdateRequest.of(bob(), URI, SetText("/doc/hidden", "edited"))
        )
        assert outcome.applied
        again = server.serve(AccessRequest(alice(), URI))
        assert "<shown>new</shown>" in again.xml_text
        assert "edited" not in again.xml_text


class TestVersionsPerUri:
    def test_versions_never_repeat_across_publishes(self):
        repository = Repository()
        seen = []
        for body in ("<a/>", "<b/>", "<c/>"):
            stored = repository.add_document(URI, body)
            seen.append(stored.version)
            stored.replace_tree(stored.document().clone())
            seen.append(stored.version)
            repository.remove_document(URI)
        assert len(seen) == len(set(seen))
        assert seen == sorted(seen)

    def test_the_first_document_starts_at_zero(self):
        repository = Repository()
        repository.add_document(URI, "<a/>")
        assert repository.stored(URI).version == 0

    def test_a_removed_document_takes_no_more_commits(self):
        """A writer still holding the removed document cannot move its
        version into the range its successor at the URI starts from."""
        repository = Repository()
        stored = repository.add_document(URI, "<a/>")
        repository.remove_document(URI)
        with pytest.raises(RepositoryError):
            stored.replace_tree(stored.document().clone())
        assert stored.version < repository.add_document(URI, "<b/>").version


class TestRemovalWaitsOutsideTheRepositoryLock:
    @staticmethod
    def remove_in_background(repository, stored):
        """Start ``remove_document(URI)`` on a thread; return the thread,
        an event set once it is inside ``retire`` and a list that gets
        its outcome."""
        entered = threading.Event()
        retire = stored.retire

        def traced_retire():
            entered.set()
            return retire()

        stored.retire = traced_retire
        outcome = []

        def remove():
            try:
                repository.remove_document(URI)
                outcome.append("removed")
            except RepositoryError:
                outcome.append("missing")

        worker = threading.Thread(target=remove)
        worker.start()
        return worker, entered, outcome

    def test_other_uris_stay_writable_while_a_removal_waits(self):
        """A removal waiting for a busy document (a long first parse or
        update holds its lock) must not stall the whole repository."""
        repository = Repository()
        stored = repository.add_document(URI, "<a/>")
        with stored.exclusive():
            worker, entered, outcome = self.remove_in_background(
                repository, stored
            )
            assert entered.wait(5)
            other = threading.Thread(
                target=repository.add_document,
                args=("http://x/other.xml", "<b/>"),
            )
            other.start()
            other.join(5)
            blocked = other.is_alive()
            # The URI stays taken until the removal completes.
            assert repository.has_document(URI)
            with pytest.raises(RepositoryError):
                repository.add_document(URI, "<c/>")
        worker.join(5)
        other.join(5)
        assert not blocked
        assert outcome == ["removed"]
        assert not repository.has_document(URI)
        assert repository.has_document("http://x/other.xml")

    def test_concurrent_removals_remove_once(self):
        repository = Repository()
        stored = repository.add_document(URI, "<a/>")
        with stored.exclusive():
            first, entered_first, outcome = self.remove_in_background(
                repository, stored
            )
            assert entered_first.wait(5)
            second, entered_second, second_outcome = self.remove_in_background(
                repository, stored
            )
            assert entered_second.wait(5)
        first.join(5)
        second.join(5)
        assert sorted(outcome + second_outcome) == ["missing", "removed"]


class TestRestampNeedsTheProvenVersions:
    @staticmethod
    def entry(store_version, document_version):
        return CachedView(
            "<x/>", None, False, 1, 1, [], [], store_version, document_version
        )

    def test_kept_entry_at_other_versions_is_dropped(self):
        cache = ViewCache()
        cache.put(("u", "proven"), self.entry(3, 7))
        cache.put(("u", "older"), self.entry(3, 5))
        cache.put(("u", "older-store"), self.entry(2, 7))
        kept, dropped = cache.invalidate_uri(
            "u",
            keep=lambda key, entry: True,
            versions=((3, 7), (3, 8)),
        )
        assert (kept, dropped) == (1, 2)
        assert cache.get(("u", "proven"), 3, 8) is not None
        assert cache.get(("u", "older"), 3, 8) is None
        assert cache.get(("u", "older-store"), 3, 8) is None
