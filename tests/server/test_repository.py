"""Tests for the document/DTD repository."""

import sys
import threading

import pytest

from repro.errors import RepositoryError, ValidationError
from repro.dtd.parser import parse_dtd
from repro.server import repository as repository_module
from repro.server.repository import Repository
from repro.xml.parser import parse_document


@pytest.fixture
def repo():
    r = Repository()
    r.add_dtd("http://x/a.dtd", "<!ELEMENT a (#PCDATA)>")
    return r


class TestDtds:
    def test_add_and_get(self, repo):
        dtd = repo.dtd("http://x/a.dtd")
        assert dtd.element("a") is not None
        assert dtd.uri == "http://x/a.dtd"

    def test_add_parsed_dtd(self, repo):
        parsed = parse_dtd("<!ELEMENT b EMPTY>")
        repo.add_dtd("http://x/b.dtd", parsed)
        assert repo.dtd("http://x/b.dtd") is parsed
        assert parsed.uri == "http://x/b.dtd"

    def test_duplicate_rejected(self, repo):
        with pytest.raises(RepositoryError, match="already published"):
            repo.add_dtd("http://x/a.dtd", "<!ELEMENT a EMPTY>")

    def test_unknown_rejected(self, repo):
        with pytest.raises(RepositoryError, match="no DTD"):
            repo.dtd("http://x/nope.dtd")

    def test_has_dtd(self, repo):
        assert repo.has_dtd("http://x/a.dtd")
        assert not repo.has_dtd("http://x/nope.dtd")


class TestDocuments:
    def test_add_text_parsed_lazily(self, repo):
        stored = repo.add_document("http://x/d.xml", "<a>hi</a>")
        assert stored.parsed is None or stored.parsed.root is not None
        document = repo.document("http://x/d.xml")
        assert document.root.name == "a"
        assert document.uri == "http://x/d.xml"

    def test_add_parsed_document(self, repo):
        parsed = parse_document("<a/>")
        repo.add_document("http://x/d.xml", parsed)
        assert repo.document("http://x/d.xml") is parsed
        assert parsed.uri == "http://x/d.xml"

    def test_duplicate_rejected(self, repo):
        repo.add_document("http://x/d.xml", "<a/>")
        with pytest.raises(RepositoryError, match="already stored"):
            repo.add_document("http://x/d.xml", "<a/>")

    def test_unknown_rejected(self, repo):
        with pytest.raises(RepositoryError, match="no document"):
            repo.document("http://x/nope.xml")

    def test_remove(self, repo):
        repo.add_document("http://x/d.xml", "<a/>")
        repo.remove_document("http://x/d.xml")
        assert not repo.has_document("http://x/d.xml")
        with pytest.raises(RepositoryError):
            repo.remove_document("http://x/d.xml")

    def test_listings(self, repo):
        repo.add_document("http://x/d.xml", "<a/>")
        assert list(repo.documents()) == ["http://x/d.xml"]
        assert list(repo.dtds()) == ["http://x/a.dtd"]


class TestDtdLinking:
    def test_explicit_dtd_uri(self, repo):
        repo.add_document("http://x/d.xml", "<a>t</a>", dtd_uri="http://x/a.dtd")
        assert repo.dtd_uri_of("http://x/d.xml") == "http://x/a.dtd"
        assert repo.document("http://x/d.xml").dtd is repo.dtd("http://x/a.dtd")

    def test_system_id_used_as_default(self, repo):
        repo.add_document(
            "http://x/d.xml", '<!DOCTYPE a SYSTEM "http://x/a.dtd"><a>t</a>'
        )
        assert repo.dtd_uri_of("http://x/d.xml") == "http://x/a.dtd"

    def test_validate_on_add(self, repo):
        with pytest.raises(ValidationError):
            repo.add_document(
                "http://x/bad.xml",
                "<a><nope/></a>",
                dtd_uri="http://x/a.dtd",
                validate_on_add=True,
            )

    def test_validate_on_add_passes(self, repo):
        repo.add_document(
            "http://x/good.xml",
            "<a>fine</a>",
            dtd_uri="http://x/a.dtd",
            validate_on_add=True,
        )
        assert repo.has_document("http://x/good.xml")

    def test_unpublished_dtd_uri_allowed(self, repo):
        repo.add_document("http://x/d.xml", "<a/>", dtd_uri="http://elsewhere/d.dtd")
        assert repo.dtd_uri_of("http://x/d.xml") == "http://elsewhere/d.dtd"


class TestParseOutsideTheRepositoryLock:
    """An eager publish parses with no repository lock held: a long
    parse at one URI holds up no publish at another."""

    def test_publish_at_another_uri_completes_during_a_slow_parse(
        self, repo, monkeypatch
    ):
        parsing = threading.Event()
        release = threading.Event()

        def slow_parse(text, uri=None, **options):
            if uri == "http://x/slow.xml":
                parsing.set()
                release.wait(10)
            return parse_document(text, uri=uri, **options)

        monkeypatch.setattr(repository_module, "parse_document", slow_parse)
        slow = threading.Thread(
            target=repo.add_document, args=("http://x/slow.xml", "<a>slow</a>")
        )
        other = threading.Thread(
            target=repo.add_document, args=("http://x/fast.xml", "<a>fast</a>")
        )
        slow.start()
        try:
            assert parsing.wait(5)
            other.start()
            other.join(5)
            blocked = other.is_alive()
            published_meanwhile = repo.has_document("http://x/fast.xml")
        finally:
            release.set()
            slow.join(5)
            if other.ident is not None:
                other.join(5)
        assert not blocked
        assert published_meanwhile
        assert not slow.is_alive() and not other.is_alive()
        assert repo.document("http://x/slow.xml").root.text() == "slow"

    def test_concurrent_publishes_at_one_uri_store_one_document(
        self, repo, monkeypatch
    ):
        # Both publishes pass the first URI check and parse side by side;
        # the check at insertion lets exactly one of them in.
        both_parsing = threading.Barrier(2, timeout=5)

        def overlapping_parse(text, **options):
            both_parsing.wait()
            return parse_document(text, **options)

        monkeypatch.setattr(
            repository_module, "parse_document", overlapping_parse
        )
        outcomes = []

        def publish(text):
            try:
                outcomes.append(("stored", repo.add_document("http://x/d.xml", text)))
            except RepositoryError as exc:
                outcomes.append(("refused", exc))

        threads = [
            threading.Thread(target=publish, args=(f"<a>{n}</a>",)) for n in (1, 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(kind for kind, _ in outcomes) == ["refused", "stored"]
        (winner,) = [stored for kind, stored in outcomes if kind == "stored"]
        assert repo.stored("http://x/d.xml") is winner
        assert list(repo.documents()) == ["http://x/d.xml"]

    def test_racing_publishes_and_removals_keep_one_document_per_uri(self):
        """Stress: more threads than cores publish and remove at a few
        URIs with a short switch interval. Every URI ends with at most
        one document, and versions at a URI never repeat."""
        repo = Repository()
        uris = [f"http://x/{n}.xml" for n in range(3)]
        seen = {uri: [] for uri in uris}
        guard = threading.Lock()

        def churn(worker):
            for step in range(40):
                uri = uris[(worker + step) % len(uris)]
                try:
                    stored = repo.add_document(uri, f"<a>{worker}.{step}</a>")
                except RepositoryError:
                    continue
                with guard:
                    seen[uri].append(stored.version)
                try:
                    repo.remove_document(uri)
                except RepositoryError:
                    pass

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for uri in uris:
            assert seen[uri], f"no publish at {uri} succeeded"
            assert len(set(seen[uri])) == len(seen[uri]), seen[uri]
        assert len(list(repo.documents())) <= len(uris)
