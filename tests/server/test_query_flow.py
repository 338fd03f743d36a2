"""``query`` runs ``serve``'s flow on each of its three backends.

A query is a read of the requester's view, so it passes the document's
history limit and counts against it, as a serve does. Every read path
of the facade binds schema-level authorizations at one DTD URI, the one
the repository stored for the document. A query's repository failures,
stream fallbacks and guard trips are accounted like a serve's: under
the entry point's ``requests_total`` kind, with a ``fallback`` audit
record, and under the backend that tripped.
"""

import pytest

from repro.authz.authorization import Authorization
from repro.authz.restrictions import HistoryLimit
from repro.core.view import compute_view
from repro.errors import RepositoryError
from repro.limits import ResourceLimits
from repro.server.audit import AuditLog
from repro.server.request import AccessRequest, QueryRequest
from repro.server.service import AccessLimitExceeded, PolicyConfig, SecureXMLServer
from repro.subjects.hierarchy import Requester
from repro.xml.parser import parse_document
from repro.xpath.evaluator import select

URI = "http://x/d.xml"
DTD_URI = "http://x/d.dtd"
DTD_TEXT = "<!ELEMENT d (x, y)><!ELEMENT x (#PCDATA)><!ELEMENT y (#PCDATA)>"
DOCUMENT = "<d><x>public</x><y>staff</y></d>"

#: query() keyword arguments per backend.
BACKENDS = {"dom": {}, "stream": {"stream": True}, "virtual": {"virtual": True}}


def reader() -> Requester:
    return Requester("anonymous", "9.9.9.9", "h.x")


def limited_server(max_accesses: int) -> SecureXMLServer:
    server = SecureXMLServer()
    server.publish_document(
        URI,
        DOCUMENT,
        policy=PolicyConfig(history_limit=HistoryLimit(max_accesses, 3600)),
    )
    server.grant(Authorization.build("Public", f"{URI}://x", "+", "R"))
    return server


class TestHistoryLimit:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_answered_queries_use_up_the_limit(self, backend):
        server = limited_server(2)
        request = QueryRequest(reader(), URI, "/*")
        for _ in range(2):
            assert server.query(request, **BACKENDS[backend]).ok
        with pytest.raises(AccessLimitExceeded):
            server.query(request, **BACKENDS[backend])
        with pytest.raises(AccessLimitExceeded):
            server.serve(AccessRequest(reader(), URI))
        metrics = server.metrics
        assert metrics.value("requests_total", kind="query", outcome="denied") == 1
        assert metrics.value("requests_total", kind="serve", outcome="denied") == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_serves_and_queries_share_one_count(self, backend):
        server = limited_server(2)
        assert server.serve(AccessRequest(reader(), URI)).ok
        # An empty answer is an answer: it counts, as an empty view does.
        assert server.query(
            QueryRequest(reader(), URI, "//y"), **BACKENDS[backend]
        ).empty
        with pytest.raises(AccessLimitExceeded):
            server.query(QueryRequest(reader(), URI, "/*"), **BACKENDS[backend])

    def test_refusal_is_audited_as_the_query(self):
        server = limited_server(1)
        request = QueryRequest(reader(), URI, "/*")
        server.query(request)
        with pytest.raises(AccessLimitExceeded):
            server.query(request)
        record = server.audit.tail(1)[0]
        assert (record.action, record.outcome) == ("query[/*]", "denied")

    def test_other_traffic_does_not_reset_the_limit(self):
        server = SecureXMLServer(audit=AuditLog(capacity=8))
        server.publish_document(
            URI, DOCUMENT, policy=PolicyConfig(history_limit=HistoryLimit(2, 3600))
        )
        other = "http://x/other.xml"
        server.publish_document(other, DOCUMENT)
        for uri in (URI, other):
            server.grant(Authorization.build("Public", f"{uri}://x", "+", "R"))
        request = AccessRequest(reader(), URI)
        for _ in range(2):
            assert server.serve(request).ok
        with pytest.raises(AccessLimitExceeded):
            server.serve(request)
        # Eight other requesters push every record of the reader's
        # reads out of the audit ring.
        for index in range(8):
            visitor = Requester(f"visitor{index}", "8.8.8.8", "v.x")
            assert server.serve(AccessRequest(visitor, other)).ok
        assert all(record.uri == other for record in server.audit)
        with pytest.raises(AccessLimitExceeded):
            server.serve(request)
        with pytest.raises(AccessLimitExceeded):
            server.query(QueryRequest(reader(), URI, "/*"))

    def test_the_ledger_sweep_drops_only_expired_reads(self):
        server = limited_server(1)
        readers = [Requester(f"r{index}", "7.7.7.7", "r.x") for index in range(1100)]
        for requester in readers:
            assert server.serve(AccessRequest(requester, URI)).ok
        # More ledgers than the first sweep's threshold, all inside the
        # window: the sweep kept every one of them.
        for requester in readers:
            with pytest.raises(AccessLimitExceeded):
                server.serve(AccessRequest(requester, URI))
        server.set_policy(
            URI, PolicyConfig(history_limit=HistoryLimit(1, 1e-6))
        )
        for index in range(1100):
            requester = Requester(f"s{index}", "7.7.7.7", "s.x")
            assert server.serve(AccessRequest(requester, URI)).ok
        # Past the window, a later sweep dropped the expired ledgers.
        assert len(server._history) < len(readers)

    def test_a_tripped_query_does_not_count(self):
        server = limited_server(1)
        request = QueryRequest(reader(), URI, "/*")
        tripped = server.query(request, limits=ResourceLimits(deadline_seconds=0.0))
        assert not tripped.ok
        assert server.query(request).ok
        with pytest.raises(AccessLimitExceeded):
            server.query(request)


class TestDtdUriRule:
    """A parsed document with a published DTD attached, no ``dtd_uri``
    and no DOCTYPE: the attached DTD's URI is ``dtd(URI)``."""

    @staticmethod
    def server() -> SecureXMLServer:
        server = SecureXMLServer()
        server.publish_dtd(DTD_URI, DTD_TEXT)
        document = parse_document(DOCUMENT)
        document.dtd = server.repository.dtd(DTD_URI)
        server.publish_document(URI, document)
        server.grant(Authorization.build("Public", f"{DTD_URI}://y", "+", "R"))
        return server

    def test_repository_stores_the_attached_dtds_uri(self):
        assert self.server().repository.dtd_uri_of(URI) == DTD_URI

    def test_every_read_path_binds_the_schema_grant(self):
        server = self.server()
        request = AccessRequest(reader(), URI)
        shown = {
            "serve": "<y>staff</y>" in server.serve(request).xml_text,
            "serve_stream": "<y>staff</y>" in server.serve_stream(request).xml_text,
        }
        for backend, options in BACKENDS.items():
            response = server.query(QueryRequest(reader(), URI, "//y"), **options)
            shown[f"query[{backend}]"] = response.matches == ["<y>staff</y>"]
        shown["view"] = bool(select("//y", server.view(reader(), URI).document))
        explanation = server.explain(reader(), URI, xpath="//y")
        shown["explain"] = bool(explanation.targets) and all(
            explanation[node].in_view for node in explanation.targets
        )
        document = server.repository.document(URI)
        view = compute_view(document, reader(), server.store)
        shown["compute_view"] = bool(select("//y", view.document))
        assert shown == dict.fromkeys(shown, True)


class TestAccounting:
    @pytest.mark.parametrize(
        "entry_point, kind",
        [
            ("query", "query"),
            ("explain", "explain"),
            ("check_consistency", "consistency"),
            ("view", "view"),
        ],
    )
    def test_unknown_uri_counts_under_the_entry_points_kind(self, entry_point, kind):
        server = SecureXMLServer()
        missing = "http://x/missing.xml"
        calls = {
            "query": lambda: server.query(QueryRequest(reader(), missing, "//x")),
            "explain": lambda: server.explain(reader(), missing),
            "check_consistency": lambda: server.check_consistency(reader(), missing),
            "view": lambda: server.view(reader(), missing),
        }
        with pytest.raises(RepositoryError):
            calls[entry_point]()
        metrics = server.metrics
        assert metrics.value("requests_total", kind=kind, outcome="error") == 1
        assert metrics.value("requests_total", kind="serve", outcome="error") is None

    def test_stream_query_fallback_is_audited_like_serve_streams(self):
        records = {}
        for entry_point in ("serve_stream", "query"):
            server = SecureXMLServer()
            server.publish_document(URI, DOCUMENT)
            server.grant(Authorization.build("Public", URI, "+", "R"))
            # A parent step is outside the streamable subset.
            server.grant(Authorization.build("Public", f"{URI}://y/..", "+", "R"))
            if entry_point == "query":
                response = server.query(
                    QueryRequest(reader(), URI, "//y"), stream=True
                )
            else:
                response = server.serve_stream(AccessRequest(reader(), URI))
            assert response.ok
            assert (
                server.metrics.value(
                    "stream_fallback_total", reason="unsupported-path"
                )
                == 1
            )
            fallback, answered = server.audit.tail(2)
            assert answered.backend == "dom"
            records[entry_point] = (
                fallback.outcome,
                fallback.backend,
                fallback.detail,
            )
        assert records["query"] == records["serve_stream"]
        assert records["query"][:2] == ("fallback", "stream")

    def test_stream_deadline_trip_is_audited_like_serve_streams(self):
        server = limited_server(10)
        expired = ResourceLimits(deadline_seconds=0.0)
        served = server.serve_stream(AccessRequest(reader(), URI), limits=expired)
        served_record = server.audit.tail(1)[0]
        queried = server.query(
            QueryRequest(reader(), URI, "//x"), limits=expired, stream=True
        )
        query_record = server.audit.tail(1)[0]
        assert served.error_kind == queried.error_kind == "deadline-exceeded"
        assert (query_record.outcome, query_record.backend) == ("error", "stream")
        assert query_record.backend == served_record.backend
