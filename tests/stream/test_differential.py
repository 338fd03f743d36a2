"""Differential harness: ``serve_stream`` against the DOM pipeline.

The acceptance criterion for the streaming backend: for every
document/policy pair in the generated corpus, the streamed view is
byte-identical to ``serve``'s — same XML text, same loosened DTD, same
``empty`` flag, same node accounting — and queries over the streamed
view return the same matches.
"""

import pytest

from repro.limits import ResourceLimits
from repro.server.request import AccessRequest, QueryRequest
from repro.server.service import PolicyConfig, SecureXMLServer
from repro.subjects.hierarchy import Requester
from repro.workloads.generator import (
    synthetic_authorizations,
    synthetic_document,
)
from repro.workloads.scenarios import (
    LAB_DOCUMENT_URI,
    LAB_DTD_TEXT,
    LAB_DTD_URI,
    lab_authorizations,
    lab_document,
)
from repro.xml.serializer import serialize

URI = "http://bench.example/doc.xml"
DTD_URI = "http://bench.example/doc.dtd"


def requester():
    return Requester("anyone", "10.0.0.1", "host.example.com")


def build_server(document, instance, schema, policy=None):
    server = SecureXMLServer(default_policy=policy or PolicyConfig())
    server.publish_document(
        URI, serialize(document), dtd_uri=DTD_URI if schema else None
    )
    for authorization in instance + schema:
        server.grant(authorization)
    return server


def fallback_server():
    """A server whose policy has a path outside the streamable subset,
    so ``serve_stream`` falls back to the DOM pipeline."""
    from repro.authz.authorization import Authorization

    server = SecureXMLServer()
    server.publish_document(URI, "<a><b>x</b></a>")
    server.grant(Authorization.build("Public", URI, "+", "R"))
    server.grant(Authorization.build("Public", f"{URI}://b/..", "+", "R"))
    return server


def assert_responses_match(dom, stream):
    assert dom.ok and stream.ok
    assert stream.xml_text == dom.xml_text
    assert stream.loosened_dtd_text == dom.loosened_dtd_text
    assert stream.empty == dom.empty
    assert stream.visible_nodes == dom.visible_nodes
    assert stream.total_nodes == dom.total_nodes


class TestCorpusParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_generated_corpus(self, seed):
        document = synthetic_document(240, seed=seed, uri=URI)
        instance, schema = synthetic_authorizations(
            document, count=10, seed=seed
        )
        server = build_server(document, instance, schema)
        request = AccessRequest(requester(), URI)
        assert_responses_match(
            server.serve(request), server.serve_stream(request)
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "policy",
        [
            PolicyConfig(),
            PolicyConfig(open_policy=True),
            PolicyConfig(conflict_policy="permissions-take-precedence"),
            PolicyConfig(relative_paths="root"),
        ],
        ids=["closed", "open", "permissions", "root-relative"],
    )
    def test_policy_matrix(self, seed, policy):
        document = synthetic_document(160, seed=seed, uri=URI)
        instance, schema = synthetic_authorizations(
            document, count=8, seed=seed + 100
        )
        server = build_server(document, instance, schema, policy=policy)
        request = AccessRequest(requester(), URI)
        assert_responses_match(
            server.serve(request), server.serve_stream(request)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_schema_level_authorizations(self, seed):
        document = synthetic_document(160, seed=seed, uri=URI)
        instance, schema = synthetic_authorizations(
            document,
            count=10,
            seed=seed,
            dtd_uri=DTD_URI,
            schema_share=0.5,
        )
        server = build_server(document, instance, schema)
        request = AccessRequest(requester(), URI)
        assert_responses_match(
            server.serve(request), server.serve_stream(request)
        )

    def test_paper_running_example(self):
        server = SecureXMLServer()
        server.add_group("Foreign")
        server.add_group("Admin")
        server.add_user("Tom", groups=["Foreign"])
        server.publish_dtd(LAB_DTD_URI, LAB_DTD_TEXT)
        server.publish_document(
            LAB_DOCUMENT_URI, serialize(lab_document()), dtd_uri=LAB_DTD_URI
        )
        for authorization in lab_authorizations():
            server.grant(authorization)
        tom = Requester("Tom", "130.100.50.8", "infosys.bld1.it")
        request = AccessRequest(tom, LAB_DOCUMENT_URI)
        assert_responses_match(
            server.serve(request), server.serve_stream(request)
        )

    def test_empty_view(self):
        server = SecureXMLServer()
        server.publish_document(URI, "<a><b>x</b></a>")
        request = AccessRequest(requester(), URI)
        dom, stream = server.serve(request), server.serve_stream(request)
        assert dom.empty and stream.empty
        assert_responses_match(dom, stream)


class TestQueryParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_query_over_streamed_view(self, seed):
        document = synthetic_document(160, seed=seed, uri=URI)
        instance, schema = synthetic_authorizations(
            document, count=8, seed=seed
        )
        server = build_server(document, instance, schema)
        for xpath in ("//record", "//section/@kind", "//entry"):
            request = QueryRequest(requester(), URI, xpath)
            dom = server.query(request)
            stream = server.query(request, stream=True)
            assert stream.matches == dom.matches
            assert stream.visible_nodes == dom.visible_nodes
            assert stream.total_nodes == dom.total_nodes

    def test_query_over_empty_streamed_view(self):
        server = SecureXMLServer()
        server.publish_document(URI, "<a><b>x</b></a>")
        response = server.query(
            QueryRequest(requester(), URI, "//b"), stream=True
        )
        assert response.ok
        assert response.matches == []


class TestStreamingBehaviour:
    def test_sink_receives_chunks_that_concatenate_to_the_view(self):
        document = synthetic_document(300, uri=URI)
        instance, schema = synthetic_authorizations(document, count=6, seed=1)
        server = build_server(document, instance, schema)
        chunks = []
        response = server.serve_stream(
            AccessRequest(requester(), URI),
            sink=chunks.append,
            chunk_size=256,
        )
        assert response.ok
        assert "".join(chunks) == response.xml_text
        if not response.empty:
            assert len(chunks) > 1  # output left incrementally

    def test_unsupported_path_falls_back_to_dom(self):
        from repro.authz.authorization import Authorization

        server = SecureXMLServer()
        server.publish_document(URI, "<a><b>x</b></a>")
        server.grant(Authorization.build("Public", URI, "+", "R"))
        server.grant(
            Authorization.build("Public", f"{URI}://b/..", "+", "R")
        )
        request = AccessRequest(requester(), URI)
        dom, stream = server.serve(request), server.serve_stream(request)
        assert_responses_match(dom, stream)
        fallback = server.metrics.counter(
            "stream_fallback_total", reason="unsupported-path"
        )
        assert fallback.value >= 1

    def test_fallback_delivers_the_view_to_the_sink(self):
        server = fallback_server()
        chunks = []
        response = server.serve_stream(
            AccessRequest(requester(), URI), sink=chunks.append, chunk_size=4
        )
        assert response.ok and not response.empty
        assert "".join(chunks) == response.xml_text
        assert all(len(chunk) <= 4 for chunk in chunks)

    def test_fallback_runs_under_the_requests_own_deadline(self, monkeypatch):
        armed = []
        arm = ResourceLimits.deadline

        def counting_arm(limits):
            armed.append(limits)
            return arm(limits)

        monkeypatch.setattr(ResourceLimits, "deadline", counting_arm)
        server = fallback_server()
        assert server.serve_stream(AccessRequest(requester(), URI)).ok
        assert server.metrics.value(
            "stream_fallback_total", reason="unsupported-path"
        ) == 1
        assert len(armed) == 1

    def test_fallback_counts_under_serve_stream(self):
        server = fallback_server()
        assert server.serve_stream(AccessRequest(requester(), URI)).ok
        kinds = {
            metric.labels["kind"]
            for metric in server.metrics
            if metric.name == "requests_total"
        }
        assert kinds == {"serve_stream"}

    def test_stream_metrics_and_spans_are_recorded(self):
        document = synthetic_document(120, uri=URI)
        instance, schema = synthetic_authorizations(document, count=4, seed=2)
        server = build_server(document, instance, schema)
        response = server.serve_stream(AccessRequest(requester(), URI))
        assert response.ok
        assert server.metrics.counter("stream_events_total").value > 0
        assert "stream.pipeline" in response.timings
        assert "stream.compile" in response.timings
        assert "authz.bind" in response.timings

    def test_audit_marks_streamed_requests(self):
        server = SecureXMLServer()
        server.publish_document(URI, "<a><b>x</b></a>")
        server.serve_stream(AccessRequest(requester(), URI))
        entry = list(server.audit)[-1]
        assert "stream" in entry.detail
