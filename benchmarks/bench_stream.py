#!/usr/bin/env python3
"""S1 — streaming backend vs the DOM pipeline.

Measures, per document size, through the server facade:

- median serve latency and throughput (input characters per second)
  for ``serve`` (DOM) and ``serve_stream`` (streaming), plus the
  median *cold* DOM serve: the first ``serve`` of a freshly published
  deferred-parse copy, parse included,
- peak Python-heap allocation of one request (``tracemalloc``), which
  is where the architectural difference shows: the DOM path peaks
  proportionally to the document, the streaming path to the *view
  buffer* (open-element chain + held-back markup),
- the streaming engine's own stats: events processed and peak
  pending-buffer depth/bytes,

and demonstrates the bounded-memory acceptance criterion: under a
``max_node_count`` budget 10× smaller than the document, the DOM path
fails with a typed guard trip while the streaming path still serves the
full view.

Writes the machine-readable results to ``BENCH_PR3.json`` at the
repository root.

Run:  python benchmarks/bench_stream.py [--fast|--smoke]
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Optional

sys.path.insert(0, "benchmarks")

from bench_common import URI, auth_set  # noqa: E402

from repro.limits import ResourceLimits  # noqa: E402
from repro.server.request import AccessRequest  # noqa: E402
from repro.server.service import SecureXMLServer  # noqa: E402
from repro.subjects.hierarchy import Requester  # noqa: E402
from repro.workloads.generator import synthetic_document  # noqa: E402
from repro.xml.serializer import serialize  # noqa: E402

FAST = "--fast" in sys.argv or "--smoke" in sys.argv
ROUNDS = 3 if FAST else 9
SIZES = [2_000, 10_000] if FAST else [2_000, 10_000, 50_000, 150_000]
AUTHS = 16

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_PR3.json"


def requester() -> Requester:
    return Requester("anyone", "10.0.0.1", "bench.example.com")


def document_text(nodes: int) -> str:
    return serialize(synthetic_document(nodes, uri=URI))


def build_server(
    nodes: int, text: Optional[str] = None
) -> tuple[SecureXMLServer, int]:
    if text is None:
        text = document_text(nodes)
    instance, schema = auth_set(AUTHS)
    server = SecureXMLServer()
    # Text + deferred parse: the streaming path reads the stored text
    # directly; the DOM path parses it per request-cache rules.
    server.publish_document(URI, text, defer_parse=True)
    for authorization in instance:
        server.grant(authorization)
    return server, len(text)


def median_ms(fn, *args, **kwargs) -> float:
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        response = fn(*args, **kwargs)
        samples.append((time.perf_counter() - start) * 1000)
        assert response.ok, response.error
    return statistics.median(samples)


def cold_serve_ms(text: str) -> float:
    """Median latency of the first ``serve`` on a fresh server that
    stores *text* unparsed: the parse, the labeling, the pruning and
    the serialization of one DOM request from nothing."""
    samples = []
    for _ in range(ROUNDS):
        server, _ = build_server(0, text)
        request = AccessRequest(requester(), URI)
        start = time.perf_counter()
        response = server.serve(request)
        samples.append((time.perf_counter() - start) * 1000)
        assert response.ok, response.error
    return statistics.median(samples)


def peak_kib(nodes: int, backend: str) -> float:
    """Peak heap of one *cold* request (fresh server, deferred parse).

    Cold measures what matters architecturally: the DOM path's first
    request parses and materializes the whole tree, the streaming path
    never does — its peak is the held-back markup, the open-element
    chain and the collected response text.
    """
    server, _ = build_server(nodes)
    request = AccessRequest(requester(), URI)
    fn = server.serve if backend == "dom" else server.serve_stream
    tracemalloc.start()
    try:
        response = fn(request)
        assert response.ok, response.error
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024


def bench_size(nodes: int) -> dict:
    text = document_text(nodes)
    server, chars = build_server(nodes, text)
    request = AccessRequest(requester(), URI)
    # Warm up once so the lazy first parse doesn't skew either side
    # (the server runs without a view cache, so every serve recomputes).
    server.serve(request)

    def serve_dom():
        return server.serve(request)

    def serve_stream():
        return server.serve_stream(request)

    dom_ms = median_ms(serve_dom)
    stream_ms = median_ms(serve_stream)
    dom_peak = peak_kib(nodes, "dom")
    stream_peak = peak_kib(nodes, "stream")
    response = server.serve_stream(request)
    events = server.metrics.counter("stream_events_total").value
    buffer_depth = server.metrics.histogram("stream_peak_buffer_depth")
    row = {
        "nodes": nodes,
        "input_chars": chars,
        "visible_nodes": response.visible_nodes,
        "total_nodes": response.total_nodes,
        "dom": {
            "p50_ms": round(dom_ms, 3),
            "throughput_mchars_s": round(chars / dom_ms / 1000, 3),
            "peak_heap_kib": round(dom_peak, 1),
        },
        "stream": {
            "p50_ms": round(stream_ms, 3),
            "throughput_mchars_s": round(chars / stream_ms / 1000, 3),
            "peak_heap_kib": round(stream_peak, 1),
        },
        "stream_stats": {
            "events_per_request": int(events) // (ROUNDS + 1),
            "peak_buffer_depth_p95": buffer_depth.quantile(0.95),
        },
    }
    cold_ms = cold_serve_ms(text)
    row["dom_cold"] = {
        "p50_ms": round(cold_ms, 3),
        "throughput_mchars_s": round(chars / cold_ms / 1000, 3),
    }
    return row


def bounded_memory_demo() -> dict:
    """DOM trips its node budget; streaming serves the same document."""
    nodes = 40_000
    server, chars = build_server(nodes)
    request = AccessRequest(requester(), URI)
    budget = server.serve_stream(request).total_nodes // 10
    limits = dataclasses.replace(
        ResourceLimits.unlimited(), max_node_count=budget
    )
    dom = server.serve(request, limits=limits)
    stream = server.serve_stream(request, limits=limits)
    assert not dom.ok and dom.error.limit == "max_node_count"
    assert stream.ok
    return {
        "document_nodes": stream.total_nodes,
        "max_node_count_budget": budget,
        "dom_outcome": f"failed: {dom.error.limit}",
        "stream_outcome": (
            f"served {stream.visible_nodes}/{stream.total_nodes} nodes"
        ),
        "input_chars": chars,
    }


def main() -> None:
    print("# S1 — streaming vs DOM enforcement")
    print(f"rounds per measurement: {ROUNDS}")
    print()
    print(
        "| nodes | DOM p50 (ms) | DOM cold p50 (ms) | stream p50 (ms) "
        "| DOM peak (KiB) | stream peak (KiB) |"
    )
    print("|---|---|---|---|---|---|")
    results = []
    for nodes in SIZES:
        row = bench_size(nodes)
        results.append(row)
        print(
            f"| {nodes} | {row['dom']['p50_ms']} "
            f"| {row['dom_cold']['p50_ms']} "
            f"| {row['stream']['p50_ms']} "
            f"| {row['dom']['peak_heap_kib']} "
            f"| {row['stream']['peak_heap_kib']} |"
        )
    demo = bounded_memory_demo()
    print()
    print(f"bounded-memory demo: DOM {demo['dom_outcome']}, "
          f"stream {demo['stream_outcome']} "
          f"(budget {demo['max_node_count_budget']} nodes)")
    BENCH_JSON.write_text(
        json.dumps(
            {
                "source": "benchmarks/bench_stream.py (section S1)",
                "fast": FAST,
                "sizes": results,
                "bounded_memory": demo,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {BENCH_JSON}")


if __name__ == "__main__":
    main()
