#!/usr/bin/env python3
"""Regenerate every experiment series in EXPERIMENTS.md.

Runs the C1-C7 / A1-A2 measurements of DESIGN.md's experiment index
directly (median of repeated runs via ``time.perf_counter``) and prints
the tables EXPERIMENTS.md records. For statistically rigorous numbers
use the pytest-benchmark suite (``pytest benchmarks/ --benchmark-only``);
this script favours one-command reproducibility of the *shapes*.

The final section (O1) drives the tracing hooks of ``repro.obs``
through the server facade, prints per-stage p50/p95 latencies for the
serve/query workloads, and writes the machine-readable baseline to
``BENCH_PR2.json`` at the repository root (see docs/OBSERVABILITY.md).

Run:  python benchmarks/run_report.py [--fast]
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, "benchmarks")

from bench_common import (  # noqa: E402
    DTD_URI,
    URI,
    auth_set,
    deep_doc,
    document_of_size,
    hierarchy,
    public_auth,
    wide_doc,
)

from repro.authz.conflict import (  # noqa: E402
    DenialsTakePrecedence,
    MajorityTakesPrecedence,
    NothingTakesPrecedence,
    PermissionsTakePrecedence,
)
from repro.core.baseline import compute_view_naive  # noqa: E402
from repro.core.processor import SecurityProcessor  # noqa: E402
from repro.core.view import compute_view_from_auths  # noqa: E402
from repro.dtd.generator import InstanceGenerator  # noqa: E402
from repro.dtd.loosen import loosen  # noqa: E402
from repro.dtd.parser import parse_dtd  # noqa: E402
from repro.dtd.validator import validate  # noqa: E402
from repro.obs.trace import tracing  # noqa: E402
from repro.subjects.hierarchy import SubjectHierarchy  # noqa: E402
from repro.workloads.scenarios import LAB_DTD_TEXT  # noqa: E402
from repro.xml.serializer import serialize  # noqa: E402
from repro.xml.traversal import count_nodes  # noqa: E402
from repro.xpath.evaluator import select  # noqa: E402

FAST = "--fast" in sys.argv
ROUNDS = 3 if FAST else 7


def timed(fn, *args, **kwargs) -> float:
    """Median wall-clock milliseconds over ROUNDS runs."""
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn(*args, **kwargs)
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def table(title: str, header: list[str], rows: list[list[str]]) -> None:
    print()
    print(f"### {title}")
    print()
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        print("| " + " | ".join(row) + " |")


def c1_view_scaling() -> None:
    instance, schema = auth_set(24)
    rows = []
    for nodes in (500, 2000, 8000):
        document = document_of_size(nodes)
        fast = timed(
            compute_view_from_auths, document, instance, schema, hierarchy()
        )
        naive = timed(compute_view_naive, document, instance, schema, hierarchy())
        rows.append(
            [str(nodes), f"{fast:.1f}", f"{naive:.1f}", f"{naive / fast:.2f}x"]
        )
    table(
        "C1 — view computation vs document size (24 auths)",
        ["nodes", "compute-view (ms)", "naive baseline (ms)", "baseline/view"],
        rows,
    )


def c2_auth_scaling() -> None:
    document = document_of_size(2000)
    rows = []
    for auths in (4, 16, 64, 256):
        instance, schema = auth_set(auths)
        fast = timed(
            compute_view_from_auths, document, instance, schema, hierarchy()
        )
        rows.append([str(auths), f"{fast:.1f}"])
    table(
        "C2 — view computation vs |Auth| (2000-node document)",
        ["authorizations", "compute-view (ms)"],
        rows,
    )


def c3_pipeline() -> None:
    document = document_of_size(4000)
    instance, schema = auth_set(24)
    text = serialize(document)
    processor = SecurityProcessor(hierarchy=hierarchy())
    processor.process_text(text, instance, schema, URI)  # warm caches
    # Each step's span totals, traced and medianized, under the paper's
    # step names.
    stages = {
        "parse": "parse.xml",
        "label": "label",
        "transform": "prune",
        "unparse": "serialize",
    }
    steps = {step: [] for step in stages}
    for _ in range(ROUNDS):
        with tracing():
            output = processor.process_text(text, instance, schema, URI)
        for step, stage in stages.items():
            steps[step].append(output.timings.get(stage, 0.0) * 1000)
    rows = [
        [step, f"{statistics.median(values):.1f}"]
        for step, values in steps.items()
    ]
    total = sum(statistics.median(values) for values in steps.values())
    rows.append(["total", f"{total:.1f}"])
    table(
        "C3 — per-step cost of the 4-step processor (4000 nodes, 24 auths)",
        ["step", "median (ms)"],
        rows,
    )


def c4_shape() -> None:
    auths = [
        public_auth("//level[./@n='3']", "+", "R"),
        public_auth("//item", "+", "R"),
        public_auth("//level[./@n='700']", "-", "R"),
    ]
    rows = []
    for label, document in (("deep (chain of 1500)", deep_doc(1500)),
                            ("wide (1500 siblings)", wide_doc(1500))):
        fast = timed(compute_view_from_auths, document, auths, [], hierarchy())
        naive = timed(compute_view_naive, document, auths, [], hierarchy())
        rows.append([label, f"{fast:.1f}", f"{naive:.1f}", f"{naive / fast:.1f}x"])
    table(
        "C4 — tree shape at constant size",
        ["shape", "compute-view (ms)", "naive baseline (ms)", "baseline/view"],
        rows,
    )


def c5_xpath() -> None:
    document = document_of_size(4000)
    expressions = {
        "child path": "/archive/section/record",
        "descendant //": "//title",
        "condition [@kind=...]": '//section[./@kind="private"]',
        "attribute step": "//record/@id",
        "ancestor axis": "//title/ancestor::section",
        "union": "//title | //body",
    }
    rows = []
    for label, expression in expressions.items():
        cost = timed(select, expression, document)
        count = len(select(expression, document))
        rows.append([label, f"{cost:.1f}", str(count)])
    table(
        "C5 — XPath evaluation on a 4000-node document",
        ["expression shape", "median (ms)", "selected nodes"],
        rows,
    )


def c6_subjects() -> None:
    from repro.authz.store import AuthorizationStore
    from repro.subjects.hierarchy import Requester, SubjectSpec
    from repro.workloads.generator import populate_directory

    store = AuthorizationStore()
    users, groups = populate_directory(
        store.hierarchy.directory, users=50, groups=16, nesting=15
    )
    for index in range(256):
        store.add(
            public_auth(f"//n{index}", uri="http://x/d.xml")
        )
    requester = Requester(users[0], "150.1.2.3", "host0.lab.com")
    applicable = timed(store.applicable, requester, "http://x/d.xml")
    lower = SubjectSpec.parse(users[3], "150.100.30.8", "pc.lab.com")
    upper = SubjectSpec.parse(groups[0], "150.100.*", "*.lab.com")
    dominance = timed(
        lambda: [store.hierarchy.dominates(lower, upper) for _ in range(1000)]
    )
    table(
        "C6 — subject hierarchy costs (16 nested groups, 256 auths)",
        ["operation", "median (ms)"],
        [
            ["applicable(requester, uri) over 256 auths", f"{applicable:.2f}"],
            ["1000 x dominates(rq, subject)", f"{dominance:.2f}"],
        ],
    )


def c7_dtd() -> None:
    dtd = parse_dtd(LAB_DTD_TEXT)
    rows = []
    for label, factor in (("small instance", 2.0), ("large instance", 8.0)):
        document = InstanceGenerator(dtd, seed=7, repeat_factor=factor).document()
        nodes = count_nodes(document.root)
        cost = timed(validate, document, dtd)
        rows.append([f"{label} ({nodes} nodes)", f"{cost:.2f}"])
    rows.append(["loosen(DTD)", f"{timed(loosen, dtd):.3f}"])
    table("C7 — DTD validation and loosening", ["operation", "median (ms)"], rows)


def a1_policies() -> None:
    from repro.authz.authorization import Authorization

    document = document_of_size(2000)
    sh = SubjectHierarchy()
    for name in ("A", "B", "C"):
        sh.directory.add_group(name)
    auths = [
        Authorization.build(("A", "*", "*"), f"{URI}://archive", "+", "R"),
        Authorization.build(("B", "*", "*"), f"{URI}://archive", "-", "R"),
        Authorization.build(("C", "*", "*"), f"{URI}://archive", "+", "R"),
        Authorization.build(("A", "*", "*"), f'{URI}://section[./@kind="private"]', "-", "R"),
        Authorization.build(("B", "*", "*"), f'{URI}://section[./@kind="private"]', "+", "R"),
    ]
    rows = []
    for policy in (
        DenialsTakePrecedence(),
        PermissionsTakePrecedence(),
        NothingTakesPrecedence(),
        MajorityTakesPrecedence(),
    ):
        result = compute_view_from_auths(document, auths, [], sh, policy)
        cost = timed(compute_view_from_auths, document, auths, [], sh, policy)
        rows.append(
            [policy.name, f"{cost:.1f}", f"{result.visible_nodes}/{result.total_nodes}"]
        )
    table(
        "A1 — conflict-policy ablation (conflict-heavy workload)",
        ["policy", "median (ms)", "visible nodes"],
        rows,
    )


def a2_weak() -> None:
    document = document_of_size(2000)
    schema_denials = [
        public_auth('//section[./@kind="private"]', "-", "R", uri=DTD_URI),
        public_auth('//record[./@kind="restricted"]', "-", "R", uri=DTD_URI),
    ]
    rows = []
    for strength in ("R", "RW"):
        grants = [public_auth("//archive", "+", strength)]
        result = compute_view_from_auths(
            document, grants, schema_denials, SubjectHierarchy()
        )
        cost = timed(
            compute_view_from_auths, document, grants, schema_denials,
            SubjectHierarchy(),
        )
        rows.append(
            [strength, f"{cost:.1f}", f"{result.visible_nodes}/{result.total_nodes}"]
        )
    table(
        "A2 — weak vs strong grant against schema denials",
        ["grant type", "median (ms)", "visible nodes"],
        rows,
    )


def a3_cache() -> None:
    from repro.authz.authorization import Authorization
    from repro.server.cache import ViewCache
    from repro.server.request import AccessRequest
    from repro.server.service import SecureXMLServer
    from repro.subjects.hierarchy import Requester

    rows = []
    for label, cached in (("no cache", False), ("view cache", True)):
        server = SecureXMLServer(view_cache=ViewCache() if cached else None)
        server.publish_document(URI, serialize(document_of_size(4000)))
        server.grant(Authorization.build("Public", f"{URI}://archive", "+", "R"))
        request = AccessRequest(Requester("anonymous", "9.9.9.9", "h.x"), URI)
        server.serve(request)  # warm
        cost = timed(server.serve, request)
        rows.append([label, f"{cost:.2f}"])
    table(
        "A3 — server view cache (repeated identical-entitlement requests, 4000 nodes)",
        ["configuration", "median serve (ms)"],
        rows,
    )


def a4_selectivity() -> None:
    from repro.subjects.hierarchy import SubjectHierarchy

    document = document_of_size(4000)
    cases = {
        "grant-none": [public_auth('//section[./@kind="nosuch"]', "+", "R")],
        "grant-quarter": [public_auth('//section[./@kind="private"]', "+", "R")],
        "grant-half": [
            public_auth('//section[./@kind="private"]', "+", "R"),
            public_auth('//section[./@kind="public"]', "+", "R"),
        ],
        "grant-all": [public_auth("//archive", "+", "R")],
    }
    rows = []
    for label, auths in cases.items():
        result = compute_view_from_auths(document, auths, [], SubjectHierarchy())
        cost = timed(
            compute_view_from_auths, document, auths, [], SubjectHierarchy()
        )
        rows.append(
            [label, f"{cost:.1f}", f"{result.visible_nodes}/{result.total_nodes}"]
        )
    table(
        "A4 — authorization selectivity sweep (4000 nodes)",
        ["grant share", "median (ms)", "visible nodes"],
        rows,
    )


OBS_ITERATIONS = 8 if FAST else 25
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_PR2.json"


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


def _serve_server(document, grants, view_cache=None):
    from repro.server.service import SecureXMLServer

    server = SecureXMLServer(view_cache=view_cache)
    server.publish_document(URI, serialize(document))
    for grant in grants:
        server.grant(grant)
    return server


def _obs_workloads():
    """name -> zero-arg request function returning a traced response.

    Every workload funnels through ``SecureXMLServer`` so the measured
    breakdown is exactly what ``response.timings`` reports in
    production, not a reconstruction.
    """
    from repro.server.cache import ViewCache
    from repro.server.request import AccessRequest, QueryRequest
    from repro.subjects.hierarchy import Requester

    requester = Requester("anonymous", "9.9.9.9", "h.x")
    grants = [
        public_auth("//archive", "+", "R"),
        public_auth('//section[./@kind="private"]', "-", "R"),
    ]
    deep_grants = [
        public_auth("//item", "+", "R"),
        public_auth("//level[./@n='3']", "+", "R"),
    ]
    workloads = {}

    for name, nodes in (("serve-synthetic-2000", 2000),
                        ("serve-synthetic-8000", 8000)):
        server = _serve_server(document_of_size(nodes), grants)
        workloads[name] = (
            lambda s=server: s.serve(AccessRequest(requester, URI))
        )

    server_deep = _serve_server(deep_doc(1500), deep_grants)
    workloads["serve-deep-1500"] = (
        lambda: server_deep.serve(AccessRequest(requester, URI))
    )
    server_wide = _serve_server(wide_doc(1500), deep_grants)
    workloads["serve-wide-1500"] = (
        lambda: server_wide.serve(AccessRequest(requester, URI))
    )

    server_cached = _serve_server(
        document_of_size(4000), grants, view_cache=ViewCache()
    )
    server_cached.serve(AccessRequest(requester, URI))  # warm the cache
    workloads["serve-cached-4000"] = (
        lambda: server_cached.serve(AccessRequest(requester, URI))
    )

    server_query = _serve_server(document_of_size(2000), grants)
    workloads["query-synthetic-2000"] = (
        lambda: server_query.query(QueryRequest(requester, URI, "//record"))
    )
    return workloads


def _disabled_overhead() -> dict:
    """Cost of the tracing hooks when no tracer is active.

    Methodology: the hooks are unconditionally compiled in, so the
    hook-free baseline cannot be timed directly. Instead (a) compare
    the bench_pipeline.py full cycle with tracing disabled vs enabled,
    and (b) microbenchmark the disabled ``span()`` call and multiply by
    the span count of one cycle — an upper bound on what the disabled
    hooks can add.
    """
    from repro.obs.trace import Tracer, span, tracing

    document = document_of_size(4000)
    instance, schema = auth_set(24)
    text = serialize(document)
    processor = SecurityProcessor(hierarchy=hierarchy())
    processor.process_text(text, instance, schema, URI)  # warm caches

    disabled_ms = timed(processor.process_text, text, instance, schema, URI)
    enabled_samples = []
    for _ in range(ROUNDS):
        tracer = Tracer()
        start = time.perf_counter()
        with tracing(tracer):
            processor.process_text(text, instance, schema, URI)
        enabled_samples.append((time.perf_counter() - start) * 1000)
    enabled_ms = statistics.median(enabled_samples)

    counter = Tracer()
    with tracing(counter):
        processor.process_text(text, instance, schema, URI)
    span_calls = len(counter.spans)

    loops = 100_000
    start = time.perf_counter()
    for _ in range(loops):
        with span("noop"):
            pass
    noop_ns = (time.perf_counter() - start) / loops * 1e9

    overhead_pct = (noop_ns * span_calls) / (disabled_ms * 1e6) * 100
    return {
        "workload": "bench_pipeline.py full cycle (4000 nodes, 24 auths)",
        "disabled_ms": round(disabled_ms, 3),
        "enabled_ms": round(enabled_ms, 3),
        "span_calls_per_cycle": span_calls,
        "noop_span_ns": round(noop_ns, 1),
        "disabled_overhead_pct": round(overhead_pct, 4),
    }


def o1_obs_baseline() -> None:
    from repro.obs.trace import Tracer, tracing

    workload_stats: dict[str, dict] = {}
    rows = []
    for name, request in _obs_workloads().items():
        samples: dict[str, list[float]] = {}
        for _ in range(OBS_ITERATIONS):
            with tracing(Tracer()):
                response = request()
            for stage, seconds in response.timings.items():
                samples.setdefault(stage, []).append(seconds * 1000)
        stages = {
            stage: {
                "p50_ms": round(_percentile(values, 0.50), 3),
                "p95_ms": round(_percentile(values, 0.95), 3),
                "p99_ms": round(_percentile(values, 0.99), 3),
                "samples": len(values),
            }
            for stage, values in sorted(samples.items())
        }
        workload_stats[name] = {
            "iterations": OBS_ITERATIONS,
            "stages": stages,
        }
        for stage, latency in stages.items():
            rows.append([
                name,
                stage,
                f"{latency['p50_ms']:.3f}",
                f"{latency['p95_ms']:.3f}",
                f"{latency['p99_ms']:.3f}",
            ])
    table(
        "O1 — per-stage request latency via repro.obs tracing",
        ["workload", "stage", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        rows,
    )

    overhead = _disabled_overhead()
    table(
        "O1 — tracing overhead when disabled (bench_pipeline.py workload)",
        ["measure", "value"],
        [[key, str(value)] for key, value in overhead.items()],
    )

    BENCH_JSON.write_text(
        json.dumps(
            {
                "source": "benchmarks/run_report.py (section O1)",
                "fast": FAST,
                "workloads": workload_stats,
                "disabled_overhead": overhead,
            },
            indent=2,
        )
        + "\n"
    )
    print()
    print(f"wrote {BENCH_JSON}")


BENCH_PR4_JSON = Path(__file__).resolve().parent.parent / "BENCH_PR4.json"


def o2_provenance() -> None:
    """Cost of asking *why* on the auction workload.

    Three medians over the same request:

    - **label**: the plain labeling pass, :meth:`TreeLabeler.run`;
    - **explain_document**: :func:`explain_from_auths` — that pass plus
      every node's provenance, derived from its root path;
    - **explain_node**: :func:`explain` for the document's deepest
      element — a bind plus that node's root path and subtree.

    Provenance is derived after labeling, not recorded during it, so
    the labeling pass has no provenance hooks whose overhead needs a
    bound.
    """
    from repro.core.explain import explain, explain_from_auths
    from repro.core.labeling import TreeLabeler
    from repro.workloads.auction import AUCTION_SITE_URI, auction_scenario
    from repro.xml.traversal import count_nodes, depth, iter_elements, node_path

    scenario = auction_scenario(seed=3, people=6 if FAST else 24)
    server = scenario.server
    requester = scenario.fraud_officer
    now = time.time()
    instance = server.store.applicable(requester, AUCTION_SITE_URI, "read", at=now)
    dtd_uri = server.repository.dtd_uri_of(AUCTION_SITE_URI)
    schema = server.store.applicable(requester, dtd_uri, "read", at=now)
    document = server.repository.stored(AUCTION_SITE_URI).document()
    nodes = count_nodes(document.root)
    deepest = max(iter_elements(document.root), key=depth)

    def label():
        TreeLabeler(document, instance, schema, server.hierarchy).run()

    def explain_document():
        explain_from_auths(document, instance, schema, server.hierarchy)

    def explain_node():
        explain(document, deepest, requester, server.store, dtd_uri=dtd_uri)

    label()  # warm path caches
    label_ms = timed(label)
    document_ms = timed(explain_document)
    node_ms = timed(explain_node)

    payload = {
        "source": "benchmarks/run_report.py (section O2)",
        "fast": FAST,
        "workload": {
            "scenario": "auction (XMark-inspired)",
            "nodes": nodes,
            "instance_auths": len(instance),
            "schema_auths": len(schema),
            "requester": "fraud-officer",
            "explained_node": node_path(deepest),
        },
        "label_ms": round(label_ms, 3),
        "explain_document_ms": round(document_ms, 3),
        "explain_node_ms": round(node_ms, 3),
    }
    table(
        "O2 — provenance cost (auction workload)",
        ["measure", "value"],
        [
            [key, str(value)]
            for key, value in payload.items()
            if key not in ("source", "workload")
        ],
    )
    BENCH_PR4_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"wrote {BENCH_PR4_JSON}")


BENCH_PR5_JSON = Path(__file__).resolve().parent.parent / "BENCH_PR5.json"


class _CountingLock:
    """Context-manager/acquire-release proxy that counts acquisitions.

    Swapped in for a structure's ``_lock`` before any request runs, it
    measures exactly how many lock acquisitions one request performs —
    the input for the deterministic overhead bound below.
    """

    __slots__ = ("inner", "acquisitions")

    def __init__(self, inner):
        self.inner = inner
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        return self.inner.__exit__(*exc_info)

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self.inner.acquire(*args, **kwargs)

    def release(self):
        return self.inner.release()


def _lock_pair_ns(lock) -> float:
    """Median nanoseconds of one uncontended ``with lock: pass``."""
    loops = 50_000
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(loops):
            with lock:
                pass
        samples.append((time.perf_counter() - start) / loops * 1e9)
    return statistics.median(samples)


def _concurrency_server(view_cache=True):
    from repro.server.cache import ViewCache
    from repro.server.service import SecureXMLServer

    server = SecureXMLServer(view_cache=ViewCache() if view_cache else None)
    server.publish_document(URI, serialize(document_of_size(2000)))
    server.grant(public_auth("//archive", "+", "R"))
    server.grant(public_auth('//section[./@kind="private"]', "-", "R"))
    return server


def c1_concurrency() -> None:
    """Concurrent serving: throughput sweep, single-flight collapse,
    and the single-thread cost of the locks that make it safe.

    Three measurements, written to ``BENCH_PR5.json``:

    - **threads x workload throughput**: one server, a mixed
      serve/query batch through :func:`repro.server.concurrent.serve_many`
      at 1/2/4/8 workers;
    - **single-flight**: 8 simultaneous cold misses on one cache key
      must perform exactly ONE labeling pass (asserted) where a naive
      cache would do 8;
    - **locking overhead**: every ``_lock`` a warm cached serve touches
      is replaced by a counting proxy, the exact acquisition count is
      multiplied by the microbenchmarked uncontended acquire/release
      cost, and the product is bounded against the serve p50 —
      required <= 2 % (asserted), mirroring the O2 methodology.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.obs.metrics import MetricsRegistry
    from repro.server.cache import ViewCache
    from repro.server.concurrent import serve_many
    from repro.server.request import AccessRequest, QueryRequest
    from repro.server.service import SecureXMLServer
    from repro.subjects.hierarchy import Requester

    requester = Requester("anonymous", "9.9.9.9", "h.x")

    # -- threads x throughput -------------------------------------------------
    server = _concurrency_server()
    workload = []
    for _ in range(10 if FAST else 30):
        workload.append(AccessRequest(requester, URI))
        workload.append(AccessRequest(Requester(), URI))
        workload.append(QueryRequest(requester, URI, "//record"))
    serve_many(server, workload, max_workers=2)  # warm caches and pools
    throughput = {}
    rows = []
    for workers in (1, 2, 4, 8):
        cost_ms = timed(serve_many, server, workload, max_workers=workers)
        rps = len(workload) / (cost_ms / 1000)
        throughput[str(workers)] = {
            "batch_ms": round(cost_ms, 2),
            "requests_per_s": round(rps, 0),
        }
        rows.append([str(workers), f"{cost_ms:.1f}", f"{rps:.0f}"])
    table(
        "C1 — concurrent serving throughput (mixed serve/query batch of "
        f"{len(workload)})",
        ["workers", "batch (ms)", "requests/s"],
        rows,
    )

    # -- single-flight: N cold misses, one labeling ---------------------------
    flight_threads = 8
    labelings, shared_counts = [], []
    for _ in range(ROUNDS):
        cold = _concurrency_server()
        barrier = threading.Barrier(flight_threads)
        request = AccessRequest(requester, URI)

        def one():
            barrier.wait()
            return cold.serve(request)

        with ThreadPoolExecutor(max_workers=flight_threads) as pool:
            for future in [pool.submit(one) for _ in range(flight_threads)]:
                future.result()
        labelings.append(
            cold.metrics.histogram("stage_seconds", stage="label").count
        )
        shared_counts.append(cold.view_cache.stats()["shared"])
    assert all(count == 1 for count in labelings), (
        f"single-flight must label once per key, saw {labelings}"
    )
    single_flight = {
        "concurrent_cold_misses": flight_threads,
        "labeling_passes": max(labelings),
        "labelings_without_single_flight": flight_threads,
        "shared_per_round": shared_counts,
    }
    table(
        "C1 — single-flight collapse (8 simultaneous cold misses)",
        ["measure", "value"],
        [[key, str(value)] for key, value in single_flight.items()],
    )

    # -- single-thread locking overhead bound ---------------------------------
    # Methodology (O2 precedent: deterministic microbenchmark bound):
    # every lock a request can touch is replaced by a counting proxy,
    # the exact per-request acquisition count is multiplied by the
    # measured uncontended acquire/release cost, and the product is
    # bounded against the workload's own serve p50. Probed on the two
    # O1 serving workloads that bracket the range: the warm cached
    # serve (serve-cached-4000 — the worst case: the request is tens of
    # microseconds, so the locks are proportionally largest) and the
    # uncached labeling serve (serve-synthetic-2000, ms-scale). The
    # audit ring and fault-injector fast paths are lock-free by design
    # and contribute zero acquisitions.
    lock_ns = _lock_pair_ns(threading.Lock())
    rlock_ns = _lock_pair_ns(threading.RLock())
    probe_requests = 50
    locking_workloads = {}
    worst_pct = 0.0
    for workload_name, cached in (
        ("serve-cached-4000 (warm hit)", True),
        ("serve-synthetic-2000 (uncached)", False),
    ):
        metrics = MetricsRegistry()
        metrics_lock = _CountingLock(metrics._lock)
        metrics._lock = metrics_lock  # before any metric exists
        # NB: identity tests — an empty ViewCache is falsy (__len__).
        cache = ViewCache() if cached else None
        cache_lock = _CountingLock(cache._lock) if cache is not None else None
        if cache is not None:
            cache._lock = cache_lock
        guarded = SecureXMLServer(view_cache=cache, metrics=metrics)
        guarded.publish_document(
            URI, serialize(document_of_size(4000 if cached else 2000))
        )
        guarded.grant(public_auth("//archive", "+", "R"))
        request = AccessRequest(requester, URI)
        guarded.serve(request)  # warm: parse once, fill the cache
        metrics_before = metrics_lock.acquisitions
        cache_before = cache_lock.acquisitions if cache_lock is not None else 0
        samples = []
        for _ in range(probe_requests):
            start = time.perf_counter()
            guarded.serve(request)
            samples.append((time.perf_counter() - start) * 1000)
        serve_p50_ms = statistics.median(samples)
        metrics_per_request = (
            metrics_lock.acquisitions - metrics_before
        ) / probe_requests
        cache_per_request = (
            (cache_lock.acquisitions - cache_before) / probe_requests
            if cache_lock is not None
            else 0.0
        )
        overhead_ns = metrics_per_request * lock_ns + cache_per_request * rlock_ns
        overhead_pct = overhead_ns / (serve_p50_ms * 1e6) * 100
        worst_pct = max(worst_pct, overhead_pct)
        locking_workloads[workload_name] = {
            "serve_p50_ms": round(serve_p50_ms, 4),
            "lock_acquisitions_per_request": {
                "metrics": round(metrics_per_request, 1),
                "view_cache": round(cache_per_request, 1),
                "audit": 0.0,  # lock-free deque append
            },
            "overhead_ns": round(overhead_ns, 0),
            "overhead_pct": round(overhead_pct, 4),
        }

    payload = {
        "source": "benchmarks/run_report.py (section C1-concurrency)",
        "fast": FAST,
        "throughput_by_workers": throughput,
        "single_flight": single_flight,
        "locking": {
            "uncontended_lock_ns": round(lock_ns, 1),
            "uncontended_rlock_ns": round(rlock_ns, 1),
            "workloads": locking_workloads,
            "worst_overhead_pct": round(worst_pct, 4),
            "overhead_budget_pct": 2.0,
        },
    }
    assert worst_pct <= 2.0, (
        f"single-thread locking overhead bound {worst_pct:.4f}% "
        "exceeds the 2% budget"
    )
    table(
        "C1 — single-thread locking overhead (per O1 workload)",
        ["workload", "p50 (ms)", "locks/request", "overhead"],
        [
            [
                name,
                f"{stats['serve_p50_ms']:.4f}",
                str(sum(stats["lock_acquisitions_per_request"].values())),
                f"{stats['overhead_pct']:.4f}%",
            ]
            for name, stats in locking_workloads.items()
        ],
    )
    BENCH_PR5_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"wrote {BENCH_PR5_JSON}")


BENCH_PR6_JSON = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"


def c2_pool() -> None:
    """Multi-process pool scaling and degraded-mode correctness.

    BENCH_PR5 established the GIL wall: thread-level serve_many tops
    out around one core no matter the worker count. This section
    measures what the shared-nothing process pool buys back:

    - **workers x throughput**: the same cache-disabled, CPU-bound
      mixed serve/query batch through ``ShardedServerPool`` at
      1/2/4 workers, against a sequential in-process baseline;
    - **scaling gate**: on a >= 4-CPU box, 4 workers must deliver
      >= 2.5x the 1-worker throughput (asserted). On smaller boxes the
      number is recorded but the gate is not enforced — processes
      cannot beat physics, and CI (4 vCPU) holds the line;
    - **degraded-mode correctness**: with every shard breaker forced
      open the pool serves in-process, and each response must be
      byte-identical to the sequential reference (asserted).
    """
    import os

    from repro.server.concurrent import dispatch
    from repro.server.pool import ShardedServerPool
    from repro.server.supervisor import RestartPolicy
    from repro.workloads.traffic import TrafficSpec, request_stream

    spec = TrafficSpec(
        documents=4 if FAST else 8,
        nodes_per_document=200 if FAST else 400,
        seed=17,
        view_cache=False,  # every request pays the full labeling pass
    )
    requests = list(request_stream(spec, 40 if FAST else 120, seed=9))
    pool_rounds = 2 if FAST else 3

    # -- sequential baseline --------------------------------------------------
    sequential_server = spec.build_server(None, 4)
    references = [dispatch(sequential_server, request) for request in requests]
    start = time.perf_counter()
    for request in requests:
        dispatch(sequential_server, request)
    sequential_s = time.perf_counter() - start
    sequential_rps = len(requests) / sequential_s

    # -- workers x throughput -------------------------------------------------
    cpus = len(os.sched_getaffinity(0))
    throughput: dict[str, dict] = {}
    rows = [["sequential (in-process)", f"{sequential_s * 1000:.0f}",
             f"{sequential_rps:.0f}", "1.00x"]]
    for workers in (1, 2, 4):
        with ShardedServerPool(
            spec.build_server,
            workers=workers,
            shards=4,
            queue_depth=len(requests),  # throughput run: no shedding wanted
            restart_policy=RestartPolicy(base_delay=0.02, cap=0.5),
        ) as pool:
            pool.wait_ready()
            pool.serve_many(requests[: len(requests) // 4])  # warm workers
            samples = []
            for _ in range(pool_rounds):
                start = time.perf_counter()
                outcomes = pool.serve_many(requests, timeout=300.0)
                samples.append(time.perf_counter() - start)
                assert all(outcome.ok for outcome in outcomes)
        batch_s = statistics.median(samples)
        rps = len(requests) / batch_s
        throughput[str(workers)] = {
            "batch_ms": round(batch_s * 1000, 1),
            "requests_per_s": round(rps, 1),
            "vs_sequential": round(rps / sequential_rps, 2),
        }
        rows.append([f"{workers} worker(s)", f"{batch_s * 1000:.0f}",
                     f"{rps:.0f}", f"{rps / sequential_rps:.2f}x"])
    table(
        f"C2 — process-pool throughput (batch of {len(requests)}, "
        "cache disabled)",
        ["configuration", "batch (ms)", "requests/s", "vs sequential"],
        rows,
    )

    scaling = (
        throughput["4"]["requests_per_s"] / throughput["1"]["requests_per_s"]
    )
    gate_enforced = cpus >= 4
    if gate_enforced:
        assert scaling >= 2.5, (
            f"4-worker scaling {scaling:.2f}x below the 2.5x gate on a "
            f"{cpus}-CPU machine"
        )

    # -- degraded-mode correctness --------------------------------------------
    degraded_requests = requests[: 12 if FAST else 24]
    with ShardedServerPool(
        spec.build_server,
        workers=2,
        shards=4,
        breaker_threshold=1,
        breaker_cooldown=600.0,  # stays open for the whole check
    ) as pool:
        pool.wait_ready()
        for breaker in pool._breakers.values():
            breaker.record_failure()  # force every shard breaker open
        outcomes = pool.serve_many(degraded_requests, timeout=300.0)
        stats = pool.stats()
    assert all(outcome.ok and outcome.degraded for outcome in outcomes)
    for outcome, reference in zip(outcomes, references):
        assert outcome.result.xml_text == reference.xml_text
    degraded = {
        "requests": len(degraded_requests),
        "all_degraded_ok": True,
        "byte_identical_to_sequential": True,
        "degraded_total": stats["pool"]["degraded_total"],
    }
    table(
        "C2 — degraded-mode correctness (all breakers open)",
        ["measure", "value"],
        [[key, str(value)] for key, value in degraded.items()],
    )

    payload = {
        "source": "benchmarks/run_report.py (section C2-pool)",
        "fast": FAST,
        "cpus_available": cpus,
        "workload": {
            "requests": len(requests),
            "documents": spec.documents,
            "nodes_per_document": spec.nodes_per_document,
            "view_cache": spec.view_cache,
        },
        "sequential_requests_per_s": round(sequential_rps, 1),
        "throughput_by_workers": throughput,
        "scaling_4_vs_1": round(scaling, 2),
        "gate": {
            "required": 2.5,
            "enforced": gate_enforced,
            "met": scaling >= 2.5,
        },
        "degraded_mode": degraded,
    }
    BENCH_PR6_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"wrote {BENCH_PR6_JSON}")


BENCH_PR7_JSON = Path(__file__).resolve().parent.parent / "BENCH_PR7.json"


def q1_rewrite() -> None:
    """Virtual views: query rewriting vs materialize-then-query.

    Two measurements, written to ``BENCH_PR7.json``:

    - **selective queries on a large document**: with no view cache,
      every materialized query pays the full label/prune/serialize
      pipeline before evaluating; the virtual path answers the same
      query through a warm :class:`~repro.rewrite.VisibilityOracle`
      without building the view. Gate: >= 3x median speedup on the
      most selective query (asserted);
    - **class collapse**: N requesters with identical effective
      permissions (same groups, different logins) must share ONE
      cached view entry and ONE oracle (asserted), with
      ``effective_class_collisions_total`` counting the collapse.
    """
    from repro.authz.authorization import Authorization
    from repro.server.cache import ViewCache
    from repro.server.request import AccessRequest, QueryRequest
    from repro.server.service import SecureXMLServer
    from repro.subjects.hierarchy import Requester

    nodes = 4000 if FAST else 8000
    requester = Requester("anonymous", "9.9.9.9", "h.x")
    server = SecureXMLServer()  # no view cache: the honest baseline
    server.publish_document(URI, serialize(document_of_size(nodes)))
    server.grant(public_auth("//archive", "+", "R"))
    server.grant(public_auth('//section[./@kind="private"]', "-", "R"))

    # Rooted paths confine both the evaluation walk and the lazy
    # labeling to the branch they name; ``//`` visits every node, so
    # virtual evaluation only saves the prune/serialize passes there.
    queries = {
        "point [@id=...]": "/archive/*[./@id='n2']",
        "one branch": "/archive/record/section/record",
        "subtree //title": "/archive/record//title",
        "broad //title": "//title",
    }
    rows = []
    query_stats: dict[str, dict] = {}
    for label, xpath in queries.items():
        request = QueryRequest(requester, URI, xpath)
        server.query(request, virtual=True)  # warm plan + oracle
        materialized_ms = timed(server.query, request)
        virtual_ms = timed(server.query, request, virtual=True)
        speedup = materialized_ms / virtual_ms
        matches = len(server.query(request, virtual=True).matches)
        query_stats[label] = {
            "xpath": xpath,
            "matches": matches,
            "materialized_ms": round(materialized_ms, 2),
            "virtual_ms": round(virtual_ms, 2),
            "speedup": round(speedup, 2),
        }
        rows.append([
            label, str(matches), f"{materialized_ms:.2f}",
            f"{virtual_ms:.2f}", f"{speedup:.1f}x",
        ])
    table(
        f"Q1 — virtual vs materialized query ({nodes}-node document, "
        "no view cache)",
        ["query", "matches", "materialized (ms)", "virtual (ms)", "speedup"],
        rows,
    )
    # The gate covers the selective shapes (small answer, small walk);
    # the subtree/broad rows are reported for context but not gated —
    # their cost is dominated by serializing the large answer itself.
    selective = [
        query_stats["point [@id=...]"]["speedup"],
        query_stats["one branch"]["speedup"],
    ]
    best = max(selective)
    assert min(selective) >= 3.0, (
        f"selective virtual-query speedups {selective} below the 3x gate"
    )

    # -- class collapse: N equivalent requesters, one entry ------------------
    fleet = 8
    cache = ViewCache()
    shared = SecureXMLServer(view_cache=cache)
    shared.publish_document(URI, serialize(document_of_size(2000)))
    shared.add_group("Staff")
    for index in range(fleet):
        shared.add_user(f"user{index}", groups=["Staff"])
    shared.grant(Authorization.build("Staff", f"{URI}://archive", "+", "R"))
    for index in range(fleet):
        staff = Requester(f"user{index}", f"10.0.0.{index}", "pc.lab.com")
        shared.serve(AccessRequest(staff, URI))
        shared.query(QueryRequest(staff, URI, "//title"), virtual=True)
    collisions = shared.metrics.value("effective_class_collisions_total")
    collapse = {
        "equivalent_requesters": fleet,
        "view_cache_entries": len(cache),
        "oracle_entries": len(shared._oracles),
        "effective_class_collisions_total": collisions,
    }
    assert len(cache) == 1, f"expected one shared view entry, got {len(cache)}"
    assert len(shared._oracles) == 1
    table(
        f"Q1 — effective-class collapse ({fleet} equivalent requesters)",
        ["measure", "value"],
        [[key, str(value)] for key, value in collapse.items()],
    )

    payload = {
        "source": "benchmarks/run_report.py (section Q1-rewrite)",
        "fast": FAST,
        "document_nodes": nodes,
        "queries": query_stats,
        "best_speedup": round(best, 2),
        "speedup_gate": {"required": 3.0, "met": best >= 3.0},
        "class_collapse": collapse,
    }
    BENCH_PR7_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"wrote {BENCH_PR7_JSON}")


BENCH_PR8_JSON = Path(__file__).resolve().parent.parent / "BENCH_PR8.json"


def u1_updates() -> None:
    """Secure updates: incremental relabeling and cache retention.

    Two measurements, written to ``BENCH_PR8.json``:

    - **incremental vs full relabel**: after a committed edit the
      engine repairs labels for the edited subtree only
      (``LabelState.apply_delta``); a non-incremental write path
      rebinds every authorization path against the whole post-edit
      document (``LabelState.build``). Gate: >= 5x median speedup on
      the deep-chain edit (asserted). Whole-batch time (clone +
      enforce + relabel) is reported alongside for context;
    - **cache hit-rate retention**: edits confined to one writer's
      subtree must not cost the other classes their cached views —
      the visibility oracle proves them disjoint and the entries
      survive with re-stamped versions, still hitting (asserted).
    """
    from repro.authz.authorization import Authorization
    from repro.server.cache import ViewCache
    from repro.server.request import AccessRequest
    from repro.server.service import SecureXMLServer
    from repro.subjects.hierarchy import Requester
    from repro.update import (
        LabelState,
        SetAttribute,
        UpdateEngine,
        UpdateRequest,
    )
    from repro.xml.traversal import preorder

    def write_auth(path, sign="+", auth_type="R"):
        return Authorization.build(
            "Public", f"{URI}:{path}", sign, auth_type, action="write"
        )

    depth = 300 if FAST else 600
    wide_nodes = 4000 if FAST else 8000
    cases = {
        "deep chain leaf": (
            deep_doc(depth),
            [write_auth("//level")],
            SetAttribute(f"//level[@n='{depth - 1}']", "touched", "1"),
        ),
        "synthetic subtree": (
            document_of_size(wide_nodes),
            [write_auth("//archive"), write_auth("//title", auth_type="L")],
            SetAttribute("/archive/*[./@id='n2']", "touched", "1"),
        ),
    }
    engine = UpdateEngine(hierarchy())
    requester = Requester("writer", "9.9.9.9", "h.x")
    rows = []
    edit_stats: dict[str, dict] = {}
    for label, (document, auths, operation) in cases.items():
        request = UpdateRequest.of(requester, URI, operation)
        result = engine.apply_full(document, request, auths, [])
        delta = result.deltas[0]
        state = result.state
        for node in preorder(result.document):
            state.label(node)  # steady state: the whole view is labeled

        # Incremental maintenance: repair the edited subtree's labels
        # in the carried-over state (idempotent, so timing rounds see
        # identical work); everything outside the subtree keeps its
        # memoized label.
        incremental_ms = timed(state.apply_delta, delta)

        # The non-incremental comparator: drop the compiled node-set
        # caches (the document changed), rebind every authorization
        # path against the whole post-edit document and recompute every
        # label.
        def full_round(document=result.document, auths=auths):
            for authorization in auths:
                compiled = authorization.compiled_path("descendant")
                if compiled is not None:
                    compiled.invalidate()
            rebuilt = LabelState.build(document, auths, [], hierarchy())
            for node in preorder(document):
                rebuilt.label(node)

        full_ms = timed(full_round)
        # Whole-batch context: clone + enforce + relabel + bookkeeping,
        # with the label state carried across committed batches the way
        # the facade does.
        warm = {"doc": result.document, "state": result.state}

        def batch_round(warm=warm, request=request, auths=auths):
            out = engine.apply_full(
                warm["doc"], request, auths, [], state=warm["state"]
            )
            warm["doc"], warm["state"] = out.document, out.state

        batch_ms = timed(batch_round)
        speedup = full_ms / incremental_ms
        total_nodes = count_nodes(document)
        edit_stats[label] = {
            "document_nodes": total_nodes,
            "relabeled_nodes": result.outcome.relabeled_nodes,
            "incremental_relabel_ms": round(incremental_ms, 3),
            "full_relabel_ms": round(full_ms, 2),
            "whole_batch_ms": round(batch_ms, 2),
            "speedup": round(speedup, 2),
        }
        rows.append([
            label, str(total_nodes), str(result.outcome.relabeled_nodes),
            f"{incremental_ms:.3f}", f"{full_ms:.2f}", f"{batch_ms:.2f}",
            f"{speedup:.1f}x",
        ])
    table(
        "U1 — incremental vs full relabel after an edit",
        ["edit", "nodes", "relabeled", "incremental (ms)", "full (ms)",
         "whole batch (ms)", "speedup"],
        rows,
    )
    deep_speedup = edit_stats["deep chain leaf"]["speedup"]
    assert deep_speedup >= 5.0, (
        f"incremental relabel speedup {deep_speedup} below the 5x gate"
    )

    # -- cache retention: unrelated views survive the edit -------------------
    users = 8
    edits = 5
    xml = "<root>" + "".join(
        f"<sec owner='u{i}'><item>data {i}</item></sec>" for i in range(users)
    ) + "</root>"
    cache = ViewCache()
    server = SecureXMLServer(view_cache=cache)
    requesters = []
    for index in range(users):
        server.add_user(f"u{index}")
        requesters.append(Requester(f"u{index}", f"10.0.0.{index}", "pc.x"))
    server.publish_document(URI, xml)
    for index in range(users):
        server.grant(
            Authorization.build(
                (f"u{index}", "*", "*"),
                f"{URI}://sec[@owner='u{index}']",
                "+",
                "R",
            )
        )
    server.grant(
        Authorization.build(
            ("u0", "*", "*"), f"{URI}://sec[@owner='u0']", "+", "R",
            action="write",
        )
    )
    for who in requesters:
        server.serve(AccessRequest(who, URI))  # warm every class
    kept = dropped = 0
    for step in range(edits):
        outcome = server.update(
            UpdateRequest.of(
                requesters[0],
                URI,
                SetAttribute("//sec[@owner='u0']/item", "rev", str(step)),
            )
        )
        kept += outcome.cache_kept
        dropped += outcome.cache_dropped
        server.serve(AccessRequest(requesters[0], URI))  # re-warm the writer
    hits_before = cache.stats()["hits"]
    for who in requesters[1:]:
        server.serve(AccessRequest(who, URI))
    surviving_hits = cache.stats()["hits"] - hits_before
    retention = {
        "classes": users,
        "edits": edits,
        "views_kept": kept,
        "views_dropped": dropped,
        "revalidated": cache.stats()["revalidated"],
        "surviving_hits": surviving_hits,
        "hit_retention": round(surviving_hits / (users - 1), 2),
    }
    assert kept == (users - 1) * edits, retention
    assert surviving_hits == users - 1, retention
    table(
        f"U1 — cache retention across {edits} confined edits "
        f"({users} requester classes)",
        ["measure", "value"],
        [[key, str(value)] for key, value in retention.items()],
    )

    payload = {
        "source": "benchmarks/run_report.py (section U1-updates)",
        "fast": FAST,
        "edits": edit_stats,
        "speedup_gate": {"required": 5.0, "met": deep_speedup >= 5.0},
        "cache_retention": retention,
    }
    BENCH_PR8_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"wrote {BENCH_PR8_JSON}")


BENCH_PR9_JSON = Path(__file__).resolve().parent.parent / "BENCH_PR9.json"


def o3_fleet() -> None:
    """Fleet observability: stitched cross-process traces, harvesting
    overhead and SLO decomposition.

    Three measurements, written to ``BENCH_PR9.json``:

    - **stitched stage breakdown**: pooled requests served under an
      active tracer yield one span tree per request — dispatcher-side
      ``pool.dispatch``/``pool.queue_wait``/``pool.ipc`` plus the
      worker's own pipeline spans grafted inside ``pool.ipc``. The
      p50/p95/p99 of each stage (and the SLO tracker's queue-wait vs
      service decomposition) quantify where a pooled request's time
      goes;
    - **observability overhead**: the default path runs with tracing
      *off* — its cost is one TraceContext ContextVar check per submit
      plus the worker-side registry snapshot per response. Both are
      microbenched deterministically and gated: their sum must stay
      under 1% of the median pooled request (asserted). The
      ``harvest=True`` vs ``harvest=False`` batch medians are recorded
      alongside as the wall-clock A/B (reported, not gated — batch
      noise on small machines exceeds the effect);
    - **conservation**: after the run, the harvested worker
      ``requests_total`` sum must equal the dispatcher's worker-served
      outcome count (asserted — the same invariant the chaos suite
      holds under SIGKILL).
    """
    import pickle

    from repro.obs.fleet import lint_prometheus
    from repro.obs.trace import TraceContext, Tracer, tracing
    from repro.server.concurrent import dispatch
    from repro.server.pool import ShardedServerPool
    from repro.workloads.traffic import TrafficSpec, request_stream

    spec = TrafficSpec(
        documents=4 if FAST else 8,
        nodes_per_document=150 if FAST else 300,
        seed=29,
        view_cache=False,
    )
    request_count = 24 if FAST else 60
    requests = list(request_stream(spec, request_count, seed=5))
    rounds = 2 if FAST else 3

    # -- stitched stage breakdown --------------------------------------------
    stage_samples: dict[str, list[float]] = {}
    with ShardedServerPool(spec.build_server, workers=2, shards=4) as pool:
        pool.wait_ready()
        pool.serve_many(requests[: len(requests) // 4])  # warm workers
        for request in requests:
            with tracing(Tracer()) as tracer:
                pool.serve(request, timeout=300.0)
            for span_ in tracer.spans:
                stage_samples.setdefault(span_.name, []).append(
                    span_.duration * 1000
                )
        slo = pool.slo.summary()
        problems = lint_prometheus(pool.render_prometheus())
        assert not problems, problems

        # -- conservation -----------------------------------------------------
        stats = pool.stats(deep=True)
        fleet_total = pool.fleet.counter_total("requests_total")
        dispatched = sum(
            value
            for outcome, value in stats["outcomes"].items()
            if outcome in ("ok", "error")
        )
    assert fleet_total == dispatched, (
        f"conservation violated: workers counted {fleet_total}, "
        f"dispatcher resolved {dispatched}"
    )

    key_stages = [
        "pool.dispatch", "pool.queue_wait", "pool.ipc", "request.serve",
        "request.query", "label", "prune", "serialize",
    ]
    stages = {}
    rows = []
    for stage in key_stages:
        values = stage_samples.get(stage)
        if not values:
            continue
        stages[stage] = {
            "p50_ms": round(_percentile(values, 0.50), 3),
            "p95_ms": round(_percentile(values, 0.95), 3),
            "p99_ms": round(_percentile(values, 0.99), 3),
            "samples": len(values),
        }
        rows.append([
            stage,
            f"{stages[stage]['p50_ms']:.3f}",
            f"{stages[stage]['p95_ms']:.3f}",
            f"{stages[stage]['p99_ms']:.3f}",
        ])
    table(
        "O3 — stitched cross-process stage latency (traced pooled serve)",
        ["stage", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        rows,
    )

    # -- harvest on/off wall-clock A/B ---------------------------------------
    ab: dict[str, dict] = {}
    for label, harvest in (("harvest_on", True), ("harvest_off", False)):
        with ShardedServerPool(
            spec.build_server, workers=2, shards=4,
            queue_depth=len(requests), harvest=harvest,
        ) as pool:
            pool.wait_ready()
            pool.serve_many(requests[: len(requests) // 4])
            samples = []
            for _ in range(rounds):
                start = time.perf_counter()
                outcomes = pool.serve_many(requests, timeout=300.0)
                samples.append(time.perf_counter() - start)
                assert all(outcome.ok for outcome in outcomes)
        batch_s = statistics.median(samples)
        ab[label] = {
            "batch_ms": round(batch_s * 1000, 1),
            "requests_per_s": round(len(requests) / batch_s, 1),
        }
    median_request_ms = ab["harvest_on"]["batch_ms"] / len(requests)

    # -- deterministic disabled-path overhead gate ---------------------------
    # The two always-on costs, microbenched in isolation against a
    # representative worker registry (populated by real traffic):
    worker_server = spec.build_server(None, 4)
    for request in requests:
        dispatch(worker_server, request)
    loops = 200
    start = time.perf_counter()
    for _ in range(loops):
        pickle.dumps(worker_server.metrics.snapshot())
    snapshot_ms = (time.perf_counter() - start) / loops * 1000

    loops = 100_000
    start = time.perf_counter()
    for _ in range(loops):
        TraceContext.capture()
    capture_ns = (time.perf_counter() - start) / loops * 1e9

    overhead_pct = (
        (snapshot_ms + capture_ns / 1e6) / median_request_ms * 100
    )
    assert overhead_pct < 1.0, (
        f"disabled-path observability overhead {overhead_pct:.3f}% "
        f">= 1% of the median pooled request"
    )

    overhead = {
        "snapshot_build_and_pickle_ms": round(snapshot_ms, 4),
        "trace_capture_disabled_ns": round(capture_ns, 1),
        "median_pooled_request_ms": round(median_request_ms, 3),
        "overhead_pct": round(overhead_pct, 4),
        "gate_pct": 1.0,
        "met": overhead_pct < 1.0,
    }
    table(
        "O3 — observability overhead with tracing disabled",
        ["measure", "value"],
        [[key, str(value)] for key, value in overhead.items()]
        + [
            [f"A/B {label}", f"{data['batch_ms']} ms batch "
             f"({data['requests_per_s']} req/s)"]
            for label, data in ab.items()
        ],
    )

    slo_out = {
        stage: {
            "count": summary["count"],
            "p50_ms": round(summary["p50"] * 1000, 3),
            "p95_ms": round(summary["p95"] * 1000, 3),
            "p99_ms": round(summary["p99"] * 1000, 3),
        }
        for stage, summary in slo.items()
    }
    table(
        "O3 — pool SLO decomposition (sliding window)",
        ["stage", "window", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        [
            [stage, str(data["count"]), f"{data['p50_ms']:.3f}",
             f"{data['p95_ms']:.3f}", f"{data['p99_ms']:.3f}"]
            for stage, data in sorted(slo_out.items())
        ],
    )

    payload = {
        "source": "benchmarks/run_report.py (section O3-fleet)",
        "fast": FAST,
        "workload": {
            "requests": len(requests),
            "documents": spec.documents,
            "nodes_per_document": spec.nodes_per_document,
        },
        "stitched_stages": stages,
        "slo": slo_out,
        "harvest_ab": ab,
        "overhead": overhead,
        "conservation": {
            "fleet_requests_total": fleet_total,
            "dispatcher_worker_outcomes": dispatched,
            "holds": fleet_total == dispatched,
        },
    }
    BENCH_PR9_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"wrote {BENCH_PR9_JSON}")


BENCH_PR3_JSON = Path(__file__).resolve().parent.parent / "BENCH_PR3.json"
BENCH_PR10_JSON = Path(__file__).resolve().parent.parent / "BENCH_PR10.json"


def s1_stream() -> None:
    """S1 regression budget: the rebuilt streaming engine vs the DOM path.

    The PR3 baseline left the streaming backend ~4x *slower* than DOM
    (bounded memory bought with per-character stepping). After the
    bulk-scan tokenizer + precompiled labeler dispatch rebuild the
    budget flips and is enforced here, written to ``BENCH_PR10.json``:

    - **throughput gate**: end-to-end ``serve_stream`` p50 must be at
      least as fast as the *cold* ``serve`` on the 10k-node workload —
      the first request to a freshly published deferred-parse copy,
      parse included, which is the choice the README's decision table
      puts to a document stored as text (asserted; a ``--fast`` run
      gets a 15% noise allowance). The ratio against a *warm*
      ``serve`` (tree already parsed) is reported beside it, ungated:
      the single-walk DOM labeler made warm ``serve`` faster than the
      stream, and a stream change shows in the ``read-stream``
      workload of ``perfbench/`` instead;
    - **memory gate**: the streaming peak heap must stay *below* the
      DOM peak at every size, and — on a full run that reaches the
      150k-node document — within 2x of the PR3 baseline's 150k
      streaming peak, so the speedup provably did not trade away the
      O(depth) working set;
    - **reader throughput**: tokenizer-only Mchars/s on the 10k-node
      document, the least noisy view of the bulk-scan rewrite
      (informational; diffed across runs by ``tools/bench_diff.py``).
    """
    import bench_stream

    from repro.stream.reader import StreamReader
    from repro.workloads.generator import synthetic_document

    sizes = [2_000, 10_000] if FAST else [2_000, 10_000, 50_000, 150_000]
    rows = []
    display = []
    for nodes in sizes:
        row = bench_stream.bench_size(nodes)
        stream_ms = row["stream"]["p50_ms"]
        cold_ms = row["dom_cold"]["p50_ms"]
        row["stream_vs_cold_dom_speedup"] = round(cold_ms / stream_ms, 3)
        row["stream_vs_dom_speedup"] = round(row["dom"]["p50_ms"] / stream_ms, 3)
        rows.append(row)
        display.append([
            str(nodes),
            f"{cold_ms:.1f}",
            f"{row['dom']['p50_ms']:.1f}",
            f"{stream_ms:.1f}",
            f"{row['stream_vs_cold_dom_speedup']:.2f}x",
            f"{row['stream_vs_dom_speedup']:.2f}x",
            f"{row['dom']['peak_heap_kib']:.0f}",
            f"{row['stream']['peak_heap_kib']:.0f}",
        ])
    table(
        "S1 — streaming vs DOM after the bulk-scan rebuild",
        ["nodes", "DOM cold p50 (ms)", "DOM warm p50 (ms)", "stream p50 (ms)",
         "vs cold (gated)", "vs warm", "DOM peak (KiB)", "stream peak (KiB)"],
        display,
    )

    # -- throughput gate -----------------------------------------------------
    ten_k = next(row for row in rows if row["nodes"] == 10_000)
    floor = 0.85 if FAST else 1.0
    assert ten_k["stream_vs_cold_dom_speedup"] >= floor, (
        f"stream throughput gate: serve_stream is "
        f"{ten_k['stream_vs_cold_dom_speedup']:.2f}x the cold DOM serve at "
        f"10k nodes (floor {floor})"
    )

    # -- memory gates --------------------------------------------------------
    for row in rows:
        assert row["stream"]["peak_heap_kib"] < row["dom"]["peak_heap_kib"], (
            f"stream peak {row['stream']['peak_heap_kib']} KiB >= DOM peak "
            f"{row['dom']['peak_heap_kib']} KiB at {row['nodes']} nodes"
        )
    memory_gate = {"dom_exceeded_at_any_size": False}
    largest = rows[-1]
    if largest["nodes"] == 150_000 and BENCH_PR3_JSON.exists():
        pr3 = json.loads(BENCH_PR3_JSON.read_text())
        pr3_peak = next(
            (entry["stream"]["peak_heap_kib"]
             for entry in pr3.get("sizes", ())
             if entry["nodes"] == 150_000),
            None,
        )
        if pr3_peak is not None:
            budget = 2 * pr3_peak
            assert largest["stream"]["peak_heap_kib"] <= budget, (
                f"stream peak {largest['stream']['peak_heap_kib']} KiB at "
                f"150k nodes exceeds 2x the PR3 baseline ({budget} KiB)"
            )
            memory_gate["pr3_peak_150k_kib"] = pr3_peak
            memory_gate["budget_150k_kib"] = round(budget, 1)
            memory_gate["peak_150k_kib"] = largest["stream"]["peak_heap_kib"]

    # -- tokenizer-only throughput -------------------------------------------
    document = synthetic_document(10_000, uri=URI)
    text = serialize(document)
    samples = []
    for _ in range(ROUNDS):
        reader = StreamReader()
        start = time.perf_counter()
        for offset in range(0, len(text), 65536):
            reader.feed(text[offset : offset + 65536])
        reader.close()
        samples.append(time.perf_counter() - start)
    reader_mchars_per_s = len(text) / statistics.median(samples) / 1e6
    print()
    print(
        f"tokenizer-only: {reader_mchars_per_s:.2f} Mchars/s "
        f"({len(text)} chars, 64 KiB chunks)"
    )

    payload = {
        "source": "benchmarks/run_report.py (section S1-stream)",
        "fast": FAST,
        "sizes": rows,
        "gates": {
            "speedup_floor_10k": floor,
            "speedup_10k": ten_k["stream_vs_cold_dom_speedup"],
            "gated_against": "cold serve (fresh deferred-parse copy)",
            "warm_speedup_10k": ten_k["stream_vs_dom_speedup"],
            "memory": memory_gate,
        },
        "reader": {
            "input_chars": len(text),
            "reader_mchars_per_s": round(reader_mchars_per_s, 3),
        },
    }
    BENCH_PR10_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"wrote {BENCH_PR10_JSON}")


def main() -> None:
    print("# Experiment report (regenerated)")
    print()
    print(f"rounds per measurement: {ROUNDS}")
    if "--only-concurrency" in sys.argv:
        c1_concurrency()
        return
    if "--only-pool" in sys.argv:
        c2_pool()
        return
    if "--only-rewrite" in sys.argv:
        q1_rewrite()
        return
    if "--only-updates" in sys.argv:
        u1_updates()
        return
    if "--only-fleet" in sys.argv:
        o3_fleet()
        return
    if "--only-stream" in sys.argv:
        s1_stream()
        return
    c1_view_scaling()
    c2_auth_scaling()
    c3_pipeline()
    c4_shape()
    c5_xpath()
    c6_subjects()
    c7_dtd()
    a1_policies()
    a2_weak()
    a3_cache()
    a4_selectivity()
    o1_obs_baseline()
    o2_provenance()
    c1_concurrency()
    c2_pool()
    q1_rewrite()
    u1_updates()
    o3_fleet()
    s1_stream()


if __name__ == "__main__":
    main()
