"""Differential stress suite: one server, many threads.

The contract under test (docs/ARCHITECTURE.md, "Threading model"): a
single :class:`SecureXMLServer` serves parallel mixed traffic with

- every response **byte-identical** to a sequential replay of the same
  workload on an identically built server,
- cache counter conservation (``hits + misses == lookups``) and a
  single labeling pass for concurrent misses on one key (single-flight),
- no lost metric increments and exactly one instance per metric name,
- an audit ring whose length equals the request count,
- tracer spans that never leak across threads (ContextVar isolation),
- an atomic fail-N-times countdown in the fault injector,
- a history-limit ledger that loses no answered read, admits
  concurrent reads only up to the limit and frees the slot of a
  read that is not answered, and
- a durable audit sink that neither loses nor duplicates records while
  rotating under concurrent writers.
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.authz.authorization import Authorization
from repro.authz.restrictions import HistoryLimit
from repro.errors import RepositoryError, XMLSyntaxError
from repro.limits import ResourceLimits
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, current_tracer, tracing
from repro.server.audit import AuditLog
from repro.server.audit_sink import JsonlAuditSink, iter_audit_records
from repro.server.cache import ViewCache
from repro.server.concurrent import (
    ConcurrentFrontEnd,
    ExplainRequest,
    StreamRequest,
    dispatch,
    serve_many,
)
from repro.server.request import AccessRequest, QueryRequest
from repro.server.service import (
    AccessLimitExceeded,
    PolicyConfig,
    SecureXMLServer,
)
from repro.subjects.hierarchy import Requester
from repro.testing.faults import FAULTS, FaultInjector, InjectedFault
from repro.update import SetText, UpdateRequest

URI = "http://x/archive.xml"
DTD_URI = "http://x/archive.dtd"
NOTES_URI = "http://x/notes.xml"

THREADS = 8

ARCHIVE_DTD = (
    "<!ELEMENT archive (section*)>"
    "<!ELEMENT section (title, record)>"
    "<!ATTLIST section kind CDATA #REQUIRED>"
    "<!ELEMENT title (#PCDATA)>"
    "<!ELEMENT record (#PCDATA)>"
    "<!ATTLIST record id CDATA #REQUIRED>"
)

NOTES = (
    "<notes>"
    "<note owner='alice' level='public'>a-public</note>"
    "<note owner='alice' level='secret'>a-secret</note>"
    "<note owner='bob' level='public'>b-public</note>"
    "</notes>"
)


def archive_text(sections: int = 200) -> str:
    parts = ["<archive>"]
    for index in range(sections):
        kind = "private" if index % 4 == 0 else "public"
        parts.append(
            f"<section kind='{kind}'><title>t{index}</title>"
            f"<record id='r{index}'>body {index}</record></section>"
        )
    parts.append("</archive>")
    return "".join(parts)


def build_server(view_cache: bool = True, sections: int = 200) -> SecureXMLServer:
    """One deterministic construction, used for both the concurrent
    server and its sequential replay twin."""
    server = SecureXMLServer(
        view_cache=ViewCache() if view_cache else None,
        audit=AuditLog(capacity=100_000),
    )
    server.add_group("Staff")
    server.add_user("alice", groups=["Staff"])
    server.add_user("bob")
    server.publish_dtd(DTD_URI, ARCHIVE_DTD)
    server.publish_document(URI, archive_text(sections), dtd_uri=DTD_URI)
    server.publish_document(NOTES_URI, NOTES)
    server.grant(Authorization.build("Public", f"{URI}://archive", "+", "R"))
    server.grant(
        Authorization.build("Public", f"{URI}://section[@kind='private']", "-", "R")
    )
    server.grant(
        Authorization.build("Staff", f"{URI}://section[@kind='private']", "+", "R")
    )
    server.grant(
        Authorization.build("Staff", f"{NOTES_URI}://note[@owner='alice']", "+", "R")
    )
    server.grant(
        Authorization.build("Public", f"{NOTES_URI}://note[@level='public']", "+", "R")
    )
    return server


def alice() -> Requester:
    return Requester("alice", "10.0.0.1", "pc.lab.com")


def bob() -> Requester:
    return Requester("bob", "10.0.0.2", "pc2.lab.com")


def mixed_workload(repeats: int = 3) -> list:
    """A deterministic mixed batch: serve / stream / query / explain,
    several requesters, both documents, guaranteed cache hits *and*
    misses."""
    requests = []
    for _ in range(repeats):
        for requester in (alice(), bob(), Requester()):
            requests.append(AccessRequest(requester, URI))
            requests.append(StreamRequest(AccessRequest(requester, URI)))
            requests.append(QueryRequest(requester, URI, "//record"))
            requests.append(AccessRequest(requester, NOTES_URI))
            requests.append(
                QueryRequest(requester, NOTES_URI, "//note[@owner='alice']")
            )
        requests.append(ExplainRequest(alice(), NOTES_URI))
    return requests


def response_fingerprint(outcome) -> tuple:
    """The order-independent identity of one outcome."""
    if outcome.error is not None:
        return (outcome.kind, type(outcome.error).__name__)
    result = outcome.result
    if outcome.kind == "explain":
        return (outcome.kind, len(result), result.visible_nodes)
    return (
        outcome.kind,
        result.xml_text,
        result.loosened_dtd_text,
        result.empty,
        result.visible_nodes,
        result.total_nodes,
    )


def audit_fingerprints(server) -> list[tuple]:
    """Audit outcomes without timing/detail (detail legitimately differs
    between 'cache hit', 'cache hit (single-flight)' and a compute)."""
    return sorted(
        (r.requester, r.uri, r.action, r.outcome, r.visible_nodes, r.total_nodes)
        for r in server.audit
    )


def sequential_replay(workload) -> tuple[list, SecureXMLServer]:
    server = build_server()
    outcomes = []
    for index, item in enumerate(workload):
        from repro.server.concurrent import _outcome

        outcomes.append(_outcome(server, index, item, None))
    return outcomes, server


class TestDifferential:
    def test_mixed_workload_byte_identical_to_sequential(self):
        workload = mixed_workload(repeats=3)
        expected, sequential_server = sequential_replay(workload)

        concurrent_server = build_server()
        outcomes = serve_many(concurrent_server, workload, max_workers=THREADS)

        assert len(outcomes) == len(workload)
        for got, want in zip(outcomes, expected):
            assert got.index == want.index
            assert response_fingerprint(got) == response_fingerprint(want)
        # Same decisions audited, independent of interleaving order.
        assert audit_fingerprints(concurrent_server) == audit_fingerprints(
            sequential_server
        )

    def test_repeated_runs_are_stable(self):
        workload = mixed_workload(repeats=2)
        expected, _ = sequential_replay(workload)
        want = [response_fingerprint(o) for o in expected]
        for _ in range(3):
            server = build_server()
            outcomes = serve_many(server, workload, max_workers=THREADS)
            assert [response_fingerprint(o) for o in outcomes] == want

    def test_interleaved_document_and_policy_updates_in_phases(self):
        """Reads race each other, document and policy changes land
        between phases: every phase must match its sequential twin
        (version-guarded cache invalidation under threads)."""
        workload = [AccessRequest(r, URI) for r in (alice(), bob(), Requester())] * 4

        def phase_mutations(server):
            yield None
            server.grant(
                Authorization.build("Public", f"{URI}://title", "-", "R")
            )
            yield None
            server.grant(
                Authorization.build("bob", f"{URI}://section[@kind='private']", "+", "R")
            )
            yield None
            # A *document* update (not just policy): rewrite every record
            # body through the write pipeline, bumping stored.version.
            server.grant(
                Authorization.build(
                    ("alice", "*", "*"), f"{URI}://record", "+", "R", action="write"
                )
            )
            applied = server.update(
                UpdateRequest.of(alice(), URI, SetText("//record", "rewritten"))
            )
            assert applied.applied
            yield None

        sequential = build_server()
        concurrent = build_server()
        seq_phases, conc_phases = [], []
        for seq_step, conc_step in zip(
            phase_mutations(sequential), phase_mutations(concurrent)
        ):
            seq_phases.append(
                [
                    response_fingerprint(o)
                    for o in sequential_replay_on(sequential, workload)
                ]
            )
            conc_phases.append(
                [
                    response_fingerprint(o)
                    for o in serve_many(concurrent, workload, max_workers=THREADS)
                ]
            )
        assert conc_phases == seq_phases
        # The phases genuinely differ (each mutation did something).
        assert len(seq_phases) == 4
        for earlier, later in zip(seq_phases, seq_phases[1:]):
            assert earlier != later

    def test_reads_racing_one_update_see_only_valid_states(self):
        """A grant landing mid-traffic: every concurrent response equals
        either the pre-grant or the post-grant sequential view, never a
        torn mixture — and once the dust settles the cache serves the
        post-grant view."""
        reference = build_server()
        before = reference.serve(AccessRequest(bob(), URI)).xml_text
        reference.grant(
            Authorization.build("bob", f"{URI}://section[@kind='private']", "+", "R")
        )
        after = reference.serve(AccessRequest(bob(), URI)).xml_text
        assert before != after

        server = build_server()
        server.serve(AccessRequest(bob(), URI))  # warm the cache
        start = threading.Barrier(THREADS + 1)
        texts: list[str] = []
        lock = threading.Lock()

        def reader():
            start.wait()
            for _ in range(6):
                text = server.serve(AccessRequest(bob(), URI)).xml_text
                with lock:
                    texts.append(text)

        threads = [threading.Thread(target=reader) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        start.wait()
        server.grant(
            Authorization.build("bob", f"{URI}://section[@kind='private']", "+", "R")
        )
        for thread in threads:
            thread.join()

        assert set(texts) <= {before, after}
        assert server.serve(AccessRequest(bob(), URI)).xml_text == after


def sequential_replay_on(server, workload) -> list:
    from repro.server.concurrent import _outcome

    return [_outcome(server, i, item, None) for i, item in enumerate(workload)]


class TestCacheUnderConcurrency:
    def test_counter_conservation(self):
        server = build_server()
        workload = [
            AccessRequest(requester, uri)
            for _ in range(6)
            for requester in (alice(), bob(), Requester())
            for uri in (URI, NOTES_URI)
        ]
        outcomes = serve_many(server, workload, max_workers=THREADS)
        assert all(o.ok for o in outcomes)
        stats = server.view_cache.stats()
        # Every serve probes the cache exactly once; a single-flight
        # follower's probe was already counted as a miss.
        assert stats["hits"] + stats["misses"] == len(workload)
        assert stats["shared"] <= stats["misses"]
        assert stats["hits"] + stats["misses"] >= stats["shared"]

    def test_single_flight_concurrent_misses_label_once(self):
        server = build_server(sections=400)
        request = AccessRequest(Requester(), URI)
        start = threading.Barrier(THREADS)

        def one():
            start.wait()
            return server.serve(request)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            responses = [f.result() for f in [pool.submit(one) for _ in range(THREADS)]]

        assert len({r.xml_text for r in responses}) == 1
        # The acceptance criterion: N concurrent misses on one key do
        # exactly ONE labeling pass.
        label_histogram = server.metrics.histogram("stage_seconds", stage="label")
        assert label_histogram.count == 1
        stats = server.view_cache.stats()
        assert stats["hits"] + stats["misses"] == THREADS
        # Every non-leader either shared the flight result or arrived
        # late enough for a genuine hit; nobody recomputed.
        assert stats["misses"] == stats["shared"] + 1
        assert (
            server.metrics.value("single_flight_total", outcome="recomputed")
            is None
        )

    def test_mixed_serve_and_stream_misses_compute_once(self):
        class HeldLeaderCache(ViewCache):
            """Holds the leader's put until every other request has
            joined its flight, so all of them share one computation."""

            def __init__(self, followers: int) -> None:
                super().__init__()
                self.followers = followers
                self.joined = threading.Semaphore(0)

            def begin_flight(self, key):
                lead, flight = super().begin_flight(key)
                if not lead:
                    self.joined.release()
                return lead, flight

            def put(self, key, entry):
                for _ in range(self.followers):
                    assert self.joined.acquire(timeout=30)
                super().put(key, entry)

        server = build_server(sections=400)
        server.view_cache = HeldLeaderCache(followers=THREADS - 1)
        request = AccessRequest(Requester(), URI)
        start = threading.Barrier(THREADS)

        def one(index):
            start.wait(timeout=30)
            if index % 2:
                return server.serve(request), None
            chunks = []
            return server.serve_stream(request, sink=chunks.append, chunk_size=512), chunks

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(one, index) for index in range(THREADS)]
            results = [future.result(timeout=60) for future in futures]

        responses = [response for response, _ in results]
        assert all(response.ok for response in responses)
        assert len({response.xml_text for response in responses}) == 1
        for response, chunks in results:
            if chunks is not None:
                assert "".join(chunks) == response.xml_text
        assert (
            server.metrics.value("single_flight_total", outcome="shared")
            == THREADS - 1
        )
        assert (
            server.metrics.value("single_flight_total", outcome="recomputed")
            is None
        )
        # One view computed, by whichever backend led the flight.
        computed = sum(
            server.metrics.histogram("stage_seconds", stage=stage).count
            for stage in ("label", "stream.pipeline")
        )
        assert computed == 1

    def test_stats_and_len_stable_under_traffic(self):
        server = build_server()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                server.serve(AccessRequest(alice(), URI))
                server.serve(AccessRequest(bob(), NOTES_URI))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(60):
                stats = server.view_cache.stats()
                assert stats["hits"] >= 0 and stats["misses"] >= 0
                len(server.view_cache)
                server.stats()
                server.metrics.render_prometheus()
                list(server.audit)
        finally:
            stop.set()
            for thread in threads:
                thread.join()


class TestMetricsUnderConcurrency:
    def test_no_lost_counter_increments(self):
        registry = MetricsRegistry()
        workers, per_worker = 16, 5_000
        start = threading.Barrier(workers)

        def bump():
            counter = registry.counter("hits_total", worker="shared")
            start.wait()
            for _ in range(per_worker):
                counter.inc()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(bump) for _ in range(workers)]:
                future.result()
        assert registry.value("hits_total", worker="shared") == workers * per_worker

    def test_get_or_create_returns_one_instance(self):
        registry = MetricsRegistry()
        start = threading.Barrier(16)
        seen = set()
        lock = threading.Lock()

        def create():
            start.wait()
            metric = registry.counter("unique_total", path="/x")
            with lock:
                seen.add(id(metric))

        with ThreadPoolExecutor(max_workers=16) as pool:
            for future in [pool.submit(create) for _ in range(16)]:
                future.result()
        assert len(seen) == 1
        assert len(registry) == 1

    def test_histogram_observation_conservation(self):
        registry = MetricsRegistry()
        workers, per_worker = 8, 2_000

        def observe():
            histogram = registry.histogram("latency_seconds")
            for index in range(per_worker):
                histogram.observe(index * 0.0001)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(observe) for _ in range(workers)]:
                future.result()
        histogram = registry.histogram("latency_seconds")
        assert histogram.count == workers * per_worker
        assert sum(histogram.bucket_counts) == workers * per_worker

    def test_server_request_counters_conserved(self):
        server = build_server(view_cache=False)
        workload = [AccessRequest(alice(), NOTES_URI)] * 40
        outcomes = serve_many(server, workload, max_workers=THREADS)
        assert all(o.ok for o in outcomes)
        assert (
            server.metrics.value("requests_total", kind="serve", outcome="released")
            == len(workload)
        )


class TestAuditUnderConcurrency:
    def test_ring_length_equals_request_count(self):
        server = build_server()
        workload = [
            AccessRequest(requester, uri)
            for _ in range(5)
            for requester in (alice(), bob(), Requester())
            for uri in (URI, NOTES_URI)
        ] + [QueryRequest(alice(), URI, "//title")] * 10
        outcomes = serve_many(server, workload, max_workers=THREADS)
        assert all(o.ok for o in outcomes)
        assert len(server.audit) == len(workload)

    def test_jsonl_sink_concurrent_writers_rotation(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        # max_files large enough that no generation is ever dropped:
        # conservation must hold record-for-record.
        sink = JsonlAuditSink(path, max_bytes=2_048, max_files=500)
        log = AuditLog(capacity=100_000, sink=sink)
        workers, per_worker = 8, 60
        start = threading.Barrier(workers)

        def write(worker: int):
            start.wait()
            for index in range(per_worker):
                log.record(
                    Requester(f"user{worker}"),
                    URI,
                    "read",
                    "released",
                    detail=f"w{worker}-r{index}",
                )

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(write, w) for w in range(workers)]:
                future.result()

        total = workers * per_worker
        assert sink.records_written == total
        assert len(log) == total
        details = [record.detail for record in iter_audit_records(path)]
        # Nothing lost, nothing duplicated, across live + rotated files.
        assert sorted(details) == sorted(
            f"w{w}-r{i}" for w in range(workers) for i in range(per_worker)
        )
        assert sink.rotations > 0
        # The size counter re-stats after rotation: it must agree with
        # the actual live file.
        assert sink._size == os.path.getsize(path)

    def test_sink_error_counted_on_server_registry(self):
        def bad_sink(record):
            raise OSError("disk on fire")

        server = build_server(view_cache=False)
        server.audit.sink = bad_sink
        response = server.serve(AccessRequest(alice(), NOTES_URI))
        assert response.ok
        # Counted on the *server's* registry, not only process-wide.
        assert server.metrics.value("audit_sink_errors_total") == 1


class TestHistoryLedgerUnderConcurrency:
    def test_no_answered_read_is_lost(self):
        server = build_server()
        reads = THREADS * 25
        server.set_policy(
            NOTES_URI, PolicyConfig(history_limit=HistoryLimit(reads, 3600))
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = serve_many(
                server,
                [AccessRequest(alice(), NOTES_URI)] * reads,
                max_workers=THREADS,
            )
        finally:
            sys.setswitchinterval(interval)
        # No check saw the limit used up before the last read was
        # answered; a lost ledger append would leave one read over.
        assert all(o.ok for o in outcomes)
        with pytest.raises(AccessLimitExceeded):
            server.serve(AccessRequest(alice(), NOTES_URI))

    #: entry point -> (one read by alice, its requests_total kind, the
    #: backend method an admitted read reaches)
    READS = {
        "serve": (
            lambda server, **options: server.serve(
                AccessRequest(alice(), NOTES_URI), **options
            ),
            "serve", "_view_tree",
        ),
        "serve_stream": (
            lambda server, **options: server.serve_stream(
                AccessRequest(alice(), NOTES_URI), **options
            ),
            "serve_stream", "_stream_view",
        ),
        "query": (
            lambda server, **options: server.query(
                QueryRequest(alice(), NOTES_URI, "//note"), **options
            ),
            "query", "_view_tree",
        ),
        "virtual query": (
            lambda server, **options: server.query(
                QueryRequest(alice(), NOTES_URI, "//note"), virtual=True, **options
            ),
            "query", "_oracle_for",
        ),
    }

    @pytest.mark.parametrize("entry", READS)
    def test_concurrent_reads_are_admitted_up_to_the_limit(self, entry):
        read, kind, backend = self.READS[entry]
        reads, limit = THREADS, 3
        server = build_server(view_cache=False)
        server.set_policy(
            NOTES_URI, PolicyConfig(history_limit=HistoryLimit(limit, 3600))
        )
        # Every admitted read waits in its backend until each of the
        # reads has been admitted or refused, so no read is answered
        # while another is still being checked.
        decided = threading.Condition()
        count = 0

        def decide():
            nonlocal count
            with decided:
                count += 1
                decided.notify_all()

        inner = getattr(server, backend)

        def held(*args, **kwargs):
            decide()
            with decided:
                assert decided.wait_for(lambda: count == reads, timeout=10)
            return inner(*args, **kwargs)

        setattr(server, backend, held)

        def one_read(_):
            try:
                return read(server).ok
            except AccessLimitExceeded:
                decide()
                return False

        with ThreadPoolExecutor(max_workers=reads) as pool:
            answered = sum(pool.map(one_read, range(reads)))
        assert answered == limit
        metrics = server.metrics
        assert metrics.value("requests_total", kind=kind, outcome="denied") == (
            reads - limit
        )

    @pytest.mark.parametrize("entry", ["serve", "serve_stream", "query"])
    @pytest.mark.parametrize("failure", ["guard", "repository", "syntax"])
    def test_an_unanswered_read_leaves_its_slot_free(self, entry, failure):
        read = self.READS[entry][0]
        server = build_server(view_cache=False)
        if failure == "syntax":
            # A deferred document is parsed by its first read.
            server.repository.remove_document(NOTES_URI)
            server.publish_document(NOTES_URI, NOTES[:-3], defer_parse=True)
        server.set_policy(
            NOTES_URI, PolicyConfig(history_limit=HistoryLimit(1, 3600))
        )
        if failure == "guard":
            assert not read(server, limits=ResourceLimits(deadline_seconds=0.0)).ok
        elif failure == "repository":
            FAULTS.arm("repository.read", times=1)
            try:
                with pytest.raises(RepositoryError):
                    read(server)
            finally:
                FAULTS.reset()
        else:
            with pytest.raises(XMLSyntaxError):
                read(server)
            server.repository.remove_document(NOTES_URI)
            server.publish_document(NOTES_URI, NOTES, defer_parse=True)
        assert read(server).ok
        with pytest.raises(AccessLimitExceeded):
            read(server)


class TestTracerIsolation:
    def test_spans_never_leak_across_threads(self):
        server = build_server(view_cache=False)
        workers = 6
        start = threading.Barrier(workers)
        tracers: dict[int, Tracer] = {}

        def traced(worker: int):
            tracer = Tracer()
            tracers[worker] = tracer  # distinct keys: no dict race
            start.wait()
            with tracing(tracer):
                for _ in range(3):
                    server.serve(AccessRequest(alice(), URI))
            return tracer

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(traced, w) for w in range(workers)]:
                future.result()

        for tracer in tracers.values():
            names = [span.name for span in tracer.spans]
            # Exactly this thread's own requests — never a neighbour's.
            assert names.count("request.serve") == 3
            assert names.count("label") == 3

    def test_worker_threads_start_without_a_tracer(self):
        with tracing(Tracer()):
            assert current_tracer() is not None
            with ThreadPoolExecutor(max_workers=1) as pool:
                assert pool.submit(current_tracer).result() is None

    def test_response_timings_are_request_private(self):
        server = build_server(view_cache=False)
        outcomes = serve_many(
            server, [AccessRequest(alice(), URI)] * 12, max_workers=THREADS
        )
        for outcome in outcomes:
            assert outcome.timings.get("request.serve", 0) > 0
            # One request's breakdown covers exactly one serve.
            assert outcome.timings["request.serve"] >= outcome.timings.get("label", 0)


class TestFaultInjectorUnderConcurrency:
    def test_fail_n_times_countdown_is_atomic(self):
        injector = FaultInjector()
        budget, workers, per_worker = 50, 16, 100
        injector.arm("race.point", times=budget)
        start = threading.Barrier(workers)
        fired = []
        lock = threading.Lock()

        def trip_many():
            start.wait()
            count = 0
            for _ in range(per_worker):
                try:
                    injector.trip("race.point")
                except InjectedFault:
                    count += 1
            with lock:
                fired.append(count)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(trip_many) for _ in range(workers)]:
                future.result()
        # Exactly the budget fires — never N±1 from racing decrements.
        assert sum(fired) == budget
        assert injector.fired("race.point") == budget

    def test_global_injector_blast_radius_is_process_wide(self):
        """Documented, deliberate behaviour: arming FAULTS in one thread
        fires in any thread that trips the point."""
        with FAULTS.injected("cache.get"):
            with ThreadPoolExecutor(max_workers=1) as pool:
                with pytest.raises(InjectedFault):
                    pool.submit(FAULTS.trip, "cache.get").result()

    def test_armed_cache_fault_degrades_every_concurrent_request(self):
        server = build_server()
        with FAULTS.injected("cache.get"):
            outcomes = serve_many(
                server, [AccessRequest(alice(), NOTES_URI)] * 10, max_workers=4
            )
        assert all(o.ok for o in outcomes)
        assert (
            server.metrics.value("cache_degraded_total", event="get-failed") == 10
        )


class TestFrontEnd:
    def test_front_end_reuse_across_batches(self):
        server = build_server()
        with ConcurrentFrontEnd(server, max_workers=4) as pool:
            first = pool.serve_many([AccessRequest(alice(), NOTES_URI)] * 4)
            second = pool.serve_many([QueryRequest(bob(), URI, "//record")] * 4)
        assert all(o.ok for o in first + second)
        assert {o.kind for o in first} == {"serve"}
        assert {o.kind for o in second} == {"query"}

    def test_per_request_errors_are_contained(self):
        server = build_server()
        workload = [
            AccessRequest(alice(), NOTES_URI),
            AccessRequest(alice(), "http://x/missing.xml"),
            AccessRequest(bob(), NOTES_URI),
        ]
        outcomes = serve_many(server, workload, max_workers=3)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert "missing.xml" in str(outcomes[1].error)

    def test_dispatch_rejects_unknown_request_types(self):
        server = build_server()
        with pytest.raises(TypeError):
            dispatch(server, object())

    def test_deferred_parse_document_parses_once_under_race(self):
        server = SecureXMLServer(view_cache=ViewCache())
        server.publish_document(URI, archive_text(100), defer_parse=True)
        server.grant(Authorization.build("Public", f"{URI}://archive", "+", "R"))
        outcomes = serve_many(
            server, [AccessRequest(Requester(), URI)] * THREADS, max_workers=THREADS
        )
        assert all(o.ok for o in outcomes)
        assert len({o.result.xml_text for o in outcomes}) == 1
