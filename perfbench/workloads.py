"""The benchmark's workloads.

Each workload makes its inputs in its constructor (not timed; see
:data:`POLICY_SEED` for what the run's seed varies), among them a fixed
*cycle* of requests. It builds a server from them in
:meth:`Workload.setup` (timed as ``setup_s``), drives it as one
closed-loop client in :meth:`Workload.run` by passing over the cycle
again and again, and checks the answers it got in
:meth:`Workload.check`. Every pass repeats the same requests, so each
one is timed several times in a run and the report can take the
fastest of them. Only the public API is used:
``SecureXMLServer.serve / serve_stream / query / update /
publish_document``.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter, defaultdict
from typing import Optional

from repro.authz.authorization import Authorization
from repro.errors import ReproError
from repro.server.cache import ViewCache
from repro.server.request import AccessRequest, AccessResponse, QueryRequest
from repro.server.service import SecureXMLServer
from repro.stream.paths import StreamPathUnsupported, compile_stream_pattern
from repro.subjects.hierarchy import Requester, SubjectSpec
from repro.update import InsertChild, SetAttribute, SetText, UpdateRequest
from repro.workloads import (
    AUCTION_SITE_URI,
    auction_scenario,
    populate_directory,
    requester_pool,
    synthetic_authorizations,
    synthetic_document,
)
from repro.xml.serializer import serialize
from repro.xpath.evaluator import select

__all__ = ["WORKLOADS", "Recorder", "Workload"]

_KINDS = ("public", "internal", "private", "restricted")
#: Documents, policies, directories and the requests of each cycle come
#: from this fixed seed; the run's seed picks where in the cycle the run
#: starts. A pass then makes the same requests, each after the same
#: predecessor, for every seed: the cost of a request depends on what
#: the program memoized for the ones before it. How much of a
#: document a policy hides decides most of a request's cost, and with
#: 10k-node synthetic documents that hinges on a few random attribute
#: values near the root: seeding those per run moved the read-dom
#: medians by 15-25% from seed to seed.
POLICY_SEED = 0


class Recorder:
    """Latency samples per request kind, attempts, failures and passes.

    A failed or refused request is counted in ``failed`` and leaves no
    latency sample. ``best`` keeps, per position in the cycle, the kind
    and the fastest latency of the request there; ``passes`` the
    duration of each whole pass over the cycle. With ``spans`` on, the
    per-stage breakdown each response carries (``response.timings``) is
    summed by stage.
    """

    def __init__(self, spans: bool = False) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.best: dict[int, tuple[str, float]] = {}
        self.passes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.spans: Optional[Counter] = Counter() if spans else None
        #: Position in the cycle of the request being recorded.
        self.index = 0

    def add(
        self, kind: str, seconds: float, ok: bool, timings=None, index=None
    ) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            return
        self.samples[kind].append(seconds)
        index = self.index if index is None else index
        best = self.best.get(index)
        if best is None or seconds < best[1]:
            self.best[index] = (kind, seconds)
        if self.spans is not None and timings:
            self.spans.update(timings)


class Workload:
    """One closed-loop client against one freshly set-up system."""

    name = ""
    #: Layers that must record calls in the traced run.
    expected_layers: tuple[str, ...] = ()
    #: Spans the program itself must report in the traced run.
    expected_spans: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server: Optional[SecureXMLServer] = None
        self.tally: Counter = Counter()
        #: (requester, uri) -> number of read requests, for the
        #: stream-compilable share.
        self.reads: Counter = Counter()
        #: response key -> Counter of the answers it got.
        self.answers: dict = defaultdict(Counter)
        #: The requests of one pass, in order.
        self.cycle: list = []
        #: Passes begun so far, over every phase.
        self.pass_number = 0

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, recorder: Recorder) -> None:
        """Closed loop: one request at a time, in passes over the cycle,
        until *seconds* pass. Only whole passes are timed as passes."""
        end = time.perf_counter() + seconds
        while True:
            self.pass_number += 1
            started = time.perf_counter()
            for index, entry in enumerate(self.cycle):
                if time.perf_counter() >= end:
                    return
                recorder.index = index
                self.step(recorder, entry)
            recorder.passes.append(time.perf_counter() - started)

    def step(self, recorder: Recorder, entry) -> None:
        raise NotImplementedError

    def check(self) -> int:
        """Answers that disagree with a reference computation."""
        raise NotImplementedError

    def close(self) -> None:
        self.server = None

    # -- measured properties ---------------------------------------------------

    def counters(self) -> Counter:
        """Cumulative raw counts the property shares are built from."""
        out = Counter(self.tally)
        server = self.server
        if server is None:
            return out
        if server.view_cache is not None:
            stats = server.view_cache.stats()
            out["cache_hits"] = stats["hits"]
            out["cache_lookups"] = stats["hits"] + stats["misses"]
        metrics = server.metrics
        out["rewrite_fallbacks"] = (
            metrics.value("rewrite_requests_total", outcome="fallback") or 0
        )
        out["stream_fallbacks"] = (
            metrics.value("stream_fallback_total", reason="unsupported-path") or 0
        )
        return out

    def stream_compilable_share(self, server: SecureXMLServer, reads=None) -> float:
        """Share of read requests whose applicable authorization paths
        all compile for streaming (whatever backend served them)."""
        total = compilable = 0
        verdicts: dict = {}
        for (requester, uri), count in (reads or self.reads).items():
            key = (server.store.effective_class(requester), uri)
            if key not in verdicts:
                verdicts[key] = _all_stream_compile(server, requester, uri)
            total += count
            compilable += count if verdicts[key] else 0
        return compilable / total if total else 0.0

    # -- helpers -------------------------------------------------------------

    def _serve(
        self, recorder: Recorder, requester: Requester, uri: str
    ) -> AccessResponse:
        request = AccessRequest(requester, uri)
        started = time.perf_counter()
        response = self.server.serve(request)
        elapsed = time.perf_counter() - started
        recorder.add("serve", elapsed, response.ok, response.timings)
        self.reads[(requester, uri)] += 1
        self.tally["serves"] += 1
        return response

    def _query(
        self, recorder: Recorder, request: QueryRequest, virtual: bool
    ) -> None:
        started = time.perf_counter()
        response = self.server.query(request, virtual=virtual)
        elapsed = time.perf_counter() - started
        kind = "vquery" if virtual else "query"
        recorder.add(kind, elapsed, response.ok, response.timings)
        self.reads[(request.requester, request.uri)] += 1
        self.tally["vqueries" if virtual else "queries"] += 1
        if response.ok:
            key = (request.requester, request.uri, request.xpath)
            self.answers[key][tuple(response.matches)] += 1


def _all_stream_compile(server: SecureXMLServer, requester, uri: str) -> bool:
    mode = server.policy_for(uri).relative_paths
    dtd_uri = server.repository.dtd_uri_of(uri)
    auths = server.store.applicable(requester, uri)
    if dtd_uri:
        auths = auths + server.store.applicable(requester, dtd_uri)
    try:
        for auth in auths:
            compile_stream_pattern(auth.object.path, mode)
    except StreamPathUnsupported:
        return False
    return True


def _mismatches(answers: dict, reference) -> int:
    """Responses whose answer differs from ``reference(key)``."""
    wrong = 0
    for key, seen in answers.items():
        expected = reference(key)
        wrong += sum(count for answer, count in seen.items() if answer != expected)
    return wrong


def _rotated(cycle: list, seed: int) -> list:
    """*cycle* started at a position drawn from *seed*."""
    start = random.Random(seed).randrange(len(cycle))
    return cycle[start:] + cycle[:start]


def _groups_and_subjects(count: int) -> list[SubjectSpec]:
    subjects = [SubjectSpec.parse("Public", "*", "*")]
    subjects += [SubjectSpec.parse(f"group{i}", "*", "*") for i in range(count)]
    return subjects


# -- read-dom ------------------------------------------------------------------


class ReadDom(Workload):
    """DOM reads: ``serve``, materialized and virtual ``query``, no cache."""

    name = "read-dom"
    expected_layers = (
        "service.self", "authz.applicable", "core.view", "core.label",
        "core.prune", "dtd.loosen", "xml.serialize", "xpath.select",
        "rewrite.compile", "rewrite.select", "rewrite.oracle",
    )
    expected_spans = ("authz.bind", "label", "prune", "serialize")
    DOCUMENTS = 3
    NODES = 10_000
    AUTHS = 24
    USERS = 24
    GROUPS = 6
    PEOPLE = 40
    #: Requesters the cycle draws from, per corpus part; few enough
    #: that the check recomputes one view per (class, document).
    CLIENTS = 8
    #: Requests per pass: ten per synthetic document, twenty on the
    #: auction site, so each part sees every kind twice.
    CYCLE = 50
    #: Serve 60%, materialized query 20%, virtual query 20%.
    KINDS = ("serve", "query", "serve", "vquery", "serve")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        fixed = random.Random(POLICY_SEED)
        subjects = _groups_and_subjects(self.GROUPS)
        serials = self.NODES // 5
        self.documents = []  # (uri, text, authorizations)
        paths = {}
        for index in range(self.DOCUMENTS):
            uri = f"http://bench.example/dom/doc{index}.xml"
            document = synthetic_document(
                self.NODES, seed=POLICY_SEED + index, uri=uri
            )
            auths, _ = synthetic_authorizations(
                document, self.AUTHS, seed=POLICY_SEED + index, subjects=subjects
            )
            self.documents.append((uri, serialize(document), auths))
            paths[uri] = (
                f"//*[@id='n{fixed.randint(1, serials)}']",
                f"//section[@kind='{fixed.choice(_KINDS)}']/title",
                f"//entry[@kind='{fixed.choice(_KINDS)}']/value",
                "/archive/*/*[@kind='public']",
            )
        paths[AUCTION_SITE_URI] = (
            "//item[@category='books']/title",
            "//auction[@status='open']/bid/amount",
            "//person/name",
            # lang() reads what a view may hide: never rewritten.
            "//person[lang('en')]/name",
        )
        users = requester_pool([f"user{i}" for i in range(self.USERS)])
        users = fixed.sample(users, self.CLIENTS)
        people = [
            Requester(f"p{i}", "10.0.0.5", "web.auctions.example")
            for i in fixed.sample(range(self.PEOPLE), self.CLIENTS - 2)
        ]
        people.append(Requester("anonymous", "93.1.1.1", "somewhere.example"))
        people.append(Requester("fraud-officer", "10.9.9.1", "ops.example"))
        # Every share is exact, so each run serves the same mixture: an
        # odd number of equal document shares puts the serve median inside
        # one document's latencies instead of on the edge between two.
        doc0, doc1, doc2 = (uri for uri, _, _ in self.documents)
        rotation = [doc0, AUCTION_SITE_URI, doc1, doc2, AUCTION_SITE_URI]
        turns: Counter = Counter()
        cycle = []
        for index in range(self.CYCLE):
            uri = rotation[index % len(rotation)]
            turn = turns[uri]
            turns[uri] += 1
            clients = people if uri == AUCTION_SITE_URI else users
            cycle.append((
                self.KINDS[turn % len(self.KINDS)],
                clients[turn % len(clients)],
                uri,
                paths[uri][turn % len(paths[uri])],
            ))
        self.cycle = _rotated(cycle, seed)

    def setup(self) -> None:
        self.server = None
        scenario = auction_scenario(seed=POLICY_SEED, people=self.PEOPLE)
        server = scenario.server
        populate_directory(
            server.directory, users=self.USERS, groups=self.GROUPS, seed=POLICY_SEED
        )
        for uri, text, auths in self.documents:
            server.publish_document(uri, text)
            for auth in auths:
                server.grant(auth)
        self.server = server
        warm = Recorder()
        visitor = Requester("anonymous", "93.1.1.1", "somewhere.example")
        self._serve(warm, visitor, AUCTION_SITE_URI)
        self._query(
            warm, QueryRequest(visitor, AUCTION_SITE_URI, "//person/name"), virtual=True
        )
        self.answers.clear()
        self.reads.clear()

    def step(self, recorder: Recorder, entry) -> None:
        kind, requester, uri, xpath = entry
        if kind == "serve":
            response = self._serve(recorder, requester, uri)
            if response.ok:
                self.answers[(requester, uri, None)][response.xml_text] += 1
        else:
            request = QueryRequest(requester, uri, xpath)
            self._query(recorder, request, virtual=kind == "vquery")

    def check(self) -> int:
        """Every serve, materialized and virtual answer equals one
        computed from the requester class's materialized view."""
        server = self.server
        views: dict = {}

        def reference(key):
            requester, uri, xpath = key
            view_key = (server.store.effective_class(requester), uri)
            if view_key not in views:
                views[view_key] = server.view(requester, uri).document
            view = views[view_key]
            if xpath is None:
                return serialize(view, doctype=False)
            if view.root is None:
                return ()
            return tuple(serialize(node) for node in select(xpath, view))

        return _mismatches(self.answers, reference)


# -- read-stream -----------------------------------------------------------------


def _wide_text(items: int, rng: random.Random) -> str:
    parts = ['<list kind="public">']
    for index in range(items):
        parts.append(
            f'<item n="{index}" kind="{rng.choice(_KINDS)}">'
            f"<title>item {index}</title><note>note {index}</note></item>"
        )
    parts.append("</list>")
    return "".join(parts)


def _deep_text(levels: int, rng: random.Random) -> str:
    parts = []
    for index in range(levels):
        parts.append(
            f'<level n="{index}" kind="{rng.choice(_KINDS)}">'
            f"<title>level {index}</title><note>note {index}</note>"
        )
    parts.append("</level>" * levels)
    return "".join(parts)


def _shape_policy(
    uri: str, root: str, element: str, rng: random.Random
) -> list[Authorization]:
    """Stream-compilable grants whose views differ by group."""
    hidden, shown, trimmed = rng.sample(_KINDS, 3)
    return [
        Authorization.build("Public", f"{uri}:/{root}", "+", "R"),
        Authorization.build(
            "Public", f'{uri}://{element}[./@kind="{hidden}"]/note', "-", "R"
        ),
        Authorization.build(
            "group0", f'{uri}://{element}[./@kind="{hidden}"]/note', "+", "R"
        ),
        Authorization.build(
            "group1", f'{uri}://{element}[./@kind="{trimmed}"]/title', "-", "R"
        ),
        Authorization.build(
            "Public", f'{uri}://{element}[./@kind="{shown}"]/@n', "-", "L"
        ),
    ]


class ReadStream(Workload):
    """``serve_stream`` over large documents stored unparsed."""

    name = "read-stream"
    expected_layers = (
        "service.self", "authz.applicable", "stream.reader", "stream.labeler",
    )
    expected_spans = ("authz.bind", "stream.pipeline")
    #: ~12k nodes per document: 7 nodes per item or level.
    ITEMS = 1_700
    USERS = 12
    #: Every user once on the wide and twice on the deep document.
    CYCLE = 36

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        fixed = random.Random(POLICY_SEED)
        self.documents = []  # (uri, text, authorizations)
        for shape, text_of, root, element in (
            ("wide", _wide_text, "list", "item"),
            ("deep", _deep_text, "level", "level"),
        ):
            uri = f"http://bench.example/stream/{shape}.xml"
            self.documents.append((
                uri,
                text_of(self.ITEMS, fixed),
                _shape_policy(uri, root, element, fixed),
            ))
        users = requester_pool([f"user{i}" for i in range(self.USERS)])
        # Two deep requests per wide one: the serve median then falls
        # inside the deep document's latencies, not between the shapes.
        wide, deep = (uri for uri, _, _ in self.documents)
        rotation = (wide, deep, deep)
        cycle = [
            (users[index // len(rotation) % len(users)], rotation[index % len(rotation)])
            for index in range(self.CYCLE)
        ]
        self.cycle = _rotated(cycle, seed)

    def setup(self) -> None:
        self.server = None
        server = SecureXMLServer()
        populate_directory(server.directory, users=self.USERS, seed=POLICY_SEED)
        for uri, text, auths in self.documents:
            server.publish_document(uri, text, defer_parse=True)
            for auth in auths:
                server.grant(auth)
        self.server = server
        warm = Recorder()
        for requester, uri in self.cycle[:2]:
            self._stream(warm, requester, uri)
        self.answers.clear()
        self.reads.clear()

    def _stream(self, recorder: Recorder, requester: Requester, uri: str):
        request = AccessRequest(requester, uri)
        started = time.perf_counter()
        response = self.server.serve_stream(request)
        elapsed = time.perf_counter() - started
        recorder.add("serve", elapsed, response.ok, response.timings)
        self.reads[(requester, uri)] += 1
        self.tally["streams"] += 1
        if response.ok:
            self.answers[(requester, uri)][response.xml_text] += 1

    def step(self, recorder: Recorder, entry) -> None:
        requester, uri = entry
        self._stream(recorder, requester, uri)

    def check(self) -> int:
        """Every streamed view equals the DOM ``serve`` of its class."""
        server = self.server
        views: dict = {}

        def reference(key):
            requester, uri = key
            view_key = (server.store.effective_class(requester), uri)
            if view_key not in views:
                views[view_key] = server.serve(AccessRequest(requester, uri)).xml_text
            return views[view_key]

        return _mismatches(self.answers, reference)


# -- read-write ------------------------------------------------------------------


class ReadWrite(Workload):
    """Cached ``serve`` interleaved with ``update`` batches and
    re-uploads, for requesters that share a few effective classes.

    The policy is schema-level (on the documents' shared DTD URI), so a
    re-upload publishes a new revision at a fresh URI that the same
    grants govern; the previous revision is then removed.
    """

    name = "read-write"
    expected_layers = (
        "service.self", "authz.applicable", "subjects.effective_class",
        "core.label", "core.prune", "cache.get", "cache.invalidate",
        "update.apply", "update.relabel", "xml.parse_document",
    )
    expected_spans = ("authz.bind", "label", "prune", "serialize")
    DTD_URI = "http://bench.example/rw/archive.dtd"
    DOCUMENTS = 2
    NODES = 3_000
    AUTHS = 16
    USERS = 200
    GROUPS = 6
    POLICY_GROUPS = 3
    REQUESTERS = 3_000
    #: Requests per pass: one re-upload per document (so every pass
    #: starts each document's cache state afresh), some update batches,
    #: and serves.
    CYCLE = 240
    UPDATES = 20

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        fixed = random.Random(POLICY_SEED)
        self.texts = []
        for index in range(self.DOCUMENTS):
            document = synthetic_document(self.NODES, seed=POLICY_SEED + index)
            self.texts.append(serialize(document))
        _, self.auths = synthetic_authorizations(
            document,
            self.AUTHS,
            seed=POLICY_SEED,
            subjects=_groups_and_subjects(self.POLICY_GROUPS),
            dtd_uri=self.DTD_URI,
            schema_share=1.0,
        )
        self.auths.append(
            Authorization.build(
                "Public", f"{self.DTD_URI}:/archive", "+", "R", action="write"
            )
        )
        requesters = [
            Requester(
                f"user{fixed.randrange(self.USERS)}",
                f"150.{fixed.randint(0, 255)}.{fixed.randint(0, 255)}.{fixed.randint(1, 254)}",
                f"host{index}.example.org",
            )
            for index in range(self.REQUESTERS)
        ]
        serials = self.NODES // 5
        kinds = ["update"] * self.UPDATES
        kinds += ["serve"] * (self.CYCLE - self.UPDATES - self.DOCUMENTS)
        fixed.shuffle(kinds)
        for slot in range(self.DOCUMENTS):
            kinds.insert(slot * self.CYCLE // self.DOCUMENTS, "publish")
        cycle = []
        for step, kind in enumerate(kinds):
            slot = step % self.DOCUMENTS
            requester = fixed.choice(requesters)
            if kind == "publish":
                cycle.append(("publish", requester, step * self.DOCUMENTS // self.CYCLE, None))
            elif kind == "update":
                operations = []
                for _ in range(fixed.randint(1, 3)):
                    target = f"//*[@id='n{fixed.randint(serials // 4, serials)}']"
                    operations.append(fixed.choice((
                        SetAttribute(target, "rev", str(step)),
                        SetText(f"{target}/*[1]", f"edit {step}"),
                        InsertChild(target, f"<note>added {step}</note>"),
                    )))
                cycle.append(("update", requester, slot, tuple(operations)))
            else:
                cycle.append(("serve", requester, slot, None))
        self.cycle = _rotated(cycle, seed)

    def _publish(self, slot: int) -> None:
        """Publish the next revision of *slot* and retire the previous."""
        previous = self.uris[slot]
        self.revision += 1
        self.uris[slot] = f"http://bench.example/rw/doc{slot}.r{self.revision}.xml"
        self.server.publish_document(
            self.uris[slot], self.texts[slot], dtd_uri=self.DTD_URI
        )
        if previous is not None:
            self.server.repository.remove_document(previous)

    def setup(self) -> None:
        self.server = SecureXMLServer(view_cache=ViewCache())
        populate_directory(
            self.server.directory, users=self.USERS, groups=self.GROUPS, seed=POLICY_SEED
        )
        for auth in self.auths:
            self.server.grant(auth)
        self.uris = [None] * self.DOCUMENTS
        self.revision = 0
        for slot in range(self.DOCUMENTS):
            self._publish(slot)
        warm = Recorder()
        for _, requester, slot, _ in self.cycle[:16]:
            self._serve(warm, requester, self.uris[slot])
        self.reads.clear()

    def step(self, recorder: Recorder, entry) -> None:
        kind, requester, slot, operations = entry
        # A host name not seen before in each pass: every pass brings new
        # requesters of the same classes, so the server canonicalizes
        # each one afresh, and its memo of requesters never serves them.
        requester = dataclasses.replace(
            requester, hostname=f"p{self.pass_number}.{requester.hostname}"
        )
        uri = self.uris[slot]
        if kind == "serve":
            self._serve(recorder, requester, uri)
            return
        started = time.perf_counter()
        if kind == "publish":
            self._publish(slot)
            recorder.add("publish", time.perf_counter() - started, True)
            self.tally["publishes"] += 1
            return
        try:
            outcome = self.server.update(UpdateRequest(requester, uri, operations))
        except ReproError:
            recorder.add("update", time.perf_counter() - started, False)
            return
        recorder.add("update", time.perf_counter() - started, outcome.applied)
        self.tally["updates"] += 1
        self.tally["incremental"] += outcome.incremental
        self.tally["relabel_nodes"] += outcome.relabeled_nodes
        self.tally["cache_kept"] += outcome.cache_kept
        self.tally["cache_dropped"] += outcome.cache_dropped

    def stream_compilable_share(self, server: SecureXMLServer, reads=None) -> float:
        # Every revision is governed by the same schema-level policy, and
        # earlier revisions are gone: judge each read on a current one.
        current: Counter = Counter()
        for (requester, _), count in self.reads.items():
            current[(requester, self.uris[0])] += count
        return super().stream_compilable_share(server, current)

    def check(self) -> int:
        """Each class's cached view of each current revision equals an
        uncached computation over that revision."""
        server = self.server
        witnesses = {}
        for requester, _ in self.reads:
            for uri in self.uris:
                witnesses.setdefault(
                    (server.store.effective_class(requester), uri), requester
                )
        wrong = 0
        for (_, uri), requester in witnesses.items():
            cached = server.serve(AccessRequest(requester, uri)).xml_text
            fresh = serialize(server.view(requester, uri).document, doctype=False)
            wrong += cached != fresh
        return wrong


WORKLOADS = {
    workload.name: workload for workload in (ReadDom, ReadStream, ReadWrite)
}
