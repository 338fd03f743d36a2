"""The server facade: documents in, per-requester views out.

:class:`SecureXMLServer` wires together the repository, the
authorization store, per-document policy configuration and the security
processor — the "service component in the framework of a complete
architecture" of Section 7. Enforcement is strictly server-side: the
only way to read a stored document through the facade is as a computed
view.

One policy applies per document ("the only restriction we impose is
that a single policy applies to each specific document", Section 5);
different documents may use different policies.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.authz.authorization import Authorization
from repro.authz.conflict import ConflictPolicy, policy_by_name
from repro.authz.restrictions import HistoryLimit
from repro.authz.store import AuthorizationStore
from repro.authz.xacl import parse_xacl
from repro.core.explain import Explanation, explain_from_auths
from repro.core.processor import SecurityProcessor
from repro.core.view import ViewResult, compute_view_from_auths
from repro.errors import (
    DeadlineExceeded,
    LimitExceeded,
    PolicyError,
    RepositoryError,
    ResourceError,
    RewriteUnsupported,
    ValidationError,
)
from repro.limits import DEFAULT_LIMITS, Deadline, ResourceLimits
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, current_tracer, span, stage_totals, tracing
from repro.rewrite import VisibilityOracle, compile_rewrite
from repro.server.audit import AuditLog
from repro.server.cache import CachedView, ViewCache
from repro.server.repository import Repository, StoredDocument
from repro.server.request import AccessRequest, AccessResponse, QueryRequest
from repro.update import (
    UpdateDenied,
    UpdateEngine,
    UpdateOutcome,
    UpdateRequest,
)
from repro.update.consistency import check_write_consistency
from repro.stream.events import DoctypeDecl, StartElement
from repro.stream.labeler import StreamLabeler
from repro.stream.paths import StreamPathUnsupported
from repro.stream.reader import StreamReader
from repro.stream.writer import StreamWriter
from repro.subjects.canonical import EffectiveClass
from repro.subjects.hierarchy import Requester, SubjectHierarchy
from repro.xml.nodes import Document
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xpath.compile import RelativeMode
from repro.xpath.evaluator import select
from repro.dtd.loosen import loosen
from repro.dtd.serializer import serialize_dtd

__all__ = ["PolicyConfig", "SecureXMLServer"]


@dataclass(frozen=True)
class PolicyConfig:
    """Access-control configuration for one document (or the default).

    ``history_limit`` enforces the paper's future-work "history-based
    restrictions": at most N answered reads (serves, streams and
    queries) per requester within a sliding window, counted in a
    per-server ledger. Only reads answered while the document has a
    limit count.
    """

    conflict_policy: str = "denials-take-precedence"
    open_policy: bool = False
    relative_paths: RelativeMode = "descendant"
    history_limit: Optional[HistoryLimit] = None

    def build_policy(self) -> ConflictPolicy:
        return policy_by_name(self.conflict_policy)


def _policy_marker(config: PolicyConfig) -> tuple:
    """The policy knobs a class key names: the ones that shape a view."""
    return (config.conflict_policy, config.open_policy, config.relative_paths)


class AccessLimitExceeded(PolicyError):
    """The requester exhausted the document's history limit."""


class _RequestScope:
    """Mutable holder for one request's per-stage timing breakdown and
    its pending metric updates.

    ``pending`` accumulates ``(kind, name, labels, value)`` tuples that
    are flushed in ONE :meth:`MetricsRegistry.record_batch` call when
    the scope closes — so a request pays a single uncontended lock
    acquisition for all its accounting (see the C1 locking bound in
    ``benchmarks/run_report.py``). The scope itself is request-private
    (held in a ``ContextVar``), so appends are race-free.
    """

    __slots__ = ("timings", "pending")

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}
        self.pending: list[tuple] = []


#: The scope of the request currently being processed on this thread /
#: context (None outside a request). ContextVar, like the tracer: each
#: worker thread of a concurrent front end gets its own.
_ACTIVE_SCOPE: ContextVar[Optional[_RequestScope]] = ContextVar(
    "repro_request_scope", default=None
)


def _histogram_summary(histogram) -> dict:
    """Count/mean/approximate-percentiles for a latency histogram."""
    return {
        "count": histogram.count,
        "mean": histogram.mean,
        "p50": histogram.percentile(50),
        "p95": histogram.percentile(95),
        "p99": histogram.percentile(99),
    }


class SecureXMLServer:
    """A complete in-process server enforcing the paper's model."""

    def __init__(
        self,
        default_policy: Optional[PolicyConfig] = None,
        audit: Optional[AuditLog] = None,
        view_cache: Optional[ViewCache] = None,
        limits: Optional[ResourceLimits] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace_requests: bool = True,
    ) -> None:
        self.repository = Repository()
        self.store = AuthorizationStore()
        self.audit = audit if audit is not None else AuditLog()
        self.view_cache = view_cache
        #: Default per-request resource guards; individual requests may
        #: override via the ``limits=`` parameter of serve()/query().
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        #: Per-server metric registry (request outcomes, latencies,
        #: per-stage costs, cache effectiveness); see server.stats()
        #: and docs/OBSERVABILITY.md.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: When true (the default), every serve()/query() runs under a
        #: request-scoped tracer and the response carries a per-stage
        #: ``timings`` breakdown. Turn off to shave the last few
        #: microseconds from microbenchmarks.
        self.trace_requests = trace_requests
        self._default_policy = default_policy or PolicyConfig()
        self._document_policies: dict[str, PolicyConfig] = {}
        # Requester -> effective-permission class memo, plus the set of
        # distinct requesters seen per class (for the collision metric).
        # Both guarded by one lock and keyed on the store version (which
        # counts directory changes), so policy/membership changes
        # invalidate naturally.
        self._class_lock = threading.Lock()
        self._class_cache: "OrderedDict" = OrderedDict()
        self._class_members: "OrderedDict" = OrderedDict()
        # (uri, class, action, policy, validity) -> shared
        # VisibilityOracle for the virtual query path; entries carry the
        # store/document versions they were built against.
        self._oracle_lock = threading.Lock()
        self._oracles: "OrderedDict" = OrderedDict()
        # Write-path label-state reuse: (uri, write-class, action,
        # policy, validity) -> (LabelState, store/doc versions, tree).
        # A state is claimed (removed) by the update that reuses it —
        # rebasing mutates it, so it must never be shared.
        self._update_lock = threading.Lock()
        self._update_states: "OrderedDict" = OrderedDict()
        # History-limit ledger: (uri, requester) -> the times of its
        # latest answered reads of a limited document (see _count_read).
        self._history_lock = threading.Lock()
        self._history: dict = {}
        self._history_sweep_at = 1024
        # Attribute sink failures to this server's registry too (the
        # process-wide METRICS keeps counting regardless); an audit log
        # explicitly wired to another registry is left alone.
        if self.audit.metrics is None:
            self.audit.metrics = self.metrics

    # -- administration -----------------------------------------------------

    @property
    def hierarchy(self) -> SubjectHierarchy:
        return self.store.hierarchy

    @property
    def directory(self):
        return self.store.hierarchy.directory

    def add_user(self, name: str, groups: tuple[str, ...] | list[str] = ()) -> str:
        return self.directory.add_user(name, groups)

    def add_group(self, name: str, parents: tuple[str, ...] | list[str] = ()) -> str:
        return self.directory.add_group(name, parents)

    def publish_dtd(self, uri: str, dtd) -> None:
        self.repository.add_dtd(uri, dtd)

    def publish_document(
        self,
        uri: str,
        content: Document | str,
        dtd_uri: Optional[str] = None,
        policy: Optional[PolicyConfig] = None,
        validate_on_add: bool = False,
        defer_parse: bool = False,
    ) -> None:
        """Publish a document; text content parses under the server's
        resource limits (or lazily, at first request, with
        *defer_parse*), so hostile uploads trip a typed guard instead
        of exhausting the process."""
        self.repository.add_document(
            uri,
            content,
            dtd_uri=dtd_uri,
            validate_on_add=validate_on_add,
            defer_parse=defer_parse,
            limits=self.limits,
        )
        if policy is not None:
            self._document_policies[uri] = policy

    def set_policy(self, uri: str, policy: PolicyConfig) -> None:
        """Configure the (single) policy governing document *uri*."""
        self._document_policies[uri] = policy

    def policy_for(self, uri: str) -> PolicyConfig:
        return self._document_policies.get(uri, self._default_policy)

    def grant(self, authorization: Authorization) -> Authorization:
        """Register one authorization (instance- or schema-level,
        depending on the object URI)."""
        return self.store.add(authorization)

    def attach_xacl(self, xacl_text: str) -> list[Authorization]:
        """Load an XACL document into the authorization store."""
        authorizations = parse_xacl(xacl_text)
        self.store.add_all(authorizations)
        return authorizations

    # -- serving --------------------------------------------------------------

    def serve(
        self, request: AccessRequest, limits: Optional[ResourceLimits] = None
    ) -> AccessResponse:
        """Serve one document request as the requester's view.

        When a :class:`~repro.server.cache.ViewCache` is configured,
        requests are keyed by the requester's *effective-permission
        class* (:func:`repro.subjects.canonical.effective_class`):
        distinct requesters with provably identical applicable
        authorizations share one cached entry, and a hit skips the
        authorization bind as well as the tree work (store/document
        versions and a time-validity marker guard freshness — see
        docs/VIEWS.md's sharing model). :meth:`serve_stream` shares
        the same entries.
        Concurrent misses on one key are collapsed by the cache's
        single-flight protocol: the first request computes the view,
        the rest wait and share the result (one labeling pass, audited
        as ``cache hit (single-flight)``; see docs/ARCHITECTURE.md's
        threading-model section and
        :func:`repro.server.concurrent.serve_many` for the worker-pool
        front end).

        *limits* overrides the server's default
        :class:`~repro.limits.ResourceLimits` for this request. A
        tripped guard never escapes as a traceback: it is audited and
        returned as a structured failure (``response.ok`` is false,
        ``response.error`` carries the typed exception). A cache outage
        degrades to recomputing the view; a repository read failure
        raises a typed :class:`~repro.errors.RepositoryError`.

        Unless ``trace_requests`` is off, the request runs under a
        request-scoped tracer and ``response.timings`` carries the
        per-stage wall-clock breakdown (seconds by stage name, e.g.
        ``label``, ``prune``, ``serialize``; the ``request.serve``
        entry is the whole request). See docs/OBSERVABILITY.md.
        """
        with self._request_scope("serve") as scope:
            response = self._serve(request, limits, "serve")
        response.timings = scope.timings
        return response

    def serve_stream(
        self,
        request: AccessRequest,
        limits: Optional[ResourceLimits] = None,
        sink=None,
        chunk_size: int = 65536,
        feed_size: int = 65536,
    ) -> AccessResponse:
        """Serve one document request through the streaming pipeline.

        Semantically identical to :meth:`serve` — the view text, the
        loosened DTD, the ``empty`` flag and the node counts are the
        same, byte for byte — but the document is never materialized as
        a tree: the stored source streams through
        :class:`~repro.stream.reader.StreamReader` →
        :class:`~repro.stream.labeler.StreamLabeler` →
        :class:`~repro.stream.writer.StreamWriter`, in memory bounded
        by ``ResourceLimits.max_stream_buffer_bytes`` instead of the
        document size (``max_node_count`` does not apply: no nodes are
        created).

        *sink*, when given, receives the view text incrementally in
        chunks of roughly *chunk_size* characters — the first visible
        bytes leave before the last input byte is read. *feed_size* is
        how much source is handed to the reader per step.

        The request runs :meth:`serve`'s flow and shares its view
        cache: a cache hit or a shared single-flight result answers
        without streaming, and a streamed view is cached for both entry
        points. When an applicable authorization's path expression
        falls outside the streamable XPath subset, the same request
        falls back to the DOM pipeline, under its deadline and counted
        as ``serve_stream`` (and on ``stream_fallback_total``);
        correctness is never traded for streaming. A view that did not
        stream — a hit, a shared result or a fallback — reaches *sink*
        in *chunk_size* pieces.
        """
        with self._request_scope("serve_stream") as scope:
            response = self._serve(
                request, limits, "serve_stream", sink, chunk_size, feed_size
            )
        response.timings = scope.timings
        return response

    def _serve(
        self,
        request: AccessRequest,
        limits: Optional[ResourceLimits],
        kind: str,
        sink=None,
        chunk_size: int = 65536,
        feed_size: int = 65536,
    ) -> AccessResponse:
        """The one request flow behind :meth:`serve` (*kind* ``serve``,
        the DOM backend) and :meth:`serve_stream` (``serve_stream``,
        the streaming backend): :meth:`_begin_read`, cache probe and
        single-flight, the backend on a miss, cache put, and one step
        for the response, metrics and audit record."""
        limits = limits if limits is not None else self.limits
        deadline = limits.deadline()
        started, stored, versions, now = self._begin_read(
            request, kind, request.action
        )
        dtd_uri = stored.dtd_uri
        backend = "stream" if kind == "serve_stream" else "dom"
        notes: list[str] = []
        try:
            deadline.check("request")
        except ResourceError as exc:
            return self._guard_failure(
                request, exc, started, kind=kind, backend=backend
            )

        # The cache is keyed on the requester's *effective class* (plus
        # the time-validity marker), not on the bound authorization
        # identities: distinct-but-equivalent requesters share one
        # entry, and a hit skips authorization binding entirely. The
        # bind happens in the backend, only when a view is computed.
        cache_key = None
        lead, flight = False, None
        if self.view_cache is not None:
            cache_key = self._class_key(
                request.requester, request.uri, dtd_uri, request.action, now
            )
            try:
                hit = self.view_cache.get(cache_key, *versions)
            except Exception:
                # Degrade, don't die: a broken cache means recomputing
                # the view, not failing the request. Skip the put too.
                hit, cache_key = None, None
                notes.append("cache unavailable; view recomputed")
                self.metrics.counter(
                    "cache_degraded_total", event="get-failed"
                ).inc()
            else:
                self._meter(
                    "counter",
                    "viewcache_requests_total",
                    {"result": "hit" if hit is not None else "miss"},
                    1,
                )
            if hit is not None:
                return self._respond(
                    request, kind, hit, started, "cache hit", backend,
                    sink, chunk_size,
                )
            # Single-flight: the first miss on a key becomes the leader
            # and computes the view; concurrent misses on the same key
            # park on its Flight and share the result — one labeling
            # pass, not N.
            if cache_key is not None:
                lead, flight = self.view_cache.begin_flight(cache_key)
                if not lead:
                    shared = flight.wait(timeout=deadline.remaining())
                    if shared is not None and (
                        shared.store_version, shared.document_version
                    ) == versions:
                        self.view_cache.record_shared()
                        self.metrics.counter(
                            "single_flight_total", outcome="shared"
                        ).inc()
                        return self._respond(
                            request, kind, shared, started,
                            "cache hit (single-flight)", backend,
                            sink, chunk_size,
                        )
                    # Leader failed, timed out, or computed under
                    # different versions: compute our own view, without
                    # leadership.
                    self.metrics.counter(
                        "single_flight_total", outcome="recomputed"
                    ).inc()

        shareable: Optional[CachedView] = None
        try:
            try:
                if backend == "stream":
                    try:
                        view = self._stream_view(
                            request, stored, now, versions, limits, deadline,
                            sink, chunk_size, feed_size,
                        )
                        notes.append("streamed")
                        sink = None  # the writer already delivered it
                    except StreamPathUnsupported as exc:
                        self._stream_fallback(request, request.action, exc)
                        backend = "dom"
                if backend == "dom":
                    view = self._dom_view(
                        request, stored, now, versions, limits, deadline
                    )
            except ResourceError as exc:
                return self._guard_failure(
                    request, exc, started, kind=kind, backend=backend
                )
            # A deferred document's first request learns its DTD URI
            # (from the parse or the DOCTYPE) only now, so the key it
            # probed with lacks the schema validity marker: keep its
            # view out of the cache and away from followers.
            if cache_key is not None and stored.dtd_uri == dtd_uri:
                try:
                    self.view_cache.put(cache_key, view)
                except Exception:
                    notes.append("cache store failed; view served uncached")
                    self.metrics.counter(
                        "cache_degraded_total", event="put-failed"
                    ).inc()
                # Even when the put failed, parked followers can still
                # reuse the computed entry — it is correct regardless of
                # whether the cache kept it.
                shareable = view
        finally:
            if lead:
                self.view_cache.end_flight(cache_key, flight, shareable)
        return self._respond(
            request, kind, view, started, "; ".join(notes), backend,
            sink, chunk_size,
        )

    def _begin_read(
        self, request: AccessRequest | QueryRequest, kind: str, action: str
    ) -> tuple[float, StoredDocument, tuple[int, int], float]:
        """The prologue of a read (a serve or a query, audited as
        *action*): the history check, then the start time, the stored
        document, its version snapshot and the request's one clock
        reading."""
        self._enforce_history_limit(request.requester, request.uri, kind, action)
        started = time.perf_counter()
        stored = self._stored(request.requester, request.uri, action, kind)
        # Version snapshot for the cache protocol, taken *before* the
        # tree and the authorizations are read: if a concurrent
        # update/grant lands in between, the entry we build is labelled
        # with the pre-mutation versions and therefore immediately
        # stale (safe), never wrongly fresh.
        versions = (self.store.version, stored.version)
        # One clock reading keys the cache and oracles and binds the
        # authorizations, so a key never describes another validity
        # window than its view.
        return started, stored, versions, time.time()

    def _respond(
        self,
        request: AccessRequest,
        kind: str,
        view: CachedView,
        started: float,
        detail: str,
        backend: str,
        sink,
        chunk_size: int,
    ) -> AccessResponse:
        """Answer a request from *view* — a cache hit, a shared
        single-flight result or a freshly computed view — with its
        metrics and audit record. *sink*, when given, receives the view
        text in *chunk_size* pieces."""
        if sink is not None:
            text = view.xml_text
            step = max(1, chunk_size)
            for offset in range(0, len(text), step):
                sink(text[offset : offset + step])
        elapsed = time.perf_counter() - started
        outcome = "empty" if view.empty else "released"
        self._count_read(request.requester, request.uri)
        self._record_request(kind, outcome, elapsed)
        self.audit.record(
            request.requester,
            request.uri,
            request.action,
            outcome,
            visible_nodes=view.visible_nodes,
            total_nodes=view.total_nodes,
            elapsed_seconds=elapsed,
            detail=detail,
            backend=backend,
        )
        return AccessResponse(
            uri=request.uri,
            xml_text=view.xml_text,
            loosened_dtd_text=view.loosened_dtd_text,
            empty=view.empty,
            visible_nodes=view.visible_nodes,
            total_nodes=view.total_nodes,
            elapsed_seconds=elapsed,
        )

    def _dom_view(
        self,
        request: AccessRequest,
        stored,
        now: float,
        versions: tuple[int, int],
        limits: ResourceLimits,
        deadline: Deadline,
    ) -> CachedView:
        """The DOM backend: :meth:`_view_tree`, serialized. Resource
        guards propagate; the returned view records its binding and is
        stamped with *versions*."""
        view = self._view_tree(request, stored, now, limits, deadline)
        with span("serialize"):
            loosened = view.document.dtd
            return CachedView(
                serialize(view.document, doctype=False),
                serialize_dtd(loosened) if loosened else None,
                view.empty,
                view.visible_nodes,
                view.total_nodes,
                view.instance_auths,
                view.schema_auths,
                *versions,
            )

    def _view_tree(
        self,
        request: AccessRequest | QueryRequest,
        stored,
        now: float,
        limits: Optional[ResourceLimits],
        deadline: Optional[Deadline],
    ) -> ViewResult:
        """The DOM backend's view tree: parse (a deferred document's
        first request), bind at *now*, label and prune. Resource guards
        propagate."""
        document = stored.document(limits=limits, deadline=deadline)
        config = self.policy_for(request.uri)
        instance_auths, schema_auths = self._bind(
            request.requester, request.uri, stored.dtd_uri, request.action, now
        )
        return compute_view_from_auths(
            document,
            instance_auths,
            schema_auths,
            self.hierarchy,
            policy=config.build_policy(),
            open_policy=config.open_policy,
            relative_mode=config.relative_paths,
            limits=limits,
            deadline=deadline,
        )

    def _stream_view(
        self,
        request: AccessRequest | QueryRequest,
        stored,
        now: float,
        versions: tuple[int, int],
        limits: ResourceLimits,
        deadline: Deadline,
        sink=None,
        chunk_size: int = 65536,
        feed_size: int = 65536,
    ) -> CachedView:
        """The streaming backend: reader → labeler → writer, binding at
        *now*; the returned view records that binding and is stamped
        with *versions*.

        Raises :class:`~repro.stream.paths.StreamPathUnsupported` when
        an applicable authorization cannot be compiled for streaming
        (before anything reaches *sink*), and lets resource guards
        (:class:`~repro.errors.ResourceError`) and syntax errors
        propagate — the callers decide how to surface them.
        """
        text = stored.source_text()
        config = self.policy_for(request.uri)
        reader = StreamReader(limits=limits, deadline=deadline)
        writer = StreamWriter(sink=sink, chunk_size=chunk_size)
        # The labeler is built lazily, at the root element: by then the
        # DOCTYPE (if any) has been read, so schema-level authorizations
        # can bind to the declared SYSTEM DTD even for deferred-parse
        # documents — the same information the DOM path gets from the
        # parsed tree.
        labeler: Optional[StreamLabeler] = None
        held: list = []
        binding: tuple = ()

        def build_labeler() -> StreamLabeler:
            nonlocal binding
            doctype_system = next(
                (
                    event.system_id
                    for event in held
                    if isinstance(event, DoctypeDecl)
                ),
                None,
            )
            if stored.dtd_uri is None and doctype_system is not None:
                stored.dtd_uri = doctype_system
            binding = self._bind(
                request.requester,
                request.uri,
                stored.dtd_uri,
                request.action,
                now,
            )
            instance_auths, schema_auths = binding
            with span("stream.compile"):
                return StreamLabeler(
                    writer,
                    instance_auths,
                    schema_auths,
                    hierarchy=self.hierarchy,
                    policy=config.build_policy(),
                    open_policy=config.open_policy,
                    relative_mode=config.relative_paths,
                    limits=limits,
                    deadline=deadline,
                )

        with span("stream.pipeline"):
            for start in range(0, len(text), feed_size):
                events = reader.feed(text[start : start + feed_size])
                if labeler is None:
                    held.extend(events)
                    if any(isinstance(event, StartElement) for event in events):
                        labeler = build_labeler()
                        labeler.feed(held)
                        held = []
                else:
                    labeler.feed(events)
            events = reader.close()
            if labeler is None:
                held.extend(events)
                labeler = build_labeler()
                labeler.feed(held)
            else:
                labeler.feed(events)
            xml_text = writer.end_document()

        dtd = labeler.dtd
        if dtd is None and stored.dtd_uri and self.repository.has_dtd(stored.dtd_uri):
            dtd = self.repository.dtd(stored.dtd_uri)
        loosened_text = None
        if dtd is not None:
            with span("dtd.loosen"):
                loosened_text = serialize_dtd(loosen(dtd))
        stats = labeler.stats
        self.metrics.counter("stream_events_total").inc(stats.events)
        if stats.buffered_elements:
            self.metrics.counter("stream_buffered_subtrees_total").inc(
                stats.buffered_elements
            )
        self.metrics.histogram("stream_peak_buffer_depth").observe(
            stats.peak_pending_depth
        )
        return CachedView(
            xml_text,
            loosened_text,
            labeler.empty,
            stats.visible_nodes,
            stats.total_nodes,
            *binding,
            *versions,
        )

    def query(
        self,
        request: QueryRequest,
        limits: Optional[ResourceLimits] = None,
        stream: bool = False,
        virtual: bool = False,
    ) -> AccessResponse:
        """Answer a path-expression query against the requester's view.

        The expression is evaluated on the *pruned* view, so results can
        never mention nodes the requester is not entitled to see. A
        query is a read of that view: it runs :meth:`serve`'s checks —
        the document's history limit (an answered query counts as one
        access; a refused one raises
        :class:`AccessLimitExceeded`), the resource guards (the XPath
        step budget and the request deadline; a tripped guard comes back
        as a structured failure, audited under the backend that
        tripped) — and ``response.timings`` carries the per-stage
        breakdown (the whole request appears as ``request.query``).
        Queries do not use the view cache.

        With *stream* the view is produced by the streaming pipeline
        (no tree of the stored document is materialized; only the —
        typically much smaller — pruned view is parsed for evaluation),
        falling back to the DOM pipeline, as :meth:`serve_stream` does,
        when an authorization path is not streamable. The query result
        is identical either way.

        With *virtual* the view is never materialized at all: the query
        is rewritten into a guarded query over the stored document
        (:mod:`repro.rewrite`) and only the matched subtrees are
        pruned/serialized — same answer bytes, a fraction of the work
        for selective queries. Queries outside the rewritable XPath
        subset fall back transparently to the materialized (or, with
        *stream*, the streaming) path (counted on
        ``rewrite_fallback_total``); see docs/VIEWS.md.
        """
        with self._request_scope("query") as scope:
            response = self._query(request, limits, stream, virtual)
        response.timings = scope.timings
        return response

    def _query(
        self,
        request: QueryRequest,
        limits: Optional[ResourceLimits],
        stream: bool,
        virtual: bool,
    ) -> AccessResponse:
        """The query flow: :meth:`_serve`'s prologue
        (:meth:`_begin_read`, then the deadline check), the backend's
        selection of the matched nodes together with the function that
        serializes them, and one step for the response, metrics and
        audit record."""
        limits = limits if limits is not None else self.limits
        deadline = limits.deadline()
        action = f"query[{request.xpath}]"
        started, stored, versions, now = self._begin_read(request, "query", action)
        rewritten = None
        if virtual:
            try:
                with span("rewrite.plan"):
                    rewritten = compile_rewrite(request.xpath)
            except RewriteUnsupported as exc:
                # Outside the rewritable subset: the materialized (or
                # streaming) backend answers — same bytes, slower path.
                self._meter(
                    "counter", "rewrite_fallback_total", {"reason": exc.reason}, 1
                )
                self._meter(
                    "counter", "rewrite_requests_total", {"outcome": "fallback"}, 1
                )
        backend = (
            "virtual" if rewritten is not None else "stream" if stream else "dom"
        )
        try:
            deadline.check("request")
            if rewritten is not None:
                document = stored.document(limits=limits, deadline=deadline)
                oracle = self._oracle_for(
                    request, stored, document, versions, now, limits, deadline
                )
                nodes = []
                if oracle.has_visible_root():
                    with span("rewrite.eval"):
                        nodes = rewritten.select(
                            document,
                            oracle,
                            max_steps=limits.max_xpath_steps,
                            deadline=deadline,
                        )
                render = oracle.serialize_match
                # The view is never computed, so ``visible_nodes`` is
                # the match count (docs/VIEWS.md).
                visible_nodes = len(nodes)
                total_nodes = stored.node_count(document)
            else:
                if backend == "stream":
                    try:
                        view = self._stream_view(
                            request, stored, now, versions, limits, deadline
                        )
                    except StreamPathUnsupported as exc:
                        self._stream_fallback(request, action, exc)
                        backend = "dom"
                    else:
                        # An empty view has no root to parse.
                        view_document = (
                            Document()
                            if view.empty
                            else parse_document(
                                view.xml_text,
                                uri=request.uri,
                                limits=limits,
                                deadline=deadline,
                            )
                        )
                if backend == "dom":
                    view = self._view_tree(request, stored, now, limits, deadline)
                    view_document = view.document
                nodes = (
                    select(
                        request.xpath,
                        view_document,
                        max_steps=limits.max_xpath_steps,
                        deadline=deadline,
                    )
                    if view_document.root
                    else []
                )
                render = serialize
                visible_nodes = view.visible_nodes
                total_nodes = view.total_nodes
        except ResourceError as exc:
            if rewritten is not None:
                self._meter(
                    "counter", "rewrite_requests_total", {"outcome": "error"}, 1
                )
            return self._guard_failure(
                request, exc, started, action=action, kind="query", backend=backend
            )
        if rewritten is not None:
            self._meter(
                "counter", "rewrite_requests_total", {"outcome": "rewritten"}, 1
            )
        with span("serialize"):
            matches = [render(node) for node in nodes]
        elapsed = time.perf_counter() - started
        outcome = "released" if matches else "empty"
        self._count_read(request.requester, request.uri)
        self._record_request("query", outcome, elapsed)
        self.audit.record(
            request.requester,
            request.uri,
            action,
            outcome,
            visible_nodes=len(matches),
            total_nodes=total_nodes,
            elapsed_seconds=elapsed,
            backend=backend,
        )
        return AccessResponse(
            uri=request.uri,
            xml_text="\n".join(matches),
            empty=not matches,
            visible_nodes=visible_nodes,
            total_nodes=total_nodes,
            elapsed_seconds=elapsed,
            matches=matches,
        )

    def _stream_fallback(
        self,
        request: AccessRequest | QueryRequest,
        action: str,
        exc: StreamPathUnsupported,
    ) -> None:
        """Count and audit a stream request whose authorization paths
        do not stream; the caller answers it with the DOM backend."""
        self.metrics.counter(
            "stream_fallback_total", reason="unsupported-path"
        ).inc()
        self.audit.record(
            request.requester,
            request.uri,
            action,
            "fallback",
            detail=f"stream fallback: {exc}",
            backend="stream",
        )

    def view(self, requester: Requester, uri: str, action: str = "read") -> ViewResult:
        """The full :class:`ViewResult` (labels included) for one
        request: the DOM backend's view tree, unguarded and unaudited
        (only a repository failure is audited and counted, under
        ``requests_total{kind="view"}``)."""
        stored = self._stored(requester, uri, action, "view")
        return self._view_tree(
            AccessRequest(requester, uri, action), stored, time.time(), None, None
        )

    def explain(
        self,
        requester: Requester,
        uri: str,
        xpath: Optional[str] = None,
        action: str = "read",
        limits: Optional[ResourceLimits] = None,
    ) -> Explanation:
        """Explain *requester*'s view of *uri*, node by node.

        Relabels the view and derives every node's provenance from the
        labeler's bins and labels
        (:class:`~repro.core.explain.Provenance`), returning the
        resulting :class:`~repro.core.explain.Explanation`:
        for every node, the candidate authorizations per label slot,
        the conflict-resolution verdict, the exact propagation source
        (which ancestor's authorization a sign was inherited from,
        whether a weak sign was overridden) and the pruning outcome.
        ``explanation.describe()`` renders it for humans;
        ``explanation.to_json()`` for machines.

        *xpath*, when given, selects the nodes of interest (evaluated
        on the *full* stored document — explaining why something is
        absent from the view is the point); they land in
        ``explanation.targets`` and focus ``describe()``. The whole
        per-node map stays available either way.

        The request is metered (``explain_requests_total``,
        ``provenance_nodes_recorded_total``), traced under
        ``decision.explain`` (``explanation.timings`` carries the
        stage breakdown) and audited with ``action="explain"``. A
        tripped resource guard is counted and audited as an ``error``,
        as :meth:`serve`'s are, and then raised.
        """
        with self._request_scope("explain") as scope:
            explanation = self._explain(requester, uri, xpath, action, limits)
        explanation.timings = scope.timings
        return explanation

    def _explain(
        self,
        requester: Requester,
        uri: str,
        xpath: Optional[str],
        action: str,
        limits: Optional[ResourceLimits],
    ) -> Explanation:
        limits = limits if limits is not None else self.limits
        deadline = limits.deadline()
        started = time.perf_counter()
        stored = self._stored(requester, uri, action, "explain")
        audited = "explain" if xpath is None else f"explain[{xpath}]"
        config = self.policy_for(uri)
        try:
            deadline.check("request")
            document = stored.document(limits=limits, deadline=deadline)
            with span("decision.explain"):
                instance_auths, schema_auths = self._bind(
                    requester, uri, stored.dtd_uri, action, time.time()
                )
                explanation = explain_from_auths(
                    document,
                    instance_auths,
                    schema_auths,
                    self.hierarchy,
                    policy=config.build_policy(),
                    open_policy=config.open_policy,
                    relative_mode=config.relative_paths,
                    uri=uri,
                    requester=str(requester),
                    action=action,
                    limits=limits,
                    deadline=deadline,
                )
                if xpath is not None:
                    explanation.targets = select(
                        xpath,
                        document,
                        max_steps=limits.max_xpath_steps,
                        deadline=deadline,
                    )
        except ResourceError as exc:
            self._guard_failure(
                AccessRequest(requester, uri, action), exc, started,
                action=audited, kind="explain",
            )
            raise
        elapsed = time.perf_counter() - started
        self._meter("counter", "explain_requests_total", {}, 1)
        self._meter(
            "counter", "provenance_nodes_recorded_total", {}, len(explanation)
        )
        self._record_request("explain", "released", elapsed)
        self.audit.record(
            requester,
            uri,
            audited,
            "released",
            visible_nodes=explanation.visible_nodes,
            total_nodes=len(explanation),
            elapsed_seconds=elapsed,
            detail=f"{len(explanation.targets)} target(s)" if xpath else "",
        )
        return explanation

    def update(
        self, request: UpdateRequest, limits: Optional[ResourceLimits] = None
    ) -> UpdateOutcome:
        """Apply a write/update batch under ``action="write"`` labels.

        The operations are enforced node-by-node against the requester's
        write authorizations (paper, Section 8 future work; see
        :mod:`repro.update`), applied to a clone of the stored document
        under the per-document lock (so two concurrent writers never
        lose each other's batch), re-validated against its DTD and
        committed with a monotonically increasing per-document version.
        Relabeling after the edit is incremental — only the edited
        subtrees are re-run (``outcome.relabeled_nodes``/
        ``outcome.incremental``) — and view-cache invalidation is
        subtree-granular: entries whose views provably did not
        intersect the edit survive with re-stamped versions
        (``outcome.cache_kept``/``cache_dropped``).

        On denial or validation failure nothing is changed and the
        exception propagates (audited as denied). A tripped resource
        guard comes back as a *structured* failure: ``applied`` false,
        ``error``/``error_kind`` set, no traceback. Applied batches
        carry write provenance in ``outcome.admitted`` — exactly which
        authorizations admitted each touched target.
        """
        with self._request_scope("update") as scope:
            outcome = self._update(request, limits)
        outcome.detail = outcome.detail or ""
        return outcome

    def _update(
        self, request: UpdateRequest, limits: Optional[ResourceLimits]
    ) -> UpdateOutcome:
        limits = limits if limits is not None else self.limits
        deadline = limits.deadline()
        started = time.perf_counter()
        stored = self._stored(
            request.requester, request.uri, request.action, kind="update"
        )
        config = self.policy_for(request.uri)
        # The whole read-clone-apply-commit cycle runs under the
        # per-document lock: concurrent readers stay lock-free on the
        # old tree, but a second writer waits instead of cloning the
        # same base and losing this batch on commit.
        with stored.exclusive():
            store_version = self.store.version
            old_version = stored.version
            now = time.time()
            try:
                deadline.check("request")
                document = stored.document(limits=limits, deadline=deadline)
            except ResourceError as exc:
                return self._update_guard_failure(request, exc, started)
            instance_auths, schema_auths = self._bind(
                request.requester, request.uri, stored.dtd_uri, request.action, now
            )
            engine = UpdateEngine(
                self.hierarchy,
                policy=config.build_policy(),
                relative_mode=config.relative_paths,
            )
            state_key = self._class_key(
                request.requester, request.uri, stored.dtd_uri, request.action, now
            )
            state = self._claim_update_state(
                state_key, store_version, old_version, document
            )
            try:
                result = engine.apply_full(
                    document,
                    request,
                    instance_auths,
                    schema_auths,
                    limits=limits,
                    deadline=deadline,
                    state=state,
                    collect_admitted=True,
                )
            except (UpdateDenied, ValidationError) as exc:
                elapsed = time.perf_counter() - started
                bucket = (
                    "denied" if isinstance(exc, UpdateDenied) else "invalid"
                )
                self._meter(
                    "counter", "update_requests_total", {"outcome": bucket}, 1
                )
                self._record_request("update", "denied", elapsed)
                self.audit.record(
                    request.requester,
                    request.uri,
                    request.action,
                    "denied",
                    elapsed_seconds=elapsed,
                    detail=str(exc),
                    backend="update",
                )
                raise
            except ResourceError as exc:
                return self._update_guard_failure(request, exc, started)
            with span("update.commit"):
                result.document.uri = request.uri
                stored.replace_tree(result.document)
                new_version = stored.version
            self._store_update_state(
                state_key, result.state, store_version, new_version,
                result.document,
            )
            kept = dropped = 0
            if self.view_cache is not None:
                with span("update.invalidate"):
                    kept, dropped = self._invalidate_after_update(
                        request.uri, document, result,
                        store_version, old_version, new_version,
                        limits, deadline,
                    )
        outcome = result.outcome
        outcome.version = new_version
        outcome.cache_kept = kept
        outcome.cache_dropped = dropped
        elapsed = time.perf_counter() - started
        self._meter(
            "counter", "update_requests_total", {"outcome": "applied"}, 1
        )
        self._meter(
            "counter", "relabel_nodes_total", {}, outcome.relabeled_nodes
        )
        self._record_request("update", "released", elapsed)
        self.audit.record(
            request.requester,
            request.uri,
            request.action,
            "released",
            visible_nodes=outcome.touched_nodes,
            elapsed_seconds=elapsed,
            detail=f"{outcome.operations} operation(s) applied",
            backend="update",
        )
        return outcome

    def _update_guard_failure(
        self, request: UpdateRequest, exc: ResourceError, started: float
    ) -> UpdateOutcome:
        """Turn a tripped guard on the write path into a structured,
        audited :class:`UpdateOutcome` instead of a raised traceback,
        with the read path's trip accounting."""
        self._meter(
            "counter", "update_requests_total", {"outcome": "error"}, 1
        )
        failure = self._guard_failure(
            request, exc, started, kind="update", backend="update"
        )
        return UpdateOutcome(
            applied=False, error=exc, error_kind=failure.error_kind
        )

    def _claim_update_state(
        self, key, store_version: int, document_version: int, document
    ):
        """Take (and remove) a reusable write-label state for *key*.

        Valid only when the store and document versions it was saved
        under still hold and the saved tree is the stored tree itself —
        otherwise it silently rebuilds. Claiming removes the entry
        because rebasing mutates the state in place.
        """
        with self._update_lock:
            entry = self._update_states.pop(key, None)
        if entry is None:
            return None
        state, entry_store_v, entry_doc_v, entry_doc = entry
        if (
            entry_store_v == store_version
            and entry_doc_v == document_version
            and entry_doc is document
        ):
            return state
        return None

    def _store_update_state(
        self, key, state, store_version: int, document_version: int, document
    ) -> None:
        with self._update_lock:
            self._update_states[key] = (
                state, store_version, document_version, document,
            )
            self._update_states.move_to_end(key)
            while len(self._update_states) > 16:
                self._update_states.popitem(last=False)

    def _invalidate_after_update(
        self,
        uri: str,
        old_document: Document,
        result,
        store_version: int,
        old_version: int,
        new_version: int,
        limits: ResourceLimits,
        deadline: Deadline,
    ) -> tuple[int, int]:
        """Subtree-granular cache invalidation + oracle refresh.

        Every cached view of *uri* is proven unaffected by the edit
        (:meth:`VisibilityOracle.refreshed_for_update`) or dropped. A
        class with a live visibility oracle is proven with it; any
        other entry with an oracle over the pre-update tree, built from
        the binding the entry recorded and the document's policy. An
        entry keyed under another policy than the document's current
        one, bound at another store version, or whose oracle trips a
        resource guard is dropped. Proven-disjoint entries survive
        with re-stamped versions. Refreshed oracle twins are installed
        so the virtual query path stays warm across updates. Nothing
        here reads the repository or the clock.
        """
        config = self.policy_for(uri)
        with self._oracle_lock:
            snapshot = [
                (key, entry)
                for key, entry in self._oracles.items()
                if key[0] == uri
            ]
        decisions: dict = {}
        refreshed: dict = {}

        def prove(key, oracle) -> bool:
            out = oracle.refreshed_for_update(
                result.document, result.node_map, result.deltas
            )
            if out is None:
                return False
            twin, affected = out
            decisions[key] = not affected
            refreshed[key] = twin
            return not affected

        for key, (oracle, entry_store_v, entry_doc_v) in snapshot:
            if (
                entry_store_v != store_version
                or entry_doc_v != old_version
                or oracle.document is not old_document
            ):
                continue  # stale oracle: no proof for this class
            prove(key, oracle)

        def keep(key, entry: CachedView) -> bool:
            if key in decisions:
                return decisions[key]
            # Only a binding made at this store version under the
            # document's current policy is the class's binding now, so
            # only then may its proof and refreshed twin stand for it.
            if (
                key[3] != _policy_marker(config)
                or entry.store_version != store_version
            ):
                return False
            try:
                oracle = VisibilityOracle(
                    old_document,
                    entry.instance_auths,
                    entry.schema_auths,
                    self.hierarchy,
                    policy=config.build_policy(),
                    open_policy=config.open_policy,
                    relative_mode=config.relative_paths,
                    limits=limits,
                    deadline=deadline,
                )
            except ResourceError:
                return False
            return prove(key, oracle)

        kept, dropped = self.view_cache.invalidate_uri(
            uri,
            keep=keep,
            versions=((store_version, old_version), (store_version, new_version)),
        )
        with self._oracle_lock:
            for key in [k for k in self._oracles if k[0] == uri]:
                twin = refreshed.get(key)
                if twin is not None:
                    self._oracles[key] = (twin, store_version, new_version)
                else:
                    del self._oracles[key]
            for key, twin in refreshed.items():
                if key not in self._oracles:
                    self._oracles[key] = (twin, store_version, new_version)
                    self._oracles.move_to_end(key)
            while len(self._oracles) > 64:
                self._oracles.popitem(last=False)
        self._meter(
            "counter",
            "cache_partial_invalidations_total",
            {"result": "kept"},
            kept,
        )
        self._meter(
            "counter",
            "cache_partial_invalidations_total",
            {"result": "dropped"},
            dropped,
        )
        return kept, dropped

    def check_consistency(
        self,
        requester: Requester,
        uri: str,
        suggest_repairs: bool = False,
        limits: Optional[ResourceLimits] = None,
    ):
        """Check write/read policy consistency for *requester* on *uri*.

        Flags every node the requester may write but cannot see (a
        write grant on a read-hidden node — useless at best, a probe
        oracle at worst); with *suggest_repairs* each finding carries
        the minimal read grant that would expose the node, attributed
        to the requester. Audited with backend ``update`` and outcome
        ``accept`` (no findings) or ``repair``; a tripped resource guard
        is counted and audited as an ``error`` and then raised. Returns
        the list of :class:`~repro.update.consistency.ConsistencyFinding`.
        """
        limits = limits if limits is not None else self.limits
        deadline = limits.deadline()
        with self._request_scope("consistency"):
            started = time.perf_counter()
            stored = self._stored(requester, uri, "consistency", "consistency")
            config = self.policy_for(uri)
            now = time.time()
            try:
                deadline.check("request")
                document = stored.document(limits=limits, deadline=deadline)
                read_instance, read_schema = self._bind(
                    requester, uri, stored.dtd_uri, "read", now
                )
                write_instance, write_schema = self._bind(
                    requester, uri, stored.dtd_uri, "write", now
                )
                findings = check_write_consistency(
                    document,
                    uri=uri,
                    read_instance=read_instance,
                    read_schema=read_schema,
                    write_instance=write_instance,
                    write_schema=write_schema,
                    hierarchy=self.hierarchy,
                    policy=config.build_policy(),
                    open_policy=config.open_policy,
                    relative_mode=config.relative_paths,
                    suggest_repairs=suggest_repairs,
                    repair_subject=requester.as_spec(),
                    limits=limits,
                    deadline=deadline,
                )
            except ResourceError as exc:
                self._guard_failure(
                    AccessRequest(requester, uri, "consistency"), exc, started,
                    kind="consistency", backend="update",
                )
                raise
            elapsed = time.perf_counter() - started
            outcome = "accept" if not findings else "repair"
            self._meter(
                "counter", "consistency_checks_total", {"outcome": outcome}, 1
            )
            self._record_request("consistency", outcome, elapsed)
            self.audit.record(
                requester,
                uri,
                "consistency",
                outcome,
                visible_nodes=len(findings),
                elapsed_seconds=elapsed,
                detail=f"{len(findings)} finding(s)",
                backend="update",
            )
        return findings

    def processor_for(self, uri: str) -> SecurityProcessor:
        """A :class:`SecurityProcessor` configured with *uri*'s policy."""
        config = self.policy_for(uri)
        return SecurityProcessor(
            hierarchy=self.hierarchy,
            policy=config.build_policy(),
            open_policy=config.open_policy,
            relative_mode=config.relative_paths,
        )

    # -- observability --------------------------------------------------------

    def stats(self) -> dict:
        """An aggregate operational snapshot of this server.

        Returns a plain dict (JSON-serializable) with:

        - ``requests`` — ``{kind: {outcome: count}}`` for every
          serve/query handled (outcomes: ``released``, ``empty``,
          ``denied``, ``error``);
        - ``latency`` — per-kind request-latency summaries (count,
          mean and approximate p50/p95/p99, seconds) from the fixed
          histogram buckets;
        - ``stages`` — the same summaries per pipeline stage
          (``parse.xml``, ``label``, ``prune``, ...);
        - ``cache`` — :meth:`ViewCache.stats` (``None`` when no cache
          is configured);
        - ``documents``, ``authorizations``, ``audit_records`` —
          inventory sizes;
        - ``metrics`` — the raw per-server registry snapshot
          (:meth:`~repro.obs.metrics.MetricsRegistry.as_dict`).

        Global infrastructure counters (fault firings, retries) live on
        :data:`repro.obs.METRICS`, not here, because they are not
        attributable to one server instance.
        """
        requests: dict[str, dict[str, float]] = {}
        latency: dict[str, dict] = {}
        stages: dict[str, dict] = {}
        for metric in self.metrics:
            if metric.name == "requests_total":
                kind = metric.labels.get("kind", "?")
                outcome = metric.labels.get("outcome", "?")
                requests.setdefault(kind, {})[outcome] = metric.value
            elif metric.name == "request_seconds":
                latency[metric.labels.get("kind", "?")] = _histogram_summary(metric)
            elif metric.name == "stage_seconds":
                stages[metric.labels.get("stage", "?")] = _histogram_summary(metric)
        return {
            "requests": requests,
            "latency": latency,
            "stages": stages,
            "cache": self.view_cache.stats() if self.view_cache is not None else None,
            "documents": sum(1 for _ in self.repository.documents()),
            "authorizations": len(self.store),
            "audit_records": len(self.audit),
            "metrics": self.metrics.as_dict(),
        }

    @contextmanager
    def _request_scope(self, kind: str) -> Iterator["_RequestScope"]:
        """Run one request under a tracer and collect its breakdown.

        Reuses an already-active tracer (so callers doing their own
        ``with tracing():`` see every request's spans accumulate) or
        activates a fresh one for just this request. On normal exit the
        scope's ``timings`` holds seconds-per-stage and the per-stage
        histograms are fed; when a request raises (history denial,
        repository failure) the spans still land on the tracer but no
        breakdown is recorded.
        """
        scope = _RequestScope()
        token = _ACTIVE_SCOPE.set(scope)
        try:
            if not self.trace_requests:
                yield scope
                return
            outer = current_tracer()
            tracer = outer if outer is not None else Tracer()
            mark = len(tracer.spans)
            if outer is None:
                with tracing(tracer):
                    with tracer.span(f"request.{kind}"):
                        yield scope
            else:
                with tracer.span(f"request.{kind}"):
                    yield scope
            scope.timings = stage_totals(tracer.spans[mark:])
            for stage, seconds in scope.timings.items():
                scope.pending.append(
                    ("histogram", "stage_seconds", {"stage": stage}, seconds)
                )
        finally:
            # Flush even when the request raised (history denial,
            # repository failure): the outcome counters queued so far
            # must land; only the per-stage breakdown is skipped.
            _ACTIVE_SCOPE.reset(token)
            if scope.pending:
                self.metrics.record_batch(scope.pending)

    def _meter(self, kind: str, name: str, labels: dict, value: float) -> None:
        """Queue one metric update on the active request scope (flushed
        as a single batched lock acquisition at scope exit), or apply it
        immediately when no request scope is active."""
        scope = _ACTIVE_SCOPE.get()
        if scope is not None:
            scope.pending.append((kind, name, labels, value))
        else:
            self.metrics.record_batch([(kind, name, labels, value)])

    def _record_request(
        self, kind: str, outcome: str, elapsed: Optional[float] = None
    ) -> None:
        self._meter("counter", "requests_total", {"kind": kind, "outcome": outcome}, 1)
        if elapsed is not None:
            self._meter("histogram", "request_seconds", {"kind": kind}, elapsed)

    # -- internals ---------------------------------------------------------------

    def _oracle_for(
        self,
        request: QueryRequest,
        stored,
        document: Document,
        versions: tuple[int, int],
        now: float,
        limits: ResourceLimits,
        deadline: Deadline,
    ) -> VisibilityOracle:
        """A visibility oracle for this request's effective class at
        *now*, bound on a miss.

        Oracles are shared across requests of one class (their label
        memos accumulate), keyed like cached views and validated
        against the store/document *versions* they were built against.
        """
        key = self._class_key(
            request.requester, request.uri, stored.dtd_uri, request.action, now
        )
        with self._oracle_lock:
            entry = self._oracles.get(key)
            if entry is not None:
                oracle, entry_store_v, entry_doc_v = entry
                if (
                    (entry_store_v, entry_doc_v) == versions
                    and oracle.document is document
                ):
                    self._oracles.move_to_end(key)
                    return oracle
                del self._oracles[key]
        config = self.policy_for(request.uri)
        instance_auths, schema_auths = self._bind(
            request.requester, request.uri, stored.dtd_uri, request.action, now
        )
        oracle = VisibilityOracle(
            document,
            instance_auths,
            schema_auths,
            self.hierarchy,
            policy=config.build_policy(),
            open_policy=config.open_policy,
            relative_mode=config.relative_paths,
            limits=limits,
            deadline=deadline,
        )
        with self._oracle_lock:
            self._oracles[key] = (oracle, *versions)
            self._oracles.move_to_end(key)
            while len(self._oracles) > 64:
                self._oracles.popitem(last=False)
        return oracle

    def _effective_class(
        self, requester: Requester, action: str = "read"
    ) -> EffectiveClass:
        """Memoized requester canonicalization (see repro.subjects).

        Keyed on the store version, which counts directory changes too,
        so a grant or a group-membership change recomputes classes. The
        first time a *second* distinct requester lands in an existing
        class, ``effective_class_collisions_total`` counts the collapse.
        """
        marker = (self.store.version, action)
        with self._class_lock:
            entry = self._class_cache.get((requester, action))
            if entry is not None and entry[0] == marker:
                self._class_cache.move_to_end((requester, action))
                return entry[1]
        effective = self.store.effective_class(requester, action)
        with self._class_lock:
            self._class_cache[(requester, action)] = (marker, effective)
            self._class_cache.move_to_end((requester, action))
            while len(self._class_cache) > 4096:
                self._class_cache.popitem(last=False)
            members = self._class_members.get((marker, effective))
            if members is None:
                members = set()
                self._class_members[(marker, effective)] = members
                while len(self._class_members) > 4096:
                    self._class_members.popitem(last=False)
            if requester not in members:
                if members:
                    self._meter(
                        "counter", "effective_class_collisions_total", {}, 1
                    )
                if len(members) < 64:
                    members.add(requester)
        return effective

    def _class_key(
        self,
        requester: Requester,
        uri: str,
        dtd_uri: Optional[str],
        action: str,
        now: float,
    ):
        """The key of *requester*'s class on *uri* at *now*: effective
        class, action, the document's policy knobs, and which
        time-windowed authorizations on *uri* and its DTD are active.

        Cached views, visibility oracles and write-label states are all
        keyed by it; :meth:`_invalidate_after_update` relies on that
        when it matches oracle keys to cache keys.
        """
        validity = (
            self.store.validity_marker(uri, action, at=now),
            self.store.validity_marker(dtd_uri, action, at=now) if dtd_uri else (),
        )
        return ViewCache.class_key(
            uri,
            self._effective_class(requester, action),
            action,
            _policy_marker(self.policy_for(uri)),
            validity,
        )

    def _bind(
        self,
        requester: Requester,
        uri: str,
        dtd_uri: Optional[str],
        action: str,
        now: float,
    ) -> tuple[list[Authorization], list[Authorization]]:
        """The instance-level (on *uri*) and schema-level (on its DTD's
        *dtd_uri*) authorizations that apply to *requester*'s *action*
        at *now*."""
        with span("authz.bind"):
            instance_auths, schema_auths = (
                self.store.applicable(requester, target, action, at=now)
                if target
                else []
                for target in (uri, dtd_uri)
            )
        return instance_auths, schema_auths

    def _stored(self, requester: Requester, uri: str, action: str, kind: str):
        """Fetch a stored document, converting any repository failure
        into an audited, typed :class:`~repro.errors.RepositoryError`."""
        try:
            return self.repository.stored(uri)
        except RepositoryError:
            self._record_request(kind, "error")
            self.audit.record(
                requester, uri, action, "error", detail="unknown document"
            )
            raise
        except Exception as exc:
            self.metrics.counter("repository_errors_total").inc()
            self._record_request(kind, "error")
            self.audit.record(
                requester,
                uri,
                action,
                "error",
                detail=f"repository read failed: {exc}",
            )
            raise RepositoryError(
                f"repository read failed for {uri!r}: {exc}"
            ) from exc

    def _guard_failure(
        self,
        request: AccessRequest | QueryRequest | UpdateRequest,
        exc: ResourceError,
        started: float,
        action: Optional[str] = None,
        kind: str = "serve",
        backend: str = "dom",
    ) -> AccessResponse:
        """Turn a tripped resource guard into an audited structured
        failure instead of a raised traceback."""
        elapsed = time.perf_counter() - started
        trip_kind = (
            "deadline-exceeded"
            if isinstance(exc, DeadlineExceeded)
            else "limit-exceeded"
        )
        self.metrics.counter("guard_trips_total", kind=trip_kind).inc()
        self._record_request(kind, "error", elapsed)
        self.audit.record(
            request.requester,
            request.uri,
            action or request.action,
            "error",
            elapsed_seconds=elapsed,
            detail=f"{trip_kind}: {exc}",
            backend=backend,
        )
        return AccessResponse(
            uri=request.uri,
            xml_text="",
            empty=True,
            elapsed_seconds=elapsed,
            error=exc,
            error_kind=trip_kind,
        )

    def _enforce_history_limit(
        self, requester: Requester, uri: str, kind: str, action: str
    ) -> None:
        """Refuse a read of *uri* — a serve or a query, audited as
        *action* — once *requester* has used up the document's history
        limit, counting the answered reads in its ledger
        (:meth:`_count_read`)."""
        limit = self.policy_for(uri).history_limit
        if limit is None:
            return
        horizon = time.time() - limit.window_seconds
        with self._history_lock:
            times = self._history.get((uri, str(requester)), ())
            granted = sum(1 for at in times if at >= horizon)
        if granted >= limit.max_accesses:
            self._record_request(kind, "denied")
            self.audit.record(
                requester,
                uri,
                action,
                "denied",
                detail=(
                    f"history limit: {limit.max_accesses} accesses per "
                    f"{limit.window_seconds:.0f}s exhausted"
                ),
            )
            raise AccessLimitExceeded(
                f"{requester} exceeded {limit.max_accesses} accesses on {uri} "
                f"within {limit.window_seconds:.0f}s"
            )

    def _count_read(self, requester: Requester, uri: str) -> None:
        """Enter one answered read (a released or empty serve, stream
        or query) in *requester*'s ledger for *uri*, when the document
        has a history limit. An empty answer counts: it still reveals
        that the document exists and costs a view computation.

        A ledger keeps the times of its latest ``max_accesses`` reads:
        whether that many fall inside the window is all the limit asks.
        Once the table has doubled since the last sweep, ledgers whose
        newest read has left its window are dropped, so expired ones do
        not pile up and no read still inside its window is lost.
        """
        limit = self.policy_for(uri).history_limit
        if limit is None:
            return
        now = time.time()
        key = (uri, str(requester))
        with self._history_lock:
            times = self._history.get(key)
            if times is None or times.maxlen != limit.max_accesses:
                times = deque(times or (), maxlen=limit.max_accesses)
                self._history[key] = times
            times.append(now)
            if len(self._history) > self._history_sweep_at:
                self._history = {
                    (read_uri, reader): ledger
                    for (read_uri, reader), ledger in self._history.items()
                    if self._within_limit_window(read_uri, ledger[-1], now)
                }
                self._history_sweep_at = max(1024, 2 * len(self._history))

    def _within_limit_window(self, uri: str, at: float, now: float) -> bool:
        """Whether a read of *uri* at *at* still counts at *now*."""
        limit = self.policy_for(uri).history_limit
        return limit is not None and at >= now - limit.window_seconds
