"""Server-side view cache.

A view is a pure function of (document tree, applicable authorization
set, policy knobs) — so repeated requests by requesters who resolve to
the *same* applicable authorizations (e.g. every anonymous visitor, or
all members of one group from unrestricted locations) can share one
computed view. This is the natural production optimization for the
paper's architecture: enforcement stays server-side and per-request,
only the tree work is amortized.

Correctness is guarded by versioning, not by invalidation hooks: the
authorization store and each stored document carry monotonic version
counters; a cache hit is only honoured when both versions still match.

The cache is **thread-safe**. Entry and counter access goes through one
:class:`threading.RLock` — without it, concurrent ``get``/``put`` calls
corrupt the ``OrderedDict``'s LRU order (``move_to_end`` races with
eviction's ``popitem``), lose counter increments, and can raise
``RuntimeError: dictionary changed size during iteration`` out of
``stats()``. On top of the lock sits a **single-flight** protocol for
misses: when N concurrent requests miss on the same key, the first
becomes the *leader* and computes the view once; the other N-1 become
*followers*, park on the leader's :class:`Flight`, and share the result
— one labeling pass instead of N (see
:meth:`~repro.server.service.SecureXMLServer.serve`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.authz.authorization import Authorization
from repro.obs.trace import span
from repro.testing.faults import trip

__all__ = ["CachedView", "Flight", "ViewCache"]


@dataclass
class CachedView:
    """One memoized serialization of a computed view, with the binding
    it was computed from: the instance-level and schema-level
    authorizations the backend bound. An update proves the entry
    unaffected from that binding
    (:meth:`ViewCache.invalidate_uri`'s *keep*)."""

    xml_text: str
    loosened_dtd_text: Optional[str]
    empty: bool
    visible_nodes: int
    total_nodes: int
    instance_auths: list[Authorization]
    schema_auths: list[Authorization]
    store_version: int
    document_version: int


class Flight:
    """One in-progress view computation that concurrent misses share.

    The *leader* (the request that started the computation) publishes
    its :class:`CachedView` — or ``None``, when the computation failed
    or was never cacheable — via :meth:`complete`; *followers* park in
    :meth:`wait`. A flight completes exactly once; waiting after
    completion returns immediately.
    """

    __slots__ = ("_ready", "entry")

    def __init__(self) -> None:
        self._ready = threading.Event()
        self.entry: Optional[CachedView] = None

    def complete(self, entry: Optional[CachedView]) -> None:
        self.entry = entry
        self._ready.set()

    def wait(self, timeout: Optional[float] = None) -> Optional[CachedView]:
        """Block until the leader publishes; ``None`` on timeout/failure."""
        if not self._ready.wait(timeout):
            return None
        return self.entry


class ViewCache:
    """A bounded LRU keyed by :meth:`class_key` (uri, effective class,
    action, policy knobs, validity marker).

    The cache keeps its own effectiveness counters — ``hits``,
    ``misses``, ``evictions``, ``stale``, ``shared`` — exposed as a
    consistent snapshot by :meth:`stats` and zeroed by
    :meth:`reset_stats` (the entries themselves survive a stats reset;
    :meth:`clear` drops entries but keeps the counters).
    :meth:`~repro.server.service.SecureXMLServer.stats` folds this
    snapshot into the server-wide report.

    All entry and counter access is serialized on one reentrant lock;
    see the module docstring for why. The lock is never held while a
    view is being computed — single-flight followers wait on the
    leader's :class:`Flight` event, not on the cache lock.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("view cache needs at least one entry")
        self._max_entries = max_entries
        self._entries: "OrderedDict[Hashable, CachedView]" = OrderedDict()
        self._lock = threading.RLock()
        self._flights: dict[Hashable, Flight] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale = 0
        #: single-flight reuses: follower requests answered from a
        #: leader's computation (already counted in ``misses`` — the
        #: follower's lookup missed before it joined the flight).
        self.shared = 0
        #: update-driven removals: entries dropped by
        #: :meth:`invalidate_uri` because the edit may have changed
        #: their bytes. Distinct from ``evictions`` (capacity) and
        #: ``stale`` (lazy version-mismatch discovery on lookup).
        self.invalidated = 0
        #: entries an update provably did not affect: kept through
        #: :meth:`invalidate_uri` with their versions re-stamped, so
        #: the next lookup hits instead of finding them stale.
        self.revalidated = 0

    @staticmethod
    def class_key(
        uri: str,
        effective_class: Hashable,
        action: str,
        policy_marker: Hashable,
        validity_marker: Hashable = (),
    ) -> Hashable:
        """Build a cache key from a requester's *effective class*.

        Building it does not require binding the applicable
        authorizations first — equal
        :class:`~repro.subjects.canonical.EffectiveClass` keys imply
        equal applicable sets, so distinct-but-equivalent requesters
        collapse onto one entry and a cache hit skips the bind
        entirely. *validity_marker* (see
        ``AuthorizationStore.validity_marker``) carries the
        time-windowed applicability bits the class deliberately
        excludes.
        """
        return (
            uri,
            effective_class,
            action,
            policy_marker,
            validity_marker,
        )

    def get(
        self, key: Hashable, store_version: int, document_version: int
    ) -> Optional[CachedView]:
        with span("cache.lookup"):
            trip("cache.get")
            with self._lock:
                entry = self._entries.get(key)
                if entry is None:
                    self.misses += 1
                    return None
                if (
                    entry.store_version != store_version
                    or entry.document_version != document_version
                ):
                    # Stale: the policy or the document changed underneath it.
                    del self._entries[key]
                    self.stale += 1
                    self.misses += 1
                    return None
                self._entries.move_to_end(key)
                self.hits += 1
                return entry

    def put(self, key: Hashable, entry: CachedView) -> None:
        with span("cache.store"):
            trip("cache.put")
            with self._lock:
                self._entries[key] = entry
                self._entries.move_to_end(key)
                while len(self._entries) > self._max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1

    # -- single-flight --------------------------------------------------------

    def begin_flight(self, key: Hashable) -> tuple[bool, Flight]:
        """Join the in-progress computation for *key*.

        Returns ``(True, flight)`` when this caller is the leader (it
        must eventually call :meth:`end_flight`, success or not) and
        ``(False, flight)`` when another request is already computing —
        the caller should :meth:`Flight.wait` and reuse the result.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = Flight()
                self._flights[key] = flight
                return True, flight
            return False, flight

    def end_flight(
        self, key: Hashable, flight: Flight, entry: Optional[CachedView]
    ) -> None:
        """Leader hand-off: publish *entry* (or ``None`` on failure) to
        every parked follower and retire the flight. New misses on the
        same key start a fresh flight."""
        with self._lock:
            if self._flights.get(key) is flight:
                del self._flights[key]
        flight.complete(entry)

    def record_shared(self) -> None:
        """Count one single-flight reuse (a follower served from the
        leader's computation)."""
        with self._lock:
            self.shared += 1

    def invalidate_uri(
        self,
        uri: str,
        keep=None,
        versions: Optional[tuple[tuple[int, int], tuple[int, int]]] = None,
    ) -> tuple[int, int]:
        """Subtree-granular invalidation after an update to *uri*.

        *keep* is a predicate over ``(key, entry)``: ``True`` means the
        edit provably did not intersect that entry's view (the server
        proves this with a visibility oracle over the binding the entry
        recorded), so the entry survives. Every other entry for *uri* is
        dropped. With no *keep*, everything for *uri* is dropped.

        *versions* is ``(proven, current)``: the ``(store_version,
        document_version)`` pair the keep-proof was made against (the
        pre-update one) and the post-commit pair. A kept entry built at
        *proven* — or already at *current* — is re-stamped to *current*,
        so the next lookup hits instead of discarding it as stale; one
        built at any other versions is dropped, since the proof says
        nothing about the tree it came from. Without *versions*, kept
        entries keep their versions.

        Runs in two phases so the (possibly slow) keep predicate is
        never evaluated under the cache lock: snapshot the URI's
        entries, decide outside the lock, re-apply under the lock
        checking each key is still present. An entry raced in between
        the phases for a *kept* key is re-stamped too — safe, because a
        key names one class, and the keep decision proved that class's
        view bytes identical across the edit (and only if it was built
        at the proven versions).

        Returns ``(kept, dropped)``.
        """
        with self._lock:
            snapshot = [
                (key, entry)
                for key, entry in self._entries.items()
                if isinstance(key, tuple) and key and key[0] == uri
            ]
        decisions = [
            (key, keep is not None and bool(keep(key, entry)))
            for key, entry in snapshot
        ]
        kept = dropped = 0
        with self._lock:
            for key, keep_it in decisions:
                entry = self._entries.get(key)
                if entry is None:
                    continue
                if keep_it and versions is not None:
                    proven, current = versions
                    built_at = (entry.store_version, entry.document_version)
                    keep_it = built_at == proven or built_at == current
                    if keep_it:
                        entry.store_version, entry.document_version = current
                if keep_it:
                    self.revalidated += 1
                    kept += 1
                else:
                    del self._entries[key]
                    self.invalidated += 1
                    dropped += 1
        return kept, dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """A point-in-time, mutually consistent effectiveness snapshot.

        Keys: ``entries``, ``max_entries``, ``hits``, ``misses``,
        ``hit_rate``, ``evictions`` (capacity-driven removals),
        ``stale`` (version-mismatch removals; already counted in
        ``misses``), ``shared`` (single-flight reuses; their lookups
        are already counted in ``misses``, so
        ``hits + misses == lookups`` always holds), ``invalidated``
        (update-driven removals via :meth:`invalidate_uri` — *not*
        evictions) and ``revalidated`` (entries an update provably kept
        valid). Taken under the cache lock, so the counters cohere even
        while other threads serve.
        """
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "evictions": self.evictions,
                "stale": self.stale,
                "shared": self.shared,
                "invalidated": self.invalidated,
                "revalidated": self.revalidated,
            }

    def reset_stats(self) -> None:
        """Zero the counters without touching the cached entries."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.stale = 0
            self.shared = 0
            self.invalidated = 0
            self.revalidated = 0
