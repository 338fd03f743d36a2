"""The authorization store: the server's set Auth.

Authorizations are indexed by the URI of their object, so that steps 1
and 2 of the compute-view algorithm —

    Axml := {a ∈ Auth | rq ≤ subject(a), uri(object(a)) = URI}
    Adtd := {a ∈ Auth | rq ≤ subject(a), uri(object(a)) = dtd(URI)}

— are two indexed lookups followed by a subject-applicability filter.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.authz.authorization import Authorization
from repro.subjects.canonical import EffectiveClass, effective_class
from repro.subjects.hierarchy import Requester, SubjectHierarchy

__all__ = ["AuthorizationStore"]


class AuthorizationStore:
    """All authorizations known to one server.

    The store is also the place where the subject hierarchy lives: use
    :attr:`hierarchy` (and its :attr:`~SubjectHierarchy.directory`) to
    register users and groups.
    """

    def __init__(self, hierarchy: Optional[SubjectHierarchy] = None) -> None:
        self.hierarchy = hierarchy if hierarchy is not None else SubjectHierarchy()
        self._by_uri: dict[str, list[Authorization]] = {}
        self._count = 0
        self._version = 0
        self._universes: dict[Optional[str], tuple] = {}
        self._universe_version = -1

    # -- mutation ------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation of the store or of
        its :attr:`hierarchy`'s directory (cache guard).

        Cached views, visibility oracles and write-label states are
        validated by this version, and a directory change alters views
        without touching the store: conflict resolution's
        most-specific-subject filter reads the directory's group order.
        Both counters only grow, so their sum changes on every mutation
        of either.
        """
        return self._version + self.hierarchy.directory.version

    def add(self, authorization: Authorization) -> Authorization:
        """Register one authorization."""
        self._by_uri.setdefault(authorization.object.uri, []).append(authorization)
        self._count += 1
        self._version += 1
        return authorization

    def add_all(self, authorizations: Iterable[Authorization]) -> None:
        for authorization in authorizations:
            self.add(authorization)

    def remove(self, authorization: Authorization) -> bool:
        """Remove one authorization; returns whether it was present."""
        bucket = self._by_uri.get(authorization.object.uri)
        if not bucket:
            return False
        for index, existing in enumerate(bucket):
            if existing is authorization:
                del bucket[index]
                self._count -= 1
                self._version += 1
                if not bucket:
                    del self._by_uri[authorization.object.uri]
                return True
        return False

    def clear_uri(self, uri: str) -> int:
        """Drop every authorization attached to *uri*."""
        bucket = self._by_uri.pop(uri, [])
        self._count -= len(bucket)
        if bucket:
            self._version += 1
        return len(bucket)

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Authorization]:
        for bucket in self._by_uri.values():
            yield from bucket

    def for_uri(self, uri: str) -> list[Authorization]:
        """Every authorization whose object URI is *uri*."""
        return list(self._by_uri.get(uri, ()))

    def uris(self) -> list[str]:
        return list(self._by_uri)

    def applicable(
        self,
        requester: Requester,
        uri: str,
        action: str = "read",
        at: Optional[float] = None,
    ) -> list[Authorization]:
        """Authorizations on *uri* applying to *requester* and *action*.

        This computes the paper's ``{a | rq ≤ subject(a),
        uri(object(a)) = URI}`` restricted to the requested action, with
        the future-work filters layered on: validity windows are checked
        against *at* (skip by passing ``None``) and credential clauses
        against the requester's presented credentials.
        """
        presented = requester.credential_map
        return [
            authorization
            for authorization in self._by_uri.get(uri, ())
            if authorization.action == action
            and authorization.is_active(at)
            and authorization.credentials_satisfied(presented)
            and self.hierarchy.applies_to(authorization.subject, requester)
        ]

    # -- canonicalization ------------------------------------------------------

    def subject_universe(self, action: Optional[str] = None) -> tuple:
        """The subject vocabulary referenced by the stored authorizations.

        Returns ``(user_groups, ip_patterns, symbolic_patterns,
        credential_clauses)``, each deduplicated — the inputs
        :func:`repro.subjects.canonical.effective_class` intersects a
        requester against. *action*, when given, restricts the universe
        to authorizations for that action: subjects referenced only by
        other actions cannot influence an *action*-applicability
        verdict, and excluding them lets more requesters collapse into
        one class. Cached per :attr:`version`.
        """
        if self._universe_version != self._version:
            self._universes.clear()
            self._universe_version = self._version
        cached = self._universes.get(action)
        if cached is not None:
            return cached
        user_groups: set[str] = set()
        ip_patterns: set = set()
        symbolic_patterns: set = set()
        credential_clauses: set = set()
        for authorization in self:
            if action is not None and authorization.action != action:
                continue
            subject = authorization.subject
            user_groups.add(subject.user_group)
            ip_patterns.add(subject.ip)
            symbolic_patterns.add(subject.symbolic)
            credential_clauses.update(authorization.credentials)
        universe = (
            frozenset(user_groups),
            frozenset(ip_patterns),
            frozenset(symbolic_patterns),
            frozenset(credential_clauses),
        )
        self._universes[action] = universe
        return universe

    def effective_class(
        self, requester: Requester, action: str = "read"
    ) -> EffectiveClass:
        """Canonicalize *requester* against this store's universe.

        Requesters with equal classes hold identical applicable
        authorization sets for every URI under *action* (see
        :mod:`repro.subjects.canonical`), so views and query plans
        computed for one can be shared with the others. Time-windowed
        applicability is *not* covered — combine with
        :meth:`validity_marker` when keying caches.
        """
        groups, ips, symbolics, clauses = self.subject_universe(action)
        return effective_class(
            requester,
            self.hierarchy,
            user_groups=groups,
            ip_patterns=ips,
            symbolic_patterns=symbolics,
            credential_clauses=clauses,
        )

    def validity_marker(
        self, uri: str, action: str = "read", at: Optional[float] = None
    ) -> tuple[bool, ...]:
        """Which time-windowed authorizations on *uri* are active at *at*.

        Effective classes are time-blind; this marker captures the one
        remaining time-dependent applicability input, so a cache key of
        ``(class, validity_marker)`` is exactly as discriminating as the
        full applicable-authorization computation. Bucket order is
        stable between mutations and mutations bump :attr:`version`,
        which cache entries already carry.
        """
        return tuple(
            authorization.is_active(at)
            for authorization in self._by_uri.get(uri, ())
            if authorization.action == action and authorization.validity is not None
        )
