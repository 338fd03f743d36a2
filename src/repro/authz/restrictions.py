"""Credential, time- and history-based restrictions.

The paper's closing future-work list (Section 8): "the enforcement of
credentials and history- and time-based restrictions on access". These
are orthogonal filters layered on top of subject applicability:

- :class:`ValidityWindow` — an authorization holds only between
  ``not_before`` and ``not_after`` (epoch seconds, either open-ended);
- :class:`CredentialClause` — a predicate over the requester's
  presented credentials (attribute/value pairs established at
  authentication time, e.g. ``role=physician``); all clauses of an
  authorization must be satisfied (conjunction, like the paper's XPath
  conditions);
- :class:`HistoryLimit` — at most N answered reads per requester per
  document within a sliding window; enforced by the server against a
  ledger of each requester's latest reads of the document, kept from
  the moment the limit is set (history lives server-side, exactly where
  the paper's architecture keeps all state).

All three default to "unrestricted" so the base model is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import AuthorizationError

__all__ = ["ValidityWindow", "CredentialClause", "HistoryLimit"]


@dataclass(frozen=True)
class ValidityWindow:
    """A half-open-ended time interval in epoch seconds."""

    not_before: Optional[float] = None
    not_after: Optional[float] = None

    def __post_init__(self) -> None:
        if (
            self.not_before is not None
            and self.not_after is not None
            and self.not_before > self.not_after
        ):
            raise AuthorizationError(
                "validity window ends before it starts "
                f"({self.not_before} > {self.not_after})"
            )

    def active(self, at: float) -> bool:
        """Whether the window covers time *at*."""
        if self.not_before is not None and at < self.not_before:
            return False
        if self.not_after is not None and at > self.not_after:
            return False
        return True


_OPS = ("=", "!=", ">=", "<=", "contains", "present")


@dataclass(frozen=True)
class CredentialClause:
    """One predicate over a requester credential.

    Operators: ``=``, ``!=`` (string comparison), ``>=``, ``<=``
    (numeric comparison; non-numeric values fail the clause),
    ``contains`` (substring), and ``present`` (the key exists,
    ``value`` ignored). A missing key fails every operator except
    ``!=``.
    """

    key: str
    op: str = "present"
    value: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise AuthorizationError(
                f"unknown credential operator {self.op!r} (known: {_OPS})"
            )
        if not self.key:
            raise AuthorizationError("credential clause requires a key")

    def satisfied(self, credentials: Mapping[str, str]) -> bool:
        actual = credentials.get(self.key)
        if self.op == "present":
            return actual is not None
        if self.op == "!=":
            return actual != self.value
        if actual is None:
            return False
        if self.op == "=":
            return actual == self.value
        if self.op == "contains":
            return self.value in actual
        try:
            left = float(actual)
            right = float(self.value)
        except ValueError:
            return False
        return left >= right if self.op == ">=" else left <= right


@dataclass(frozen=True)
class HistoryLimit:
    """At most *max_accesses* granted reads within *window_seconds*."""

    max_accesses: int
    window_seconds: float

    def __post_init__(self) -> None:
        if self.max_accesses < 1:
            raise AuthorizationError("history limit must allow at least 1 access")
        if self.window_seconds <= 0:
            raise AuthorizationError("history window must be positive")
