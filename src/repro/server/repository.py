"""The server's document/DTD repository.

Binds URIs to stored resources: XML documents, their DTDs, and the
XACLs carrying instance- and schema-level authorizations (paper,
Section 7: "the processor operation also involves the document's DTD
and the associated XACL"). Documents can be stored parsed or as text
(parsed lazily and cached).
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.errors import RepositoryError
from repro.limits import Deadline, ResourceLimits
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.dtd.validator import validate
from repro.testing.faults import trip
from repro.xml.nodes import Document
from repro.xml.parser import parse_document
from repro.xml.traversal import count_nodes

__all__ = ["Repository", "ShardRouter", "StoredDocument"]


class ShardRouter:
    """Consistent-hash routing of document URIs onto *shards*.

    Used by the multi-process pool (``repro.server.pool``) to decide
    which shard — and therefore which worker process — owns a document.
    The ring hashes with :mod:`hashlib` MD5, **not** the built-in
    ``hash()``: string hashing is randomized per process
    (``PYTHONHASHSEED``), so built-in hashes would route the same URI to
    different shards in the parent and in a spawned worker. MD5 gives
    every process the identical ring, which is the whole point.

    Consistent hashing (many virtual points per shard on a ring,
    lookups by clockwise successor) keeps the assignment stable as the
    shard count changes: going from N to N+1 shards moves only ~1/(N+1)
    of the URIs, where modulo hashing would reshuffle nearly all of
    them. Routers are cheap, immutable after construction, and
    picklable, so one can be captured in a worker's setup callable.
    """

    __slots__ = ("num_shards", "replicas", "_points", "_owners")

    def __init__(self, num_shards: int, replicas: int = 64) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.num_shards = num_shards
        self.replicas = replicas
        ring: list[tuple[int, int]] = []
        for shard in range(num_shards):
            for replica in range(replicas):
                ring.append((self._hash(f"shard:{shard}:{replica}"), shard))
        ring.sort()
        self._points = [point for point, _ in ring]
        self._owners = [owner for _, owner in ring]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.md5(key.encode("utf-8")).digest()[:8], "big"
        )

    def shard_of(self, uri: str) -> int:
        """The shard owning *uri* (stable across processes and runs)."""
        if self.num_shards == 1:
            return 0
        index = bisect.bisect_right(self._points, self._hash(uri))
        if index == len(self._points):
            index = 0  # wrap: past the last point -> first point
        return self._owners[index]

    def partition(self, uris: Iterator[str] | list[str]) -> dict[int, list[str]]:
        """Group *uris* by owning shard (every shard key present)."""
        groups: dict[int, list[str]] = {shard: [] for shard in range(self.num_shards)}
        for uri in uris:
            groups[self.shard_of(uri)].append(uri)
        return groups

    def __getstate__(self):
        return (self.num_shards, self.replicas)

    def __setstate__(self, state):
        self.__init__(*state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter(num_shards={self.num_shards}, replicas={self.replicas})"


@dataclass
class StoredDocument:
    """One document binding: source text and/or parsed tree.

    Lazy parsing and tree replacement are serialized on a per-document
    lock: N concurrent first requests to a deferred-parse document do
    exactly one parse (the rest wait and share the tree), and an
    :meth:`replace_tree` commit swaps tree + source + version as one
    atomic step, so a concurrent reader can never pair a new tree with
    a stale version number.
    """

    uri: str
    text: Optional[str] = None
    parsed: Optional[Document] = None
    dtd_uri: Optional[str] = None
    #: bumped whenever the stored tree is replaced (cache guard); the
    #: repository starts each new document above every version a
    #: removed one reached, so a URI's versions never repeat
    version: int = 0
    #: set once the repository has removed this document
    retired: bool = field(default=False, repr=False, compare=False)
    #: set for deferred-parse documents: resolves dtd_uri -> published
    #: DTD at first parse, mirroring what an eager add does up front
    dtd_resolver: Optional[Callable[[str], Optional[DTD]]] = field(
        default=None, repr=False, compare=False
    )
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    #: (tree, count_nodes of its root) for the tree last counted
    _node_count: Optional[tuple[Document, int]] = field(
        default=None, repr=False, compare=False
    )

    def document(
        self,
        limits: Optional[ResourceLimits] = None,
        deadline: Optional[Deadline] = None,
    ) -> Document:
        """The parsed tree, parsing lazily (under *limits*) if needed."""
        # Double-checked: the common already-parsed case stays lock-free
        # (a reference read is atomic); the parse itself is serialized
        # and the finished tree published only once fully wired up.
        if self.parsed is None:
            with self._lock:
                if self.parsed is None:
                    if self.text is None:
                        raise RepositoryError(
                            f"document {self.uri!r} has no content"
                        )
                    tree = parse_document(
                        self.text, uri=self.uri, limits=limits, deadline=deadline
                    )
                    if self.dtd_uri is None:
                        self.dtd_uri = tree.system_id
                    if (
                        tree.dtd is None
                        and self.dtd_uri
                        and self.dtd_resolver is not None
                    ):
                        published = self.dtd_resolver(self.dtd_uri)
                        if published is not None:
                            tree.dtd = published
                    self.parsed = tree
        return self.parsed

    def node_count(self, document: Document) -> int:
        """``count_nodes`` over *document*'s root, memoized per tree.

        *document* is the tree :meth:`document` returned; the memo is
        keyed by that tree, so a :meth:`replace_tree` commit makes the
        next call count the new one.
        """
        memo = self._node_count
        if memo is not None and memo[0] is document:
            return memo[1]
        count = count_nodes(document.root) if document.root is not None else 0
        self._node_count = (document, count)
        return count

    def replace_tree(self, document: Document) -> None:
        """Commit a new tree: swap it in, drop any stale source text and
        bump the version so cached views of the old tree go stale —
        atomically with respect to concurrent readers.

        Raises :class:`~repro.errors.RepositoryError` once the document
        has been removed (see :meth:`retire`)."""
        with self._lock:
            if self.retired:
                raise RepositoryError(f"document {self.uri!r} was removed")
            self.parsed = document
            self.text = None
            self.version += 1
            self._node_count = None

    def retire(self) -> int:
        """Mark the document removed and return its final version.

        Waits for a writer holding :meth:`exclusive` to commit; later
        commits are refused, so no version past the returned one is
        ever reached by this document."""
        with self._lock:
            self.retired = True
            return self.version

    def exclusive(self) -> threading.RLock:
        """The per-document lock, for callers running a multi-step
        read-clone-apply-commit cycle (the update path): holding it
        across the cycle rules out lost updates from two concurrent
        writers cloning the same base tree. Reentrant, so
        :meth:`document` and :meth:`replace_tree` may be called while
        held. Readers never take it for plain tree access."""
        return self._lock

    def source_text(self) -> str:
        """The document as text, for the streaming pipeline.

        Returns the stored source verbatim when the document was
        published as text — the common case, and the one where
        streaming never materializes a tree. A document stored only as
        a parsed tree is re-serialized (with its DOCTYPE, so the
        streaming reader sees the same entity declarations); note that
        a re-serialized tree is not guaranteed to round-trip exotic
        nodes (e.g. an explicitly constructed empty text node
        serializes as ``<a></a>`` whose re-parse has no text node).
        """
        if self.text is not None:
            return self.text
        if self.parsed is None:
            raise RepositoryError(f"document {self.uri!r} has no content")
        from repro.xml.serializer import serialize

        return serialize(self.parsed)


class Repository:
    """URI-keyed storage for documents and DTDs.

    Publication and removal are check-then-insert on the URI tables, so
    those steps run under a repository lock; lookups are single dict
    reads (atomic under the GIL) and stay lock-free. A publish checks
    its URI under the lock, parses and validates without it, and checks
    again as it inserts, so a long parse holds up no other URI.
    """

    def __init__(self) -> None:
        self._documents: dict[str, StoredDocument] = {}
        self._dtds: dict[str, DTD] = {}
        self._lock = threading.RLock()
        # First version of a newly stored document: one past the last
        # version of every document removed so far, so cache entries of
        # a removed document never match its successor at the same URI.
        self._version_floor = 0

    # -- DTDs -----------------------------------------------------------------

    def add_dtd(self, uri: str, dtd: DTD | str) -> DTD:
        """Publish a DTD under *uri* (text is parsed)."""
        with self._lock:
            if uri in self._dtds:
                raise RepositoryError(f"a DTD is already published at {uri!r}")
            parsed = parse_dtd(dtd, uri=uri) if isinstance(dtd, str) else dtd
            if parsed.uri is None:
                parsed.uri = uri
            self._dtds[uri] = parsed
            return parsed

    def dtd(self, uri: str) -> DTD:
        found = self._dtds.get(uri)
        if found is None:
            raise RepositoryError(f"no DTD published at {uri!r}")
        return found

    def has_dtd(self, uri: str) -> bool:
        return uri in self._dtds

    # -- documents ----------------------------------------------------------------

    def add_document(
        self,
        uri: str,
        content: Document | str,
        dtd_uri: Optional[str] = None,
        validate_on_add: bool = False,
        defer_parse: bool = False,
        limits: Optional[ResourceLimits] = None,
    ) -> StoredDocument:
        """Store a document (parsed or text) under *uri*.

        *dtd_uri* links the document to a published DTD, which defines
        ``dtd(URI)`` for schema-level authorization lookup. When the
        document declares a SYSTEM identifier and *dtd_uri* is omitted,
        the SYSTEM identifier is used.

        With *defer_parse*, text content is stored without parsing it;
        the parse happens lazily on first access, under whatever limits
        the request supplies — so publishing stays cheap and hostile
        content trips a guard at serve time instead of crashing the
        publisher. *limits* bounds an eager parse at add time.
        """
        with self._lock:
            if uri in self._documents:
                raise RepositoryError(f"a document is already stored at {uri!r}")
        if isinstance(content, Document):
            stored = StoredDocument(uri, parsed=content)
            content.uri = uri
        else:
            stored = StoredDocument(uri, text=content)
            if defer_parse:
                stored.dtd_uri = dtd_uri
                stored.dtd_resolver = self._dtds.get
                return self._insert(stored)
        # Parse and validate with no repository lock held, so a publish,
        # removal or DTD at another URI never waits for this document.
        document = stored.document(limits=limits)
        stored.dtd_uri = dtd_uri or document.system_id
        if stored.dtd_uri and document.dtd is None:
            document.dtd = self._dtds.get(stored.dtd_uri)
        if validate_on_add and document.dtd is not None:
            validate(document, raise_on_error=True)
        return self._insert(stored)

    def _insert(self, stored: StoredDocument) -> StoredDocument:
        """Bind *stored* to its URI unless a concurrent publish won."""
        with self._lock:
            if stored.uri in self._documents:
                raise RepositoryError(
                    f"a document is already stored at {stored.uri!r}"
                )
            stored.version = self._version_floor
            self._documents[stored.uri] = stored
            return stored

    def document(self, uri: str) -> Document:
        stored = self._documents.get(uri)
        if stored is None:
            raise RepositoryError(f"no document stored at {uri!r}")
        return stored.document()

    def stored(self, uri: str) -> StoredDocument:
        trip("repository.read")
        found = self._documents.get(uri)
        if found is None:
            raise RepositoryError(f"no document stored at {uri!r}")
        return found

    def dtd_uri_of(self, uri: str) -> Optional[str]:
        """``dtd(URI)``: the URI of the DTD governing document *uri*."""
        return self.stored(uri).dtd_uri

    def has_document(self, uri: str) -> bool:
        return uri in self._documents

    def remove_document(self, uri: str) -> None:
        with self._lock:
            stored = self._documents.get(uri)
        if stored is None:
            raise RepositoryError(f"no document stored at {uri!r}")
        # Retiring waits for the document's own lock (a first parse or
        # an update may hold it), so it runs without the repository lock.
        # The URI stays taken until the pop below, so no successor can be
        # stored there before the floor covers the final version.
        final_version = stored.retire()
        with self._lock:
            self._version_floor = max(self._version_floor, final_version + 1)
            if self._documents.get(uri) is not stored:
                raise RepositoryError(f"no document stored at {uri!r}")
            del self._documents[uri]

    def documents(self) -> Iterator[str]:
        yield from self._documents

    def dtds(self) -> Iterator[str]:
        yield from self._dtds
