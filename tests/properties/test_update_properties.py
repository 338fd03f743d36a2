"""Property-based tests for the update engine.

Invariants under random operation batches:

1. **Atomicity** — after any update attempt (applied or refused), the
   stored document is either exactly the pre-state or the full
   post-state of the whole batch; never a prefix.
2. **Validity preservation** — a document that validated before an
   applied update validates after it.
3. **Confinement** — an applied update never changes any node outside
   the requester's write entitlement (checked with unique tokens).
4. **Cache soundness** — after an update, every cached class's view
   (kept or recomputed) equals an uncached server's view of the
   committed document under the same grants.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.authz.authorization import Authorization
from repro.dtd.validator import validate
from repro.errors import ReproError
from repro.server.cache import ViewCache
from repro.server.request import AccessRequest, QueryRequest
from repro.server.service import SecureXMLServer
from repro.subjects.hierarchy import Requester
from repro.update import (
    DeleteNode,
    InsertChild,
    SetAttribute,
    SetText,
    UpdateRequest,
)
from repro.xml.serializer import serialize

URI = "http://x/board.xml"
DTD_URI = "http://x/board.dtd"

BOARD_DTD = """\
<!ELEMENT board (card*)>
<!ELEMENT card (text, tag*)>
<!ATTLIST card owner CDATA #REQUIRED prio CDATA "0">
<!ELEMENT text (#PCDATA)>
<!ELEMENT tag (#PCDATA)>
"""


def build_board(seed: int) -> str:
    rng = random.Random(seed)
    cards = []
    for index in range(rng.randint(2, 6)):
        owner = rng.choice(["alice", "bob"])
        tags = "".join(
            f"<tag>t{index}{t}</tag>" for t in range(rng.randint(0, 2))
        )
        cards.append(
            f'<card owner="{owner}" prio="{rng.randint(0, 5)}">'
            f"<text>card {index} body</text>{tags}</card>"
        )
    return "<board>" + "".join(cards) + "</board>"


def build_server(seed: int) -> SecureXMLServer:
    server = SecureXMLServer()
    server.add_user("alice")
    server.add_user("bob")
    server.publish_dtd(DTD_URI, BOARD_DTD)
    server.publish_document(URI, build_board(seed), dtd_uri=DTD_URI)
    # alice can write only her own cards; both can read everything.
    server.grant(Authorization.build("Public", URI, "+", "R"))
    server.grant(
        Authorization.build(
            ("alice", "*", "*"), f"{URI}://card[@owner='alice']", "+", "R",
            action="write",
        )
    )
    server.grant(
        Authorization.build(
            ("alice", "*", "*"), f"{URI}://board", "+", "L", action="write"
        )
    )
    return server


operations = st.lists(
    st.one_of(
        st.builds(
            SetText,
            target=st.sampled_from(
                ["//card[@owner='alice']/text", "//card[@owner='bob']/text", "//text"]
            ),
            text=st.sampled_from(["edited", "rewritten"]),
        ),
        st.builds(
            SetAttribute,
            target=st.sampled_from(["//card[@owner='alice']", "//card"]),
            name=st.just("prio"),
            value=st.sampled_from(["7", "9"]),
        ),
        st.builds(
            InsertChild,
            target=st.sampled_from(["//card[@owner='alice']", "//board"]),
            fragment=st.sampled_from(
                ["<tag>new</tag>", '<card owner="alice"><text>n</text></card>']
            ),
        ),
        st.builds(
            DeleteNode,
            target=st.sampled_from(
                ["//card[@owner='alice']", "//card[@owner='bob']", "//tag"]
            ),
        ),
    ),
    min_size=1,
    max_size=4,
)


def served(server) -> str:
    return server.serve(
        AccessRequest(Requester("bob", "9.9.9.9", "b.x"), URI)
    ).xml_text


class TestUpdateInvariants:
    @given(st.integers(0, 30), operations)
    @settings(max_examples=60, deadline=None)
    def test_atomicity_and_validity(self, seed, ops):
        server = build_server(seed)
        alice = Requester("alice", "1.1.1.1", "a.x")
        before = served(server)
        try:
            server.update(UpdateRequest(alice, URI, tuple(ops)))
            applied = True
        except ReproError:
            applied = False
        after = served(server)
        if not applied:
            assert after == before, "refused update mutated the document"
        # Whatever happened, the stored document still validates.
        document = server.repository.document(URI)
        report = validate(document, server.repository.dtd(DTD_URI))
        assert report.valid, report.violations

    @given(st.integers(0, 30), operations)
    @settings(max_examples=60, deadline=None)
    def test_confinement_to_write_entitlement(self, seed, ops):
        """Bob's cards' text content never changes under Alice's ops
        (insertion under <board> is allowed by her L grant, but existing
        bob-owned content must be byte-identical)."""
        server = build_server(seed)
        alice = Requester("alice", "1.1.1.1", "a.x")
        from repro.xpath.evaluator import select

        def bob_texts():
            document = server.repository.document(URI)
            return [
                node.text()
                for node in select("//card[@owner='bob']/text", document)
            ]

        before = bob_texts()
        try:
            server.update(UpdateRequest(alice, URI, tuple(ops)))
        except ReproError:
            pass
        assert bob_texts() == before

    @given(st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_bob_with_no_write_grant_changes_nothing(self, seed):
        server = build_server(seed)
        bob = Requester("bob", "2.2.2.2", "b.x")
        before = served(server)
        for operation in (
            SetText("//text", "x"),
            DeleteNode("//card"),
            SetAttribute("//card", "prio", "9"),
            InsertChild("//board", "<card owner='bob'><text>n</text></card>"),
        ):
            try:
                server.update(UpdateRequest.of(bob, URI, operation))
                raise AssertionError("bob's update was not denied")
            except ReproError:
                pass
        assert served(server) == before


#: One read class per reader: everything, bob's cards, tags only.
READ_PATHS = {"ann": "", "ben": "://card[@owner='bob']", "tia": "://tag"}


def build_reading_server(text: str, view_cache=None) -> SecureXMLServer:
    server = SecureXMLServer(view_cache=view_cache)
    server.add_user("alice")
    server.publish_dtd(DTD_URI, BOARD_DTD)
    server.publish_document(URI, text, dtd_uri=DTD_URI)
    for reader, path in READ_PATHS.items():
        server.add_user(reader)
        server.grant(Authorization.build((reader, "*", "*"), URI + path, "+", "R"))
    server.grant(
        Authorization.build(
            ("alice", "*", "*"), f"{URI}://card[@owner='alice']", "+", "R",
            action="write",
        )
    )
    server.grant(
        Authorization.build(
            ("alice", "*", "*"), f"{URI}://board", "+", "L", action="write"
        )
    )
    return server


class TestCacheSoundness:
    @given(st.integers(0, 30), operations)
    @settings(max_examples=60, deadline=None)
    def test_cached_views_equal_uncached_views_after_update(self, seed, ops):
        server = build_reading_server(build_board(seed), ViewCache())
        readers = [Requester(name, "3.3.3.3", "r.x") for name in READ_PATHS]
        for reader in readers:
            server.serve(AccessRequest(reader, URI))
        # A live oracle for one class: it is proven with that oracle,
        # the others from the binding their cached views recorded.
        cards = QueryRequest(readers[1], URI, "//card")
        server.query(cards, virtual=True)
        alice = Requester("alice", "1.1.1.1", "a.x")
        try:
            outcome = server.update(UpdateRequest(alice, URI, tuple(ops)))
        except ReproError:
            outcome = None
        if outcome is not None:
            assert outcome.applied
            assert outcome.cache_kept + outcome.cache_dropped == len(readers)
        uncached = build_reading_server(
            serialize(server.repository.document(URI), doctype=False)
        )
        for reader in readers:
            request = AccessRequest(reader, URI)
            assert server.serve(request).xml_text == uncached.serve(request).xml_text
        assert (
            server.query(cards, virtual=True).matches
            == uncached.query(cards, virtual=True).matches
        )
