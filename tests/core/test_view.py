"""Tests for compute_view orchestration (store selection, knobs, stats)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.authz.authorization import Authorization
from repro.authz.store import AuthorizationStore
from repro.core.view import compute_view, compute_view_from_auths
from repro.subjects.hierarchy import Requester
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.traversal import count_nodes
from tests.core import strategies

URI = "http://x/d.xml"
DTD_URI = "http://x/d.dtd"

DOC = "<a name='r'><pub>open</pub><sec>hidden</sec></a>"


@pytest.fixture
def store():
    s = AuthorizationStore()
    directory = s.hierarchy.directory
    directory.add_group("Staff")
    directory.add_user("alice", groups=["Staff"])
    directory.add_user("bob")
    s.add(Authorization.build("Public", f"{URI}://pub", "+", "R"))
    s.add(Authorization.build("Staff", f"{URI}://sec", "+", "R"))
    s.add(Authorization.build("Public", f"{DTD_URI}://a", "-", "L"))
    return s


def doc():
    document = parse_document(DOC, uri=URI)
    return document


class TestComputeView:
    def test_requester_selection(self, store):
        alice = Requester("alice", "1.1.1.1", "a.x.org")
        bob = Requester("bob", "1.1.1.2", "b.x.org")
        alice_view = compute_view(doc(), alice, store, dtd_uri=DTD_URI)
        bob_view = compute_view(doc(), bob, store, dtd_uri=DTD_URI)
        assert "<sec>" in serialize(alice_view.document)
        assert "<sec>" not in serialize(bob_view.document)
        assert "<pub>" in serialize(bob_view.document)

    def test_schema_auths_selected_by_dtd_uri(self, store):
        alice = Requester("alice", "1.1.1.1", "a.x.org")
        with_dtd = compute_view(doc(), alice, store, dtd_uri=DTD_URI)
        assert len(with_dtd.schema_auths) == 1
        without = compute_view(doc(), alice, store)
        assert without.schema_auths == []

    def test_dtd_uri_from_system_id(self, store):
        document = doc()
        document.system_id = DTD_URI
        alice = Requester("alice", "1.1.1.1", "a.x.org")
        result = compute_view(document, alice, store)
        assert len(result.schema_auths) == 1

    def test_dtd_uri_from_attached_dtd(self, store):
        from repro.dtd.parser import parse_dtd

        document = doc()
        document.dtd = parse_dtd("<!ELEMENT a ANY>", uri=DTD_URI)
        alice = Requester("alice", "1.1.1.1", "a.x.org")
        result = compute_view(document, alice, store)
        assert len(result.schema_auths) == 1

    def test_stats(self, store):
        alice = Requester("alice", "1.1.1.1", "a.x.org")
        result = compute_view(doc(), alice, store)
        assert result.total_nodes == 6  # a, @name, pub, text, sec, text
        assert result.visible_nodes < result.total_nodes
        assert result.hidden_nodes == result.total_nodes - result.visible_nodes
        assert "visible" in result.summary()

    def test_empty_flag(self, store):
        stranger = Requester("ghost", "1.1.1.1", "a.x.org")
        empty_store = AuthorizationStore()
        result = compute_view(doc(), stranger, empty_store)
        assert result.empty

    def test_action_filtering(self, store):
        store.add(
            Authorization.build("Public", f"{URI}://a", "+", "R", action="write")
        )
        anonymous = Requester()
        read_view = compute_view(doc(), anonymous, store)
        assert "<sec>" not in serialize(read_view.document)
        write_view = compute_view(doc(), anonymous, store, action="write")
        assert "<sec>" in serialize(write_view.document)


class TestComputeViewFromAuths:
    def test_without_hierarchy(self):
        result = compute_view_from_auths(
            doc(),
            [Authorization.build("Public", f"{URI}://pub", "+", "R")],
            [],
        )
        assert "<pub>" in serialize(result.document)

    def test_open_policy(self):
        result = compute_view_from_auths(
            doc(),
            [Authorization.build("Public", f"{URI}://sec", "-", "R")],
            [],
            open_policy=True,
        )
        text = serialize(result.document)
        assert "<pub>" in text
        assert "<sec>" not in text

    def test_closed_policy_default(self):
        result = compute_view_from_auths(
            doc(),
            [Authorization.build("Public", f"{URI}://sec", "-", "R")],
            [],
        )
        assert result.empty

    def test_relative_mode_passthrough(self):
        auths = [Authorization.build("Public", f"{URI}:pub", "+", "R")]
        anchored = compute_view_from_auths(doc(), auths, [])
        assert not anchored.empty
        # Fresh authorization: compiled paths are cached per relative mode.
        auths2 = [Authorization.build("Public", f"{URI}:pub", "+", "R")]
        strict = compute_view_from_auths(doc(), auths2, [], relative_mode="root")
        assert strict.empty


def assert_counts_match_trees(document, result):
    assert result.total_nodes == count_nodes(document.root)
    view_root = result.document.root
    assert result.visible_nodes == (
        count_nodes(view_root) if view_root is not None else 0
    )


class TestNodeCounts:
    """``total_nodes``/``visible_nodes`` come from the labeling and the
    pruner, and must equal ``count_nodes`` over both trees."""

    MIXED = (
        "<a name='r'><!--c--><?pi data?><pub k='v'>open<!--in--><?p?></pub>"
        "<sec>hidden<!--gone--><?gone?></sec></a>"
    )

    def test_empty_view(self):
        document = doc()
        result = compute_view_from_auths(
            document, [Authorization.build("Public", f"{URI}://a", "-", "R")], []
        )
        assert result.empty
        assert result.visible_nodes == 0
        assert_counts_match_trees(document, result)

    def test_comments_and_pis_are_counted(self):
        document = parse_document(self.MIXED, uri=URI)
        result = compute_view_from_auths(
            document, [Authorization.build("Public", f"{URI}://pub", "+", "R")], []
        )
        # a (bare), pub, @k, "open", <!--in-->, <?p?>
        assert result.visible_nodes == 6
        assert_counts_match_trees(document, result)

    @pytest.mark.parametrize("open_policy", [False, True], ids=["closed", "open"])
    @given(
        document=strategies.documents(),
        pairs=st.lists(strategies.authorizations(), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_equal_count_nodes(self, open_policy, document, pairs):
        instance, schema = strategies.split(pairs)
        result = compute_view_from_auths(
            document, instance, schema, strategies.hierarchy(),
            open_policy=open_policy,
        )
        assert_counts_match_trees(document, result)
