"""Engine-level tests for :mod:`repro.update`.

The facade-level behaviour (denials, atomicity, auditing) is pinned in
``tests/server/test_updates.py``; this suite exercises the pieces the
facade composes — ``clone_with_map``, ``ReplaceSubtree``, incremental
relabel bookkeeping on :class:`UpdateResult` and write provenance.
"""

import gc
import weakref

import pytest

from repro.authz.authorization import Authorization, Sign
from repro.core.explain import explain
from repro.errors import ValidationError
from repro.server.request import AccessRequest
from repro.server.service import SecureXMLServer
from repro.subjects.hierarchy import Requester, SubjectHierarchy
from repro.update import (
    ReplaceSubtree,
    SetAttribute,
    SetText,
    UpdateDenied,
    UpdateEngine,
    UpdateRequest,
    clone_with_map,
)
from repro.xml.nodes import Attribute, Element
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.traversal import preorder
from repro.xpath.evaluator import select

URI = "http://x/tasks.xml"
DTD_URI = "http://x/tasks.dtd"

TASKS_DTD = """\
<!ELEMENT tasks (task*)>
<!ELEMENT task (title, note?)>
<!ATTLIST task owner CDATA #REQUIRED state (open|done) "open">
<!ELEMENT title (#PCDATA)>
<!ELEMENT note (#PCDATA)>
"""

TASKS_XML = """\
<tasks>
  <task owner="alice" state="open"><title>write tests</title></task>
  <task owner="bob" state="open"><title>review design</title><note>p</note></task>
</tasks>
"""


@pytest.fixture
def server():
    s = SecureXMLServer()
    s.add_user("alice")
    s.publish_dtd(DTD_URI, TASKS_DTD)
    s.publish_document(URI, TASKS_XML, dtd_uri=DTD_URI, validate_on_add=True)
    s.grant(Authorization.build("Public", URI, "+", "R"))
    s.grant(
        Authorization.build(
            ("alice", "*", "*"),
            f"{URI}://task[@owner='alice']",
            "+",
            "R",
            action="write",
        )
    )
    return s


def alice():
    return Requester("alice", "10.0.0.1", "pc.x")


class TestCloneWithMap:
    def test_clone_is_byte_identical_and_disjoint(self):
        document = parse_document(
            "<a x='1'><b>t</b><!--c--><?pi d?></a>", uri="u"
        )
        clone, node_map = clone_with_map(document)
        assert serialize(clone) == serialize(document)
        assert clone.uri == "u"
        originals = set(map(id, preorder(document)))
        for node in preorder(clone):
            assert id(node) not in originals

    def test_map_covers_every_element_and_attribute(self):
        document = parse_document("<a x='1'><b y='2'/><b/></a>")
        _, node_map = clone_with_map(document)
        for node in preorder(document):
            if isinstance(node, (Element, Attribute)):
                assert node in node_map
                assert type(node_map[node]) is type(node)

    def test_dtd_and_prolog_carry_over(self):
        document = parse_document(
            "<?xml version='1.0' encoding='UTF-8'?>"
            "<!DOCTYPE a SYSTEM 'a.dtd'><a/>"
        )
        clone, _ = clone_with_map(document)
        assert clone.doctype_name == "a"
        assert clone.system_id == "a.dtd"
        assert clone.encoding == document.encoding


class TestReplaceSubtree:
    def test_replace_own_subtree(self, server):
        outcome = server.update(
            UpdateRequest.of(
                alice(),
                URI,
                ReplaceSubtree(
                    "//task[@owner='alice']",
                    '<task owner="alice" state="done"><title>new</title></task>',
                ),
            )
        )
        assert outcome.applied
        text = server.serve(AccessRequest(alice(), URI)).xml_text
        assert "<title>new</title>" in text
        assert "write tests" not in text

    def test_replace_keeps_document_order(self, server):
        server.update(
            UpdateRequest.of(
                alice(),
                URI,
                ReplaceSubtree(
                    "//task[@owner='alice']",
                    '<task owner="alice"><title>first</title></task>',
                ),
            )
        )
        text = server.serve(AccessRequest(alice(), URI)).xml_text
        assert text.index("first") < text.index("review design")

    def test_replace_requires_whole_old_subtree_writable(self, server):
        # alice may write bob's task element but not its children.
        server.grant(
            Authorization.build(
                ("alice", "*", "*"),
                f"{URI}://task[@owner='bob']",
                "+",
                "L",
                action="write",
            )
        )
        with pytest.raises(UpdateDenied):
            server.update(
                UpdateRequest.of(
                    alice(),
                    URI,
                    ReplaceSubtree(
                        "//task[@owner='bob']",
                        '<task owner="bob"><title>x</title></task>',
                    ),
                )
            )

    def test_root_cannot_be_replaced(self, server):
        server.grant(
            Authorization.build(("alice", "*", "*"), URI, "+", "R", action="write")
        )
        with pytest.raises(UpdateDenied, match="root element"):
            server.update(
                UpdateRequest.of(alice(), URI, ReplaceSubtree("//tasks", "<tasks/>"))
            )

    def test_invalid_replacement_rejected_atomically(self, server):
        before = server.serve(AccessRequest(alice(), URI)).xml_text
        with pytest.raises(ValidationError):
            server.update(
                UpdateRequest.of(
                    alice(),
                    URI,
                    ReplaceSubtree(
                        "//task[@owner='alice']", '<task owner="alice"/>'
                    ),
                )
            )
        assert server.serve(AccessRequest(alice(), URI)).xml_text == before


class TestIncrementalBookkeeping:
    def test_outcome_reports_incremental_relabel(self, server):
        outcome = server.update(
            UpdateRequest.of(
                alice(), URI, SetAttribute("//task[@owner='alice']", "state", "done")
            )
        )
        assert outcome.incremental
        # Only the edited task subtree relabels, never the whole tree.
        assert 0 < outcome.relabeled_nodes < 8

    def test_version_increments_monotonically(self, server):
        versions = [
            server.update(
                UpdateRequest.of(
                    alice(),
                    URI,
                    SetAttribute("//task[@owner='alice']", "state", state),
                )
            ).version
            for state in ("done", "open", "done")
        ]
        assert versions == sorted(versions)
        assert len(set(versions)) == 3


class TestWriteProvenance:
    def test_admitted_names_the_admitting_authorization(self, server):
        outcome = server.update(
            UpdateRequest.of(
                alice(), URI, SetAttribute("//task[@owner='alice']", "state", "done")
            )
        )
        assert outcome.admitted
        path, grants = outcome.admitted[0]
        assert path == "/tasks/task[1]"
        assert any("task[@owner='alice']" in grant for grant in grants)
        assert all("write" in grant for grant in grants)

    def test_engine_collects_admitted_only_on_request(self, server):
        document = server.repository.document(URI)
        auths = server.store.applicable(alice(), URI, "write")
        engine = UpdateEngine(SubjectHierarchy())
        request = UpdateRequest.of(
            alice(), URI, SetAttribute("//task[@owner='alice']", "state", "done")
        )
        plain = engine.apply_full(document, request, auths, [])
        assert plain.outcome.admitted == ()
        collected = engine.apply_full(
            document, request, auths, [], collect_admitted=True
        )
        assert collected.outcome.admitted

    @pytest.mark.parametrize(
        "operation, slot, kind",
        [
            # alice's own instance-level R grant on her task.
            (SetAttribute("//task[@owner='alice']", "state", "done"), "R", "direct"),
            # The title inherits the task's R grant.
            (SetText("//task[@owner='alice']/title", "renamed"), "R", "inherited"),
            # A schema-level grant decides bob's note.
            (SetText("//task[@owner='bob']/note", "q"), "LD", "direct"),
        ],
    )
    def test_admitted_is_the_write_explanations_winning_grants(
        self, server, operation, slot, kind
    ):
        server.grant(
            Authorization.build(
                ("alice", "*", "*"),
                f"{DTD_URI}://task[@owner='bob']/note",
                "+",
                "L",
                action="write",
            )
        )
        before = server.repository.document(URI)
        expected = []
        for node in select(operation.target, before):
            explained = explain(
                before, node, alice(), server.store, dtd_uri=DTD_URI, action="write"
            )
            deciding = next(o for o in explained.origins if o.slot == slot)
            assert (explained.deciding_slot, deciding.kind) == (slot, kind)
            expected.append(
                (
                    explained.path,
                    tuple(
                        grant.unparse()
                        for grant in explained.winning
                        if grant.sign is Sign.PLUS
                    ),
                )
            )
        outcome = server.update(UpdateRequest.of(alice(), URI, operation))
        assert outcome.applied
        assert expected and all(grants for _, grants in expected)
        assert list(outcome.admitted) == expected


class TestCommittedTreeIsNotPinned:
    def test_dropped_result_frees_its_document(self, server):
        document = server.repository.document(URI)
        auths = server.store.applicable(alice(), URI, "write")
        engine = UpdateEngine(SubjectHierarchy())
        # A target path no authorization shares: only the target
        # selection could hold the working clone.
        request = UpdateRequest.of(
            alice(), URI, SetAttribute("/tasks/task[1]", "state", "done")
        )
        result = engine.apply_full(document, request, auths, [])
        assert result.outcome.applied
        committed = weakref.ref(result.document)
        del result
        gc.collect()
        assert committed() is None
