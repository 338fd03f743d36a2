"""Tests for write/update enforcement (the paper's future-work item)."""

import pytest

from repro.authz.authorization import Authorization
from repro.errors import ValidationError
from repro.server.request import AccessRequest
from repro.server.service import SecureXMLServer
from repro.subjects.hierarchy import Requester
from repro.update import (
    DeleteNode,
    InsertChild,
    RemoveAttribute,
    SetAttribute,
    SetText,
    UpdateDenied,
    UpdateRequest,
)

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
  <task owner="bob" state="open"><title>review design</title><note>private</note></task>
</tasks>
"""


@pytest.fixture
def server():
    s = SecureXMLServer()
    s.add_user("alice")
    s.add_user("bob")
    s.publish_dtd(DTD_URI, TASKS_DTD)
    s.publish_document(URI, TASKS_XML, dtd_uri=DTD_URI, validate_on_add=True)
    # Everyone can read everything; each user can WRITE their own tasks.
    s.grant(Authorization.build("Public", URI, "+", "R"))
    for user in ("alice", "bob"):
        s.grant(
            Authorization.build(
                (user, "*", "*"),
                f"{URI}://task[@owner='{user}']",
                "+",
                "R",
                action="write",
            )
        )
    return s


def alice():
    return Requester("alice", "10.0.0.1", "pc.x")


def bob():
    return Requester("bob", "10.0.0.2", "pc2.x")


def served_text(server):
    return server.serve(AccessRequest(alice(), URI)).xml_text


class TestAllowedUpdates:
    def test_set_attribute(self, server):
        outcome = server.update(
            UpdateRequest.of(
                alice(), URI, SetAttribute("//task[@owner='alice']", "state", "done")
            )
        )
        assert outcome.applied
        assert 'owner="alice" state="done"' in served_text(server)

    def test_set_text(self, server):
        server.update(
            UpdateRequest.of(
                alice(), URI, SetText("//task[@owner='alice']/title", "renamed")
            )
        )
        assert "<title>renamed</title>" in served_text(server)

    def test_insert_child(self, server):
        server.update(
            UpdateRequest.of(
                alice(),
                URI,
                InsertChild("//task[@owner='alice']", "<note>added</note>"),
            )
        )
        assert "<note>added</note>" in served_text(server)

    def test_insert_at_position(self, server):
        # The DTD requires (title, note?): inserting the note at 0 would
        # be invalid, at the end it validates.
        server.update(
            UpdateRequest.of(
                alice(),
                URI,
                InsertChild("//task[@owner='alice']", "<note>n</note>", position=1),
            )
        )
        assert "<note>n</note>" in served_text(server)

    def test_delete_own_subtree(self, server):
        server.grant(
            Authorization.build(
                ("alice", "*", "*"), f"{URI}://tasks", "+", "L", action="write"
            )
        )
        server.update(
            UpdateRequest.of(alice(), URI, DeleteNode("//task[@owner='alice']"))
        )
        assert "write tests" not in served_text(server)

    def test_remove_attribute(self, server):
        server.update(
            UpdateRequest.of(
                alice(), URI, RemoveAttribute("//task[@owner='alice']", "state")
            )
        )
        # 'state' has a default, so the doc is still valid; attribute gone.
        assert 'owner="alice" state=' not in served_text(server)

    def test_batch_is_applied_in_order(self, server):
        server.update(
            UpdateRequest.of(
                alice(),
                URI,
                SetText("//task[@owner='alice']/title", "step1"),
                SetAttribute("//task[@owner='alice']", "state", "done"),
            )
        )
        text = served_text(server)
        assert "step1" in text and 'state="done"' in text

    def test_first_update_of_deferred_document_binds_doctype_dtd(self):
        # The DTD is named only by the DOCTYPE of a deferred document,
        # so the update learns it from its own parse.
        s = SecureXMLServer()
        s.add_user("alice")
        s.publish_dtd(DTD_URI, TASKS_DTD)
        s.publish_document(
            URI, f'<!DOCTYPE tasks SYSTEM "{DTD_URI}">{TASKS_XML}', defer_parse=True
        )
        s.grant(
            Authorization.build(
                ("alice", "*", "*"),
                f"{DTD_URI}://task[@owner='alice']",
                "+",
                "R",
                action="write",
            )
        )
        outcome = s.update(
            UpdateRequest.of(
                alice(), URI, SetText("//task[@owner='alice']/title", "done")
            )
        )
        assert outcome.applied

    def test_outcome_counts(self, server):
        outcome = server.update(
            UpdateRequest.of(
                alice(), URI, SetAttribute("//task[@owner='alice']", "state", "done")
            )
        )
        assert outcome.operations == 1
        assert outcome.touched_nodes == 1

    def test_update_audited(self, server):
        server.update(
            UpdateRequest.of(
                alice(), URI, SetAttribute("//task[@owner='alice']", "state", "done")
            )
        )
        record = server.audit.tail(1)[0]
        assert record.action == "write"
        assert record.outcome == "released"


class TestDeniedUpdates:
    def test_cannot_touch_others_tasks(self, server):
        with pytest.raises(UpdateDenied, match="no write authorization"):
            server.update(
                UpdateRequest.of(
                    alice(), URI, SetAttribute("//task[@owner='bob']", "state", "done")
                )
            )

    def test_read_grant_does_not_imply_write(self, server):
        with pytest.raises(UpdateDenied):
            server.update(
                UpdateRequest.of(alice(), URI, SetText("//tasks", "overwritten"))
            )

    def test_denied_batch_changes_nothing(self, server):
        before = served_text(server)
        with pytest.raises(UpdateDenied):
            server.update(
                UpdateRequest.of(
                    alice(),
                    URI,
                    SetText("//task[@owner='alice']/title", "mine"),       # allowed
                    SetText("//task[@owner='bob']/title", "not mine"),     # denied
                )
            )
        assert served_text(server) == before  # atomicity

    def test_delete_requires_whole_subtree_writable(self, server):
        # Give alice write on bob's task element but NOT its note child.
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
                UpdateRequest.of(alice(), URI, DeleteNode("//task[@owner='bob']"))
            )

    def test_root_cannot_be_deleted(self, server):
        server.grant(
            Authorization.build(
                ("alice", "*", "*"), URI, "+", "R", action="write"
            )
        )
        with pytest.raises(UpdateDenied, match="root element"):
            server.update(UpdateRequest.of(alice(), URI, DeleteNode("//tasks")))

    def test_invalid_result_rejected(self, server):
        # Deleting the required <title> (via SetText on a bogus child
        # insert) — easiest invalidity: insert a second title.
        with pytest.raises(ValidationError):
            server.update(
                UpdateRequest.of(
                    alice(),
                    URI,
                    InsertChild("//task[@owner='alice']", "<title>dup</title>"),
                )
            )
        assert "dup" not in served_text(server)

    def test_attribute_target_rejected(self, server):
        with pytest.raises(UpdateDenied, match="non-element"):
            server.update(
                UpdateRequest.of(
                    alice(), URI, DeleteNode("//task[@owner='alice']/@state")
                )
            )

    def test_denial_audited(self, server):
        with pytest.raises(UpdateDenied):
            server.update(
                UpdateRequest.of(
                    alice(), URI, SetText("//task[@owner='bob']/title", "x")
                )
            )
        record = server.audit.tail(1)[0]
        assert record.outcome == "denied"

    def test_explicit_write_denial_overrides_grant(self, server):
        server.grant(
            Authorization.build(
                ("alice", "*", "*"),
                f"{URI}://task[@owner='alice']/title",
                "-",
                "R",
                action="write",
            )
        )
        with pytest.raises(UpdateDenied):
            server.update(
                UpdateRequest.of(
                    alice(), URI, SetText("//task[@owner='alice']/title", "x")
                )
            )

    def test_schema_level_write_denial(self, server):
        server.grant(
            Authorization.build(
                ("alice", "*", "*"), URI, "+", "RW", action="write"
            )
        )
        server.grant(
            Authorization.build(
                ("Public", "*", "*"), f"{DTD_URI}://note", "-", "R", action="write"
            )
        )
        # The weak document-wide write grant lets alice edit titles...
        server.update(
            UpdateRequest.of(alice(), URI, SetText("//task[1]/title", "ok"))
        )
        # ...but the schema-level write denial protects notes.
        with pytest.raises(UpdateDenied):
            server.update(UpdateRequest.of(alice(), URI, SetText("//note", "x")))
