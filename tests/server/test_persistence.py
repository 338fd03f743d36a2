"""Tests for server save/load round-trips."""

import os

import pytest

from repro.authz.authorization import Authorization
from repro.authz.restrictions import HistoryLimit
from repro.errors import RepositoryError
from repro.server.persistence import load_server, save_server
from repro.server.request import AccessRequest
from repro.server.service import PolicyConfig, SecureXMLServer
from repro.subjects.hierarchy import Requester
from repro.workloads.scenarios import (
    LAB_DOCUMENT_URI,
    LAB_DTD_TEXT,
    LAB_DTD_URI,
    lab_authorizations,
    lab_document,
)


@pytest.fixture
def server():
    s = SecureXMLServer()
    s.add_group("Foreign")
    s.add_group("Admin")
    s.add_user("Tom", groups=["Foreign"])
    s.add_user("Alice", groups=["Admin"])
    s.publish_dtd(LAB_DTD_URI, LAB_DTD_TEXT)
    s.publish_document(LAB_DOCUMENT_URI, lab_document(), dtd_uri=LAB_DTD_URI)
    for authorization in lab_authorizations():
        s.grant(authorization)
    s.set_policy(
        LAB_DOCUMENT_URI,
        PolicyConfig(
            conflict_policy="permissions-take-precedence",
            open_policy=False,
            history_limit=HistoryLimit(100, 3600.0),
        ),
    )
    return s


def tom():
    return Requester("Tom", "130.100.50.8", "infosys.bld1.it")


class TestRoundTrip:
    def test_views_identical_after_reload(self, server, tmp_path):
        state = str(tmp_path / "state")
        before = server.serve(AccessRequest(tom(), LAB_DOCUMENT_URI)).xml_text
        save_server(server, state)
        reloaded = load_server(state)
        after = reloaded.serve(AccessRequest(tom(), LAB_DOCUMENT_URI)).xml_text
        assert before == after

    def test_directory_survives(self, server, tmp_path):
        state = str(tmp_path / "state")
        save_server(server, state)
        reloaded = load_server(state)
        assert reloaded.directory.is_member("Tom", "Foreign")
        assert reloaded.directory.is_member("Alice", "Admin")

    def test_authorizations_survive(self, server, tmp_path):
        state = str(tmp_path / "state")
        save_server(server, state)
        reloaded = load_server(state)
        assert len(reloaded.store) == len(server.store)
        originals = sorted(a.unparse() for a in server.store)
        restored = sorted(a.unparse() for a in reloaded.store)
        assert originals == restored

    def test_policies_survive(self, server, tmp_path):
        state = str(tmp_path / "state")
        save_server(server, state)
        reloaded = load_server(state)
        config = reloaded.policy_for(LAB_DOCUMENT_URI)
        assert config.conflict_policy == "permissions-take-precedence"
        assert config.history_limit == HistoryLimit(100, 3600.0)

    def test_dtd_link_survives(self, server, tmp_path):
        state = str(tmp_path / "state")
        save_server(server, state)
        reloaded = load_server(state)
        assert reloaded.repository.dtd_uri_of(LAB_DOCUMENT_URI) == LAB_DTD_URI
        # Schema-level denial still effective after reload.
        response = reloaded.serve(AccessRequest(tom(), LAB_DOCUMENT_URI))
        assert "Security Internals" not in response.xml_text

    def test_restrictions_survive(self, tmp_path):
        from repro.authz.restrictions import CredentialClause, ValidityWindow

        s = SecureXMLServer()
        uri = "http://x/d.xml"
        s.publish_document(uri, "<d><x>v</x></d>")
        s.grant(
            Authorization.build(
                "Public", uri, "+", "R",
                validity=ValidityWindow(not_before=1.0, not_after=2.0),
                credentials=(CredentialClause("badge", "present"),),
            )
        )
        state = str(tmp_path / "state")
        save_server(s, state)
        reloaded = load_server(state)
        restored = list(reloaded.store)[0]
        assert restored.validity == ValidityWindow(1.0, 2.0)
        assert restored.credentials == (CredentialClause("badge", "present"),)

    def test_double_round_trip_stable(self, server, tmp_path):
        first = str(tmp_path / "one")
        second = str(tmp_path / "two")
        save_server(server, first)
        save_server(load_server(first), second)
        for name in ("directory.xml", "policy.xacl", "policies.xml"):
            with open(os.path.join(first, name)) as f1, open(
                os.path.join(second, name)
            ) as f2:
                assert f1.read() == f2.read()


class TestErrors:
    def test_missing_state_directory(self, tmp_path):
        with pytest.raises(RepositoryError, match="repository.xml"):
            load_server(str(tmp_path / "nope"))

    def test_save_creates_directories(self, server, tmp_path):
        deep = str(tmp_path / "a" / "b" / "state")
        save_server(server, deep)
        assert os.path.exists(os.path.join(deep, "repository.xml"))

    def test_updates_after_reload_persistable(self, server, tmp_path):
        from repro.update import SetText, UpdateRequest

        state = str(tmp_path / "state")
        for action in ("write", "read"):
            server.grant(
                Authorization.build(
                    ("Tom", "*", "*"),
                    f"{LAB_DOCUMENT_URI}://fund",
                    "+", "R", action=action,
                )
            )
        save_server(server, state)
        reloaded = load_server(state)
        reloaded.update(
            UpdateRequest.of(tom(), LAB_DOCUMENT_URI, SetText("//fund", "edited"))
        )
        second_state = str(tmp_path / "state2")
        save_server(reloaded, second_state)
        final = load_server(second_state)
        from repro.server.request import QueryRequest

        response = final.query(QueryRequest(tom(), LAB_DOCUMENT_URI, "//fund"))
        assert any("edited" in match for match in response.matches)
