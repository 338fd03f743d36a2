"""Unit tests for the write/read policy-consistency checker.

The facade endpoint (auditing, metrics) is pinned in
``tests/server/test_update_api.py``; here the checker itself: which
nodes get flagged, how the open/closed read policy changes the
answer, and that a suggested repair actually repairs.
"""

from repro.authz.authorization import Authorization
from repro.update.consistency import check_write_consistency
from repro.subjects.hierarchy import SubjectHierarchy
from repro.xml.parser import parse_document

URI = "http://x/d.xml"
DOC = (
    "<d>"
    "<visible secret='s'>shown</visible>"
    "<hidden>not shown</hidden>"
    "</d>"
)


def check(read, write, **kwargs):
    document = parse_document(DOC, uri=URI)
    return check_write_consistency(
        document,
        uri=URI,
        read_instance=read,
        read_schema=[],
        write_instance=write,
        write_schema=[],
        hierarchy=SubjectHierarchy(),
        **kwargs,
    )


def read_grant(path, sign="+", type_="R"):
    return Authorization.build("Public", f"{URI}:{path}", sign, type_)


def write_grant(path, sign="+", type_="R"):
    return Authorization.build(
        "Public", f"{URI}:{path}", sign, type_, action="write"
    )


class TestFlagging:
    def test_consistent_policy_yields_no_findings(self):
        findings = check(
            [read_grant("//visible")], [write_grant("//visible")]
        )
        assert findings == []

    def test_write_on_hidden_node_is_flagged_in_document_order(self):
        findings = check([read_grant("//visible")], [write_grant("/d")])
        paths = [finding.node_path for finding in findings]
        # /d and /d/hidden (and its text parent chain) are writable but
        # unreadable; /d/visible and its attribute are fine.
        assert "/d/hidden" in paths
        assert "/d/visible" not in paths
        assert paths == sorted(paths, key=paths.index)  # document order

    def test_attributes_are_checked_too(self):
        findings = check(
            # The element is readable but its attribute is explicitly
            # denied: a write grant covering both flags the attribute.
            [read_grant("//visible"), read_grant("//visible/@secret", "-")],
            [write_grant("//visible")],
        )
        paths = [finding.node_path for finding in findings]
        assert any(path.endswith("@secret") for path in paths)
        assert "/d/visible" not in paths

    def test_negative_write_labels_never_flag(self):
        findings = check([], [write_grant("//hidden", sign="-")])
        assert findings == []

    def test_open_read_policy_exposes_unlabeled_nodes(self):
        # Closed: an unlabeled node is hidden -> a write grant on it is
        # inconsistent. Open: the same node is visible -> consistent.
        closed = check([], [write_grant("//hidden")], open_policy=False)
        assert any(f.node_path == "/d/hidden" for f in closed)
        opened = check([], [write_grant("//hidden")], open_policy=True)
        assert not any(f.node_path == "/d/hidden" for f in opened)


class TestRepairs:
    def test_repairs_only_when_requested(self):
        findings = check([], [write_grant("//hidden")])
        assert all(finding.repair is None for finding in findings)

    def test_repair_is_attributed_and_actually_repairs(self):
        findings = check(
            [],
            [write_grant("//hidden")],
            suggest_repairs=True,
            repair_subject=("carol", "10.0.0.3", "pc3.x"),
        )
        assert findings
        for finding in findings:
            assert finding.repair is not None
            assert "carol" in finding.repair.unparse()
        # Granting every suggested repair makes the findings vanish.
        repaired = check(
            [finding.repair for finding in findings],
            [write_grant("//hidden")],
        )
        assert repaired == []
