"""Differential proof: incremental relabeling ≡ full relabeling.

The tentpole claim of the update subsystem is that after an edit only
the affected subtree needs re-running — the labels (and therefore the
views) come out *identical* to labeling the post-edit document from
scratch. This suite generates random documents, random write-grant
sets and random edit batches, applies them through the engine's
incremental path, and compares every node's label against a fresh
full :class:`~repro.update.LabelState` on the result — under all four
conflict policies. The path pool includes write paths outside the exact
subset (a final ``text()`` step, a positional predicate): those batches
must report ``incremental`` false and still come out label-identical.
A facade-level test additionally holds the *served view bytes*
identical to a from-scratch server, open and closed.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.authz.authorization import Authorization
from repro.authz.conflict import _POLICIES, policy_by_name
from repro.errors import ReproError
from repro.server.request import AccessRequest
from repro.server.service import PolicyConfig, SecureXMLServer
from repro.subjects.hierarchy import Requester, SubjectHierarchy
from repro.update import (
    DeleteNode,
    InsertChild,
    LabelState,
    ReplaceSubtree,
    SetAttribute,
    SetText,
    UpdateEngine,
    UpdateRequest,
)
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.traversal import preorder

URI = "u://board.xml"
POLICY_NAMES = sorted(_POLICIES)


def build_document(seed: int) -> str:
    rng = random.Random(seed)
    cards = []
    for index in range(rng.randint(2, 5)):
        owner = rng.choice(["alice", "bob"])
        tags = "".join(f"<tag>t{index}{t}</tag>" for t in range(rng.randint(0, 2)))
        cards.append(
            f'<card owner="{owner}" prio="{rng.randint(0, 5)}">'
            f"<text>body {index}</text>{tags}</card>"
        )
    return "<board>" + "".join(cards) + "</board>"


def build_auths(seed: int) -> list[Authorization]:
    """Random write-authorization sets, biased towards applicable ones."""
    rng = random.Random(seed)
    paths = [
        f"{URI}://card",
        f"{URI}://card[@owner='alice']",
        f"{URI}://card[@owner='bob']",
        f"{URI}://text",
        f"{URI}://tag",
        f"{URI}:/board",
        # Outside the exact subset: the engine must take a full rebind.
        f"{URI}://text/text()",
        f"{URI}://card[1]",
    ]
    auths = [
        # A broad grant keeps the application rate high enough that the
        # differential actually runs (denied batches only test atomicity).
        Authorization.build(
            ("alice", "*", "*"), f"{URI}://card", "+", "R", action="write"
        )
    ]
    for _ in range(rng.randint(1, 4)):
        auths.append(
            Authorization.build(
                (rng.choice(["alice", "Public"]), "*", "*"),
                rng.choice(paths),
                rng.choice(["+", "-"]),
                rng.choice(["L", "R", "LW", "RW"]),
                action="write",
            )
        )
    return auths


def build_operations(seed: int) -> list:
    rng = random.Random(seed)
    operations = []
    for step in range(rng.randint(1, 4)):
        position = rng.randint(1, 3)
        operations.append(
            rng.choice(
                [
                    SetAttribute(f"//card[{position}]", "prio", str(step)),
                    SetText(f"//card[{position}]/text", f"edited {step}"),
                    InsertChild(f"//card[{position}]", f"<tag>new{step}</tag>"),
                    InsertChild(
                        "/board",
                        f'<card owner="alice"><text>ins {step}</text></card>',
                    ),
                    DeleteNode(f"//card[{position}]/tag[1]"),
                    ReplaceSubtree(
                        f"//card[{position}]",
                        f'<card owner="alice"><text>rep {step}</text></card>',
                    ),
                ]
            )
        )
    return operations


@settings(max_examples=40, deadline=None)
@given(
    doc_seed=st.integers(0, 10_000),
    auth_seed=st.integers(0, 10_000),
    op_seed=st.integers(0, 10_000),
    policy_name=st.sampled_from(POLICY_NAMES),
)
def test_incremental_labels_equal_full_relabel(
    doc_seed, auth_seed, op_seed, policy_name
):
    document = parse_document(build_document(doc_seed), uri=URI)
    auths = build_auths(auth_seed)
    before = serialize(document)
    hierarchy = SubjectHierarchy()
    policy = policy_by_name(policy_name)
    engine = UpdateEngine(hierarchy, policy=policy, validate_result=False)
    request = UpdateRequest.of(
        Requester("alice", "1.2.3.4", "pc.x"), URI, *build_operations(op_seed)
    )
    try:
        result = engine.apply_full(document, request, auths, [])
    except ReproError:
        # Denied (or op-shape) failures must leave the input untouched.
        assert serialize(document) == before
        return
    assert serialize(document) == before  # the engine edits a clone
    fresh = LabelState.build(result.document, auths, [], hierarchy, policy=policy)
    assert result.outcome.incremental == fresh.stream_safe
    for node in preorder(result.document.root):
        assert result.state.label(node) == fresh.label(node), (
            f"label diverged at {node!r} under {policy_name}"
        )


def test_lossy_write_path_relabels_like_a_fresh_build():
    """A final ``text()`` step bins on text nodes, which the dispatch
    automaton cannot represent: the batch takes the full rebind, and
    every label — the text nodes' included — equals a fresh build."""
    document = parse_document(build_document(0), uri=URI)
    auths = [
        Authorization.build(
            ("alice", "*", "*"), f"{URI}://card", "+", "R", action="write"
        ),
        Authorization.build(
            ("alice", "*", "*"), f"{URI}://text/text()", "-", "L", action="write"
        ),
    ]
    hierarchy = SubjectHierarchy()
    engine = UpdateEngine(hierarchy, validate_result=False)
    request = UpdateRequest.of(
        Requester("alice", "1.2.3.4", "pc.x"),
        URI,
        SetText("//card/text", "edited"),
        InsertChild("//card", "<text>new</text>"),
    )
    result = engine.apply_full(document, request, auths, [])
    assert result.outcome.applied
    assert not result.outcome.incremental
    fresh = LabelState.build(result.document, auths, [], hierarchy)
    for node in preorder(result.document.root):
        assert result.state.label(node) == fresh.label(node), node


@settings(max_examples=15, deadline=None)
@given(
    doc_seed=st.integers(0, 10_000),
    op_seed=st.integers(0, 10_000),
    policy_name=st.sampled_from(POLICY_NAMES),
    open_policy=st.booleans(),
)
def test_served_views_match_fresh_server(
    doc_seed, op_seed, policy_name, open_policy
):
    """After a facade update, every requester's served view is
    byte-identical to a from-scratch server over the post-edit bytes."""
    config = PolicyConfig(conflict_policy=policy_name, open_policy=open_policy)
    grants = [
        Authorization.build("Public", f"{URI}://card", "+", "R"),
        Authorization.build(("bob", "*", "*"), f"{URI}://text", "-", "R"),
        Authorization.build(
            ("alice", "*", "*"), f"{URI}://card", "+", "R", action="write"
        ),
        Authorization.build(
            ("alice", "*", "*"), f"{URI}:/board", "+", "L", action="write"
        ),
    ]

    def build_server(xml: str) -> SecureXMLServer:
        server = SecureXMLServer(default_policy=config)
        server.add_user("alice")
        server.add_user("bob")
        server.publish_document(URI, xml)
        for grant in grants:
            server.grant(grant)
        return server

    server = build_server(build_document(doc_seed))
    requesters = [
        Requester("alice", "10.0.0.1", "pc.x"),
        Requester("bob", "10.0.0.2", "pc2.x"),
    ]
    request = UpdateRequest.of(
        requesters[0], URI, *build_operations(op_seed)
    )
    try:
        outcome = server.update(request)
    except ReproError:
        return
    assert outcome.applied
    replay = build_server(serialize(server.repository.document(URI)))
    for requester in requesters:
        incremental = server.serve(AccessRequest(requester, URI))
        scratch = replay.serve(AccessRequest(requester, URI))
        assert incremental.xml_text == scratch.xml_text, (
            f"view diverged for {requester.user} under "
            f"{policy_name}/open={open_policy}"
        )
