"""Byte-for-byte pin of ``Explanation.to_json()``.

``explain_pin.json`` maps every case of a fixed, seeded corpus — under
each of the four conflict policies, open and closed — to the sha256 of
its ``to_json()``. The digests were generated once and are never
regenerated: a changed digest is a changed explanation, whatever code
produced it.

The corpus:

- the paper's running example (``lab_scenario``) for each of its three
  requesters;
- ``build_workload`` documents and policies for fixed seeds;
- documents over ``tests/core/strategies.py``'s vocabulary, built by a
  seeded :class:`random.Random` (not by hypothesis, whose draws change
  between releases). Even cases use only paths that compile exactly to
  the dispatch automaton; odd cases add at least one path outside that
  subset (positional predicates, ``text()`` steps), so both labeling
  walks are pinned.
"""

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from repro.authz.authorization import AuthObject, AuthType, Authorization, Sign
from repro.authz.conflict import policy_by_name
from repro.core.explain import explain_from_auths
from repro.core.labeling import TreeLabeler
from repro.subjects.hierarchy import SubjectSpec
from repro.workloads.generator import build_workload
from repro.workloads.scenarios import lab_scenario
from repro.xml.nodes import Comment, Document, Element, ProcessingInstruction, Text
from tests.core import strategies

PIN = Path(__file__).with_name("explain_pin.json")

WORKLOAD_SEEDS = range(1, 13)
RANDOM_CASES = 140

#: Mirrors ``strategies.exact_paths``.
EXACT_PATHS = (
    None,
    "//{name}",
    "/{name}/{other}",
    "/{name}//{other}",
    "//{name}//{other}",
    "//{name}[./@kind='{kind}']",
    "//{name}[@id]",
    "//{name}/@kind",
    "//{name}/@*",
    "//{name}[./@kind='{kind}']/@id",
    "//*",
    "//{name} | //{other}/@kind",
)

#: Paths the automaton does not compile exactly.
OTHER_PATHS = (
    "//{name}[1]",
    "/{name}/{other}[2]",
    "//{name}/text()",
    "//{name}[last()]/@kind",
    "//{other}/{name}[position()=1]",
)


def random_element(rng: random.Random, depth: int = 0) -> Element:
    element = Element(rng.choice(strategies.NAMES))
    if rng.random() < 0.5:
        element.set_attribute("kind", rng.choice(strategies.KINDS))
    if rng.random() < 0.5:
        element.set_attribute("id", f"n{rng.randint(0, 3)}")
    kinds = ["text", "comment", "pi", "empty"]
    if depth < 4:
        kinds += ["element"] * 3
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(kinds)
        if kind == "element":
            element.append(random_element(rng, depth + 1))
        elif kind == "text":
            element.append(Text(rng.choice(("t", "a&b", "<x>"))))
        elif kind == "empty":
            element.append(Text(""))
        elif kind == "comment":
            element.append(Comment("note"))
        else:
            element.append(ProcessingInstruction("pi", rng.choice(("", "d"))))
    return element


def random_document(rng: random.Random) -> Document:
    document = Document()
    document.uri = strategies.URI
    document.append(random_element(rng))
    return document


def random_path(rng: random.Random, templates) -> str | None:
    template = rng.choice(templates)
    if template is None:
        return None
    return template.format(
        name=rng.choice(strategies.NAMES),
        other=rng.choice(strategies.NAMES),
        kind=rng.choice(strategies.KINDS),
    )


def random_policy(rng: random.Random, exact: bool):
    """``(instance, schema)`` authorization lists; with *exact* false at
    least one path is outside the exact subset."""
    count = rng.randint(1, 8)
    inexact_at = -1 if exact else rng.randrange(count)
    instance: list[Authorization] = []
    schema: list[Authorization] = []
    for index in range(count):
        is_schema = rng.random() < 0.5
        templates = OTHER_PATHS if index == inexact_at else EXACT_PATHS
        authorization = Authorization(
            SubjectSpec.parse(rng.choice(strategies.SUBJECTS)),
            AuthObject(
                strategies.DTD_URI if is_schema else strategies.URI,
                random_path(rng, templates),
            ),
            "read",
            Sign(rng.choice(("+", "-"))),
            rng.choice(list(AuthType)),
        )
        (schema if is_schema else instance).append(authorization)
    return instance, schema


@lru_cache(maxsize=None)
def corpus() -> dict:
    """case id → ``(document, instance, schema, hierarchy)``."""
    cases = {}
    lab = lab_scenario()
    uri = lab.document.uri
    dtd_uri = lab.document.dtd.uri
    for name in ("tom", "alice", "sam"):
        requester = getattr(lab, name)
        cases[f"lab/{name}"] = (
            lab.document,
            lab.store.applicable(requester, uri, "read"),
            lab.store.applicable(requester, dtd_uri, "read"),
            lab.hierarchy,
        )
    for seed in WORKLOAD_SEEDS:
        workload = build_workload(nodes=200, auth_count=18, seed=seed)
        cases[f"workload/{seed}"] = (
            workload.document,
            workload.instance_auths,
            workload.schema_auths,
            workload.store.hierarchy,
        )
    for index in range(RANDOM_CASES):
        rng = random.Random(index)
        document = random_document(rng)
        instance, schema = random_policy(rng, exact=index % 2 == 0)
        cases[f"random/{index}"] = (
            document,
            instance,
            schema,
            strategies.hierarchy(),
        )
    return cases


def digest(case: str, policy: str, open_policy: bool) -> str:
    document, instance, schema, hierarchy = corpus()[case]
    explanation = explain_from_auths(
        document,
        instance,
        schema,
        hierarchy,
        policy=policy_by_name(policy),
        open_policy=open_policy,
    )
    return hashlib.sha256(explanation.to_json().encode("utf-8")).hexdigest()


def key(case: str, policy: str, open_policy: bool) -> str:
    return f"{case}|{policy}|{'open' if open_policy else 'closed'}"


def current_digests() -> dict[str, str]:
    return {
        key(case, policy, open_policy): digest(case, policy, open_policy)
        for case in corpus()
        for policy in strategies.CONFLICT_POLICIES
        for open_policy in (False, True)
    }


@lru_cache(maxsize=None)
def pinned() -> dict[str, str]:
    return json.loads(PIN.read_text(encoding="utf-8"))


def test_pin_covers_the_whole_corpus():
    expected = {
        key(case, policy, open_policy)
        for case in corpus()
        for policy in strategies.CONFLICT_POLICIES
        for open_policy in (False, True)
    }
    assert set(pinned()) == expected


def test_corpus_pins_both_labeling_walks():
    exact = 0
    for document, instance, schema, hierarchy in corpus().values():
        labeler = TreeLabeler(document, instance, schema, hierarchy)
        exact += labeler.compile_dispatch() is not None
    assert RANDOM_CASES // 2 <= exact < len(corpus())


@pytest.mark.parametrize("case", list(corpus()))
def test_explanation_json_is_pinned(case):
    for policy in strategies.CONFLICT_POLICIES:
        for open_policy in (False, True):
            name = key(case, policy, open_policy)
            assert digest(case, policy, open_policy) == pinned()[name], name
