"""Stream path matchers against the reference XPath evaluator.

For every path shape the authorization generator produces (plus unions,
wildcards and the bare-URI root denotation), walking a document through
a one-pattern :class:`PatternDispatch` must select exactly the
elements/attributes the DOM evaluator selects. The streaming labeler
compiles in non-exact mode and relies on this agreement.
"""

import pytest

from repro.stream.paths import (
    PatternDispatch,
    StreamPathUnsupported,
    compile_stream_pattern,
)
from repro.workloads.generator import synthetic_document
from repro.xml.nodes import Attribute, Element
from repro.xml.traversal import node_path
from repro.xpath.evaluator import select

PATHS = [
    "//record",
    "//section",
    "//*",
    "/archive",
    "/archive/section",
    '//record[./@kind="private"]',
    '//record[@kind="private"]',
    '//item[./@kind != "public"]',
    "//entry[@id]",
    "//section[@*]",
    "//record/@kind",
    "//record/@*",
    "//archive//item",
    "//section//entry//title",
    "//record | //entry",
    ".//record",
    "//record/text()",
    "//node()",
]

UNSUPPORTED = [
    "//record/..",
    "//record/ancestor::archive",
    "//record[1]",
    "//record[title]",
    "count(//record)",
    "//record[@kind]/@id/..",
    '//record[text()="x"]',
]


def stream_select(pattern, document):
    """Walk the tree through a dispatch of *pattern* alone; collect the
    elements it accepts and the attributes its tails select."""
    dispatch = PatternDispatch([pattern])
    elements, attributes = [], []

    def visit(element: Element, parent_state) -> None:
        attrs = {name: a.value for name, a in element.attributes.items()}
        state = dispatch.advance(parent_state, element.name, attrs)
        if state.accepts:
            elements.append(element)
        for _, tails in state.attr_entries:
            for name, attr in element.attributes.items():
                if None in tails or name in tails:
                    attributes.append(attr)
        for child in element.children:
            if isinstance(child, Element):
                visit(child, state)

    visit(document.root, dispatch.initial)
    return elements, attributes


def paths(nodes):
    return sorted(node_path(node) for node in nodes)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matcher_agrees_with_evaluator(path, seed):
    document = synthetic_document(200, seed=seed)
    pattern = compile_stream_pattern(path)
    got_elements, got_attributes = stream_select(pattern, document)
    expected = select(path, document)
    assert paths(got_elements) == paths(
        [n for n in expected if isinstance(n, Element)]
    )
    assert paths(got_attributes) == paths(
        [n for n in expected if isinstance(n, Attribute)]
    )


def test_bare_uri_selects_the_root_element():
    document = synthetic_document(60)
    pattern = compile_stream_pattern(None)
    elements, attributes = stream_select(pattern, document)
    assert elements == [document.root]
    assert attributes == []


@pytest.mark.parametrize("path", UNSUPPORTED)
def test_unstreamable_paths_raise(path):
    with pytest.raises(StreamPathUnsupported):
        compile_stream_pattern(path)


def test_compilation_is_cached():
    first = compile_stream_pattern("//record")
    second = compile_stream_pattern("//record")
    assert first is second
