"""``parse_document`` against the recursive-descent reference parser.

``parse_document`` and ``parse_document_chunks`` run on the bulk-scan
stream reader. ``tests/xml/_reference_parser.py`` is an independent
implementation of the same language. For random documents, whole,
damaged, or with CRLF line ends, both entry points must build the
reference's tree or raise its error type. Under one tight resource
limit at a time, the whole-text parse must trip the same limit with the
same value and maximum, whether the document is whole or damaged.
Limits go one at a time because a document that breaks two rules may
report either first.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.errors import XMLLimitExceeded, XMLSyntaxError
from repro.limits import ResourceLimits
from repro.xml.parser import parse_document, parse_document_chunks
from tests.stream.test_oracle_differential import (
    documents_with_cuts,
    mutated_with_cuts,
)
from tests.stream.test_reader import assert_same_tree
from tests.xml._reference_parser import reference_parse

GUARDED_LIMITS = (
    "max_node_count",
    "max_tree_depth",
    "max_input_bytes",
    "max_entity_expansion_chars",
)


def outcome(parse, source, **options):
    """("ok", document), ("limit", name, value, maximum) or ("error", type)."""
    try:
        return ("ok", parse(source, **options))
    except XMLLimitExceeded as exc:
        return ("limit", exc.limit, exc.value, exc.maximum)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("error", type(exc))


def assert_same_outcome(expected, actual):
    if expected[0] == "ok" and actual[0] == "ok":
        assert_same_tree(expected[1], actual[1])
    else:
        assert actual == expected


@st.composite
def texts_with_cuts(draw):
    """Well-formed or damaged documents, optionally with CRLF line ends."""
    text, cuts = draw(st.one_of(documents_with_cuts(), mutated_with_cuts()))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
        cuts = [cut for cut in cuts if cut < len(text)]
    return text, cuts


def split(text, cuts):
    bounds = [0, *cuts, len(text)]
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


class TestReferenceParity:
    @settings(max_examples=400, deadline=None)
    @given(texts_with_cuts(), st.booleans(), st.booleans())
    def test_same_tree_or_error_type(self, case, keep_comments, keep_ws):
        text, cuts = case
        options = dict(
            keep_comments=keep_comments, keep_ignorable_whitespace=keep_ws
        )
        expected = outcome(reference_parse, text, **options)
        assert_same_outcome(expected, outcome(parse_document, text, **options))
        assert_same_outcome(
            expected, outcome(parse_document_chunks, split(text, cuts), **options)
        )

    @settings(max_examples=300, deadline=None)
    @given(texts_with_cuts(), st.sampled_from(GUARDED_LIMITS))
    def test_one_tight_limit_trips_the_same_way(self, case, name):
        text, _ = case
        # Every maximum from 0 up (from the full length down for the
        # input budget), so each boundary the document has is crossed,
        # also where the damage lies past it or in the tag that crosses.
        for slack in range(41):
            if name == "max_input_bytes":
                maximum = max(0, len(text) - slack)
            else:
                maximum = slack
            limits = dataclasses.replace(
                ResourceLimits.unlimited(), **{name: maximum}
            )
            expected = outcome(reference_parse, text, limits=limits)
            assert_same_outcome(
                expected, outcome(parse_document, text, limits=limits)
            )

    def test_trailing_carriage_return_counts_toward_the_input_budget(self):
        text = "<a/>\r"
        limits = ResourceLimits(max_input_bytes=3)
        expected = outcome(reference_parse, text, limits=limits)
        assert expected == ("limit", "max_input_bytes", 5, 3)
        assert outcome(parse_document, text, limits=limits) == expected

    def test_stream_buffer_budget_does_not_apply_to_a_whole_text(self):
        # The hold-back budget bounds markup waiting for more input; a
        # whole text waits for none, so an unterminated construct is a
        # syntax error, as in the reference.
        text = "<r><!-- " + "x" * 200
        limits = ResourceLimits(max_stream_buffer_bytes=64)
        expected = outcome(reference_parse, text, limits=limits)
        assert expected == ("error", XMLSyntaxError)
        assert outcome(parse_document, text, limits=limits) == expected
