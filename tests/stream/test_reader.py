"""The incremental tokenizer against the reference parser, chunk by chunk.

The contract: for any chunking of the input — including one character
at a time, which puts every entity reference, character reference, tag,
CDATA marker and CRLF pair across a chunk boundary —
``parse_document_chunks`` builds the same tree and raises the same
errors as the recursive-descent reference parser
(``tests/xml/_reference_parser.py``) given the joined text, and it
honors the same guards. ``parse_document`` runs on the same reader, so
it is no reference for it.
"""

import dataclasses

import pytest

from repro.errors import XMLLimitExceeded, XMLSyntaxError
from repro.limits import Deadline, ResourceLimits
from repro.stream import (
    Characters,
    DocumentBuilder,
    StartDocument,
    StartElement,
    StreamReader,
    document_from_events,
    iter_events,
)
from repro.xml.parser import parse_document_chunks
from repro.xml.serializer import serialize
from repro.xml.traversal import count_nodes
from tests.xml._reference_parser import reference_parse

TRICKY = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    "<!-- prolog -->\n"
    '<?xml-stylesheet href="s.css"?>\n'
    '<!DOCTYPE memo SYSTEM "memo.dtd" [\n'
    '<!ENTITY who "world">\n'
    "]>\n"
    '<memo date="2000-01-02" note="a&#9;b&who;">\n'
    "  <to>hello &who; &amp; &#72;&#x69;</to>\n"
    "  <body>lead<![CDATA[raw <markup> & stuff]]>tail</body>\n"
    "  <empty/>\n"
    "  <ws>   </ws>\n"
    "  <!-- inner -->\n"
    "  <?pi data?>\n"
    "</memo>\n"
    "<!-- trailer -->\n"
)


def chunked(text, size):
    return [text[i : i + size] for i in range(0, len(text), size)]


def assert_same_tree(reference, rebuilt):
    assert serialize(rebuilt) == serialize(reference)
    assert count_nodes(rebuilt.root) == count_nodes(reference.root)
    assert rebuilt.doctype_name == reference.doctype_name
    assert rebuilt.system_id == reference.system_id
    assert rebuilt.xml_version == reference.xml_version
    assert rebuilt.encoding == reference.encoding
    assert rebuilt.standalone == reference.standalone
    assert (rebuilt.dtd is None) == (reference.dtd is None)


class TestChunkParity:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 16, 64, 10_000])
    def test_every_split_matches_the_dom_parser(self, size):
        reference = reference_parse(TRICKY)
        rebuilt = parse_document_chunks(chunked(TRICKY, size), uri="u")
        assert_same_tree(reference, rebuilt)

    @pytest.mark.parametrize("keep_comments", [True, False])
    @pytest.mark.parametrize("keep_ws", [True, False])
    def test_keep_flags_match(self, keep_comments, keep_ws):
        reference = reference_parse(
            TRICKY,
            keep_comments=keep_comments,
            keep_ignorable_whitespace=keep_ws,
        )
        rebuilt = parse_document_chunks(
            chunked(TRICKY, 3),
            keep_comments=keep_comments,
            keep_ignorable_whitespace=keep_ws,
        )
        assert_same_tree(reference, rebuilt)

    def test_references_split_mid_token(self):
        # The regression this module exists for: '&#72;' and '&who;'
        # arriving as '&', '#7', '2;' etc. must resolve identically.
        text = (
            '<!DOCTYPE a [<!ENTITY who "world">]>'
            "<a t='x&#72;y'>&who;&amp;&#x41;&#66;</a>"
        )
        reference = reference_parse(text)
        for size in range(1, 9):
            rebuilt = parse_document_chunks(chunked(text, size))
            assert_same_tree(reference, rebuilt)
        assert reference.root.text() == "world&AB"

    def test_crlf_split_between_cr_and_lf(self):
        text = "<a>line1\r\nline2\rline3</a>"
        reference = reference_parse(text)
        # Force the boundary exactly between '\r' and '\n'.
        cut = text.index("\r\n") + 1
        rebuilt = parse_document_chunks([text[:cut], text[cut:]])
        assert_same_tree(reference, rebuilt)
        assert rebuilt.root.text() == "line1\nline2\nline3"

    def test_cdata_end_marker_split(self):
        text = "<a><![CDATA[x]]y]]></a>"
        reference = reference_parse(text)
        for size in (1, 2, 3):
            assert_same_tree(
                reference, parse_document_chunks(chunked(text, size))
            )


class TestErrorParity:
    BAD = [
        "<a><b></a></b>",  # mismatched tags
        "<a>unclosed",  # unterminated element
        "<a>text]]>more</a>",  # ']]>' in character data
        "<a>&undefined;</a>",  # unknown entity
        "<a a='1' a='2'/>",  # duplicate attribute
        "<a/><b/>",  # two roots
        "",  # no root at all
    ]

    @pytest.mark.parametrize("text", BAD)
    @pytest.mark.parametrize("size", [1, 4, 10_000])
    def test_malformed_fails_in_both(self, text, size):
        with pytest.raises(XMLSyntaxError):
            reference_parse(text)
        with pytest.raises(XMLSyntaxError):
            parse_document_chunks(chunked(text, size))


class TestGuards:
    def test_node_count_guard_trips(self):
        limits = dataclasses.replace(
            ResourceLimits.unlimited(), max_node_count=3
        )
        text = "<a><b/><c/><d/></a>"
        with pytest.raises(XMLLimitExceeded) as trip:
            parse_document_chunks(chunked(text, 4), limits=limits)
        assert trip.value.limit == "max_node_count"

    def test_input_budget_counts_across_chunks(self):
        limits = dataclasses.replace(
            ResourceLimits.unlimited(), max_input_bytes=10
        )
        with pytest.raises(XMLLimitExceeded) as trip:
            parse_document_chunks(chunked("<aaaa>xxxx</aaaa>", 4), limits=limits)
        assert trip.value.limit == "max_input_bytes"

    def test_stream_buffer_budget_bounds_heldback_markup(self):
        # A comment that never terminates must not buffer forever.
        limits = dataclasses.replace(
            ResourceLimits.unlimited(), max_stream_buffer_bytes=64
        )
        chunks = ["<a><!-- "] + ["x" * 32] * 8
        with pytest.raises(XMLLimitExceeded) as trip:
            parse_document_chunks(chunks, limits=limits)
        assert trip.value.limit == "max_stream_buffer_bytes"

    @pytest.mark.parametrize("size", [1, 7, 10_000])
    def test_start_tag_hook_fires_once_before_each_element(self, size):
        # Plain tags and text take the fast path; a reference, a tab in
        # a value, a comment, a PI and CDATA take the per-construct code.
        text = (
            "<r k='v'><a>t</a><b x=\"1\" y='2'/><c x='a&amp;b'>u&amp;v</c>"
            "<d x='t\tb'><!-- c --><?pi d?><e/></d><![CDATA[<f/>]]>"
            "<g>\n<h\n/></g ></r>"
        )
        out = []
        reader = StreamReader(on_start_tag=lambda: out.append("hook"))
        for chunk in chunked(text, size):
            reader.feed(chunk, out)
        reader.close(out)
        hooks_and_starts = [
            "hook" if event == "hook" else event.name
            for event in out
            if event == "hook" or isinstance(event, StartElement)
        ]
        assert hooks_and_starts == [
            entry for name in "rabcdegh" for entry in ("hook", name)
        ]

    def test_deadline_is_checked_every_256_constructs(self):
        class CountingDeadline(Deadline):
            def check(self, what="request"):
                seen.append(len(out))

        seen = []
        out = []
        # Every construct here is one event: no empty-element tags.
        text = "<r>" + "<x>t</x>" * 10_000 + "</r>"
        reader = StreamReader(deadline=CountingDeadline(60.0))
        reader.close(out, text)
        assert len(out) == 30_004  # with StartDocument and EndDocument
        gaps = [after - before for before, after in zip([0, *seen], seen)]
        assert len(seen) >= 30_002 // 256
        assert max(gaps) <= 256 + 1  # StartDocument is no construct


class TestEventApi:
    def test_document_from_events_round_trips(self):
        reference = reference_parse(TRICKY)
        rebuilt = document_from_events(
            iter_events(chunked(TRICKY, 5)), uri="u"
        )
        assert_same_tree(reference, rebuilt)

    def test_builder_requires_end_document(self):
        builder = DocumentBuilder()
        with pytest.raises(XMLSyntaxError):
            builder.finish()

    def test_final_chunk_is_read_with_the_end_of_input_known(self):
        events = StreamReader().close(last=TRICKY)
        assert events == list(iter_events([TRICKY]))
        # A fed text run may go out before the reader knows whether
        # markup follows; a final chunk's run is refused first.
        assert StreamReader().feed("<a>text") == [
            StartDocument(), StartElement("a"), Characters("text")
        ]
        handed_out = []
        with pytest.raises(XMLSyntaxError, match="unterminated element"):
            StreamReader().close(handed_out, "<a>text")
        assert handed_out == [StartDocument(), StartElement("a")]
