"""Hostile-input tests for the typed resource guards.

The classic hardening suite (test_security_hardening.py) pins the
*legacy* behaviour: attacks fail as plain syntax errors with stable
messages. This suite pins the *typed* layer added on top: every guard
trip is catchable as :class:`~repro.errors.LimitExceeded` (and as the
stage's native error class), carries machine-readable limit metadata,
and fires fast — no hangs, no RecursionError, no memory blow-up.
"""

import tracemalloc

import pytest

from repro.errors import (
    DeadlineExceeded,
    DTDSyntaxError,
    LimitExceeded,
    XMLSyntaxError,
    XPathEvaluationError,
)
from repro.limits import Deadline, ResourceLimits
from repro.dtd.parser import parse_dtd
from repro.xml.parser import parse_document
from repro.xpath.evaluator import select

BILLION_LAUGHS = (
    "<?xml version='1.0'?>"
    "<!DOCTYPE lolz ["
    "<!ENTITY lol 'lol'>"
    "<!ENTITY lol1 '&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;'>"
    "<!ENTITY lol2 '&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;'>"
    "<!ENTITY lol3 '&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;'>"
    "<!ENTITY lol4 '&lol3;&lol3;&lol3;&lol3;&lol3;&lol3;&lol3;&lol3;&lol3;&lol3;'>"
    "<!ENTITY lol5 '&lol4;&lol4;&lol4;&lol4;&lol4;&lol4;&lol4;&lol4;&lol4;&lol4;'>"
    "<!ENTITY lol6 '&lol5;&lol5;&lol5;&lol5;&lol5;&lol5;&lol5;&lol5;&lol5;&lol5;'>"
    "<!ENTITY lol7 '&lol6;&lol6;&lol6;&lol6;&lol6;&lol6;&lol6;&lol6;&lol6;&lol6;'>"
    "<!ENTITY lol8 '&lol7;&lol7;&lol7;&lol7;&lol7;&lol7;&lol7;&lol7;&lol7;&lol7;'>"
    "<!ENTITY lol9 '&lol8;&lol8;&lol8;&lol8;&lol8;&lol8;&lol8;&lol8;&lol8;&lol8;'>"
    "]><lolz>&lol9;</lolz>"
)


class TestParserGuards:
    def test_billion_laughs_is_a_typed_limit_error(self):
        with pytest.raises(LimitExceeded) as excinfo:
            parse_document(BILLION_LAUGHS, limits=ResourceLimits())
        assert excinfo.value.limit == "max_entity_expansion_chars"
        # Still catchable the old way too.
        assert isinstance(excinfo.value, XMLSyntaxError)

    def test_billion_laughs_without_limits_still_defended(self):
        # The legacy module-level ceiling stays in force with limits=None.
        with pytest.raises(XMLSyntaxError, match="entity bomb|character limit"):
            parse_document(BILLION_LAUGHS)

    def test_deep_nesting_trips_depth_cap(self):
        depth = 5_000
        hostile = "<a>" * depth + "</a>" * depth
        limits = ResourceLimits(max_tree_depth=100)
        with pytest.raises(LimitExceeded) as excinfo:
            parse_document(hostile, limits=limits)
        assert excinfo.value.limit == "max_tree_depth"
        assert excinfo.value.maximum == 100

    def test_depth_under_the_cap_parses(self):
        document = parse_document(
            "<a>" * 50 + "</a>" * 50, limits=ResourceLimits(max_tree_depth=100)
        )
        assert document.root is not None

    def test_oversized_input_rejected_before_parsing(self):
        limits = ResourceLimits(max_input_bytes=64)
        with pytest.raises(LimitExceeded) as excinfo:
            parse_document("<doc>" + "x" * 1_000 + "</doc>", limits=limits)
        assert excinfo.value.limit == "max_input_bytes"
        assert excinfo.value.maximum == 64

    def test_node_count_cap(self):
        flood = "<r>" + "<x/>" * 1_000 + "</r>"
        with pytest.raises(LimitExceeded) as excinfo:
            parse_document(flood, limits=ResourceLimits(max_node_count=100))
        assert excinfo.value.limit == "max_node_count"

    @pytest.mark.parametrize(
        "flood",
        [
            "<r>" + "<x/>" * 1_000 + "</y>",  # bad end tag far past the cap
            "<r>" + "<x/>" * 99 + "<x a='1' a='2'/></r>",  # bad tag at it
        ],
    )
    def test_node_count_cap_trips_before_later_syntax_errors(self, flood):
        # The tree is built as the text is read: the cap trips at the
        # first element past it, before the reader checks anything
        # further, including the rest of that element's own tag.
        with pytest.raises(LimitExceeded) as excinfo:
            parse_document(flood, limits=ResourceLimits(max_node_count=100))
        assert excinfo.value.limit == "max_node_count"
        assert excinfo.value.value == 101

    def test_node_flood_memory_is_bounded_by_the_cap(self):
        limits = ResourceLimits(max_node_count=100)
        peaks = []
        for count in (1_000, 100_000):
            flood = "<r>" + "<x/>" * count + "</r>"
            tracemalloc.start()
            try:
                with pytest.raises(LimitExceeded):
                    parse_document(flood, limits=limits)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # A hundred times the elements, the same work: the parse keeps
        # nothing of the text past the element that trips the cap.
        assert peaks[1] < peaks[0] + 64 * 1024

    def test_expired_deadline_stops_the_parse(self):
        big = "<r>" + "<x>t</x>" * 5_000 + "</r>"
        with pytest.raises(DeadlineExceeded):
            parse_document(big, limits=ResourceLimits(), deadline=Deadline.after(0.0))

    def test_benign_document_unaffected_by_default_limits(self):
        document = parse_document(
            "<notes><note owner='alice'>hi</note></notes>", limits=ResourceLimits()
        )
        assert document.root.name == "notes"


class TestDTDGuards:
    def test_oversized_dtd_rejected(self):
        text = "<!ELEMENT a (#PCDATA)>" * 100
        with pytest.raises(LimitExceeded) as excinfo:
            parse_dtd(text, limits=ResourceLimits(max_input_bytes=50))
        assert excinfo.value.limit == "max_input_bytes"
        assert isinstance(excinfo.value, DTDSyntaxError)

    def test_parameter_entity_churn_capped(self):
        # Each %p; reference is one expansion; a tight budget trips fast.
        text = '<!ENTITY % p " ">' + "%p;" * 50
        with pytest.raises(LimitExceeded) as excinfo:
            parse_dtd(text, limits=ResourceLimits(max_entity_expansions=10))
        assert excinfo.value.limit == "max_entity_expansions"


class TestXPathGuards:
    def test_step_budget_exceeded_is_typed(self, simple_doc):
        with pytest.raises(LimitExceeded) as excinfo:
            select("//leaf", simple_doc, max_steps=2)
        assert excinfo.value.limit == "max_xpath_steps"
        assert excinfo.value.maximum == 2
        assert isinstance(excinfo.value, XPathEvaluationError)

    def test_generous_budget_unaffected(self, simple_doc):
        nodes = select("//leaf", simple_doc, max_steps=1_000_000)
        assert len(nodes) == 3

    def test_expired_deadline_stops_evaluation(self, simple_doc):
        with pytest.raises(DeadlineExceeded):
            select("//leaf", simple_doc, deadline=Deadline.after(0.0))

    def test_no_budget_means_no_charge(self, simple_doc):
        assert len(select("//leaf", simple_doc)) == 3
