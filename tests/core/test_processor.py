"""Tests for the four-step security processor (paper, Section 7)."""

import pytest

from repro.authz.authorization import Authorization
from repro.core.processor import SecurityProcessor
from repro.dtd.parser import parse_dtd
from repro.dtd.validator import validate
from repro.errors import ValidationError, XMLSyntaxError
from repro.obs.trace import current_tracer, tracing
from repro.subjects.hierarchy import SubjectHierarchy
from repro.xml.parser import parse_document

URI = "http://x/d.xml"

XML_TEXT = """\
<!DOCTYPE lab [
<!ELEMENT lab (item+)>
<!ATTLIST lab name CDATA #REQUIRED>
<!ELEMENT item (#PCDATA)>
<!ATTLIST item kind (pub|sec) #REQUIRED>
]>
<lab name="L"><item kind="pub">open</item><item kind="sec">hidden</item></lab>
"""


def auth(obj, sign, auth_type):
    return Authorization.build(("Public", "*", "*"), obj, sign, auth_type)


class TestPipeline:
    def test_full_cycle(self):
        processor = SecurityProcessor()
        output = processor.process_text(
            XML_TEXT,
            [auth(f"{URI}://item[./@kind='pub']", "+", "R")],
            [],
            uri=URI,
        )
        assert "open" in output.xml_text
        assert "hidden" not in output.xml_text
        assert output.view.visible_nodes > 0

    def test_output_reparses(self):
        processor = SecurityProcessor()
        output = processor.process_text(
            XML_TEXT, [auth(f"{URI}://lab", "+", "R")], [], uri=URI
        )
        document = parse_document(output.xml_text)
        assert document.root.name == "lab"

    def test_view_valid_against_loosened_dtd(self):
        processor = SecurityProcessor()
        output = processor.process_text(
            XML_TEXT,
            [auth(f"{URI}://item[./@kind='pub']", "+", "R")],
            [],
            uri=URI,
        )
        assert output.loosened_dtd is not None
        view_document = parse_document(output.xml_text)
        report = validate(view_document, output.loosened_dtd)
        assert report.valid, report.violations

    def test_loosened_dtd_text_emitted(self):
        processor = SecurityProcessor()
        output = processor.process_text(
            XML_TEXT, [auth(f"{URI}://lab", "+", "R")], [], uri=URI
        )
        assert "<!ELEMENT lab (item*)" in output.loosened_dtd_text
        assert "#IMPLIED" in output.loosened_dtd_text

    def test_timings_populated(self):
        processor = SecurityProcessor()
        with tracing() as tracer:
            output = processor.process_text(
                XML_TEXT, [auth(f"{URI}://lab", "+", "R")], [], uri=URI
            )
        timings = output.timings
        for stage in ("parse.xml", "label", "prune", "serialize"):
            assert timings[stage] > 0, stage
        # The call's stages are the spans it recorded on the caller's
        # tracer, nothing more.
        assert timings == tracer.stage_totals()

    def test_no_timings_without_a_tracer(self):
        processor = SecurityProcessor()
        output = processor.process_text(
            XML_TEXT, [auth(f"{URI}://lab", "+", "R")], [], uri=URI
        )
        assert output.timings == {}
        assert current_tracer() is None

    def test_malformed_input_rejected_at_parse_step(self):
        processor = SecurityProcessor()
        with pytest.raises(XMLSyntaxError):
            processor.process_text("<broken", [], [], uri=URI)

    def test_validating_processor_rejects_invalid(self):
        processor = SecurityProcessor(validate_input=True)
        invalid = XML_TEXT.replace('kind="sec"', 'kind="nope"')
        with pytest.raises(ValidationError):
            processor.process_text(invalid, [], [], uri=URI)

    def test_external_dtd_attachment(self):
        processor = SecurityProcessor()
        dtd = parse_dtd("<!ELEMENT a EMPTY>")
        output = processor.process_text(
            "<a/>", [auth(f"{URI}://a", "+", "R")], [], uri=URI, dtd=dtd
        )
        assert output.loosened_dtd is not None

    def test_empty_view_output(self):
        processor = SecurityProcessor()
        output = processor.process_text(XML_TEXT, [], [], uri=URI)
        assert output.view.empty
        # The body contains no element at all (only the XML declaration).
        body = output.xml_text.replace('<?xml version="1.0"?>', "").strip()
        assert body == ""

    def test_open_policy_processor(self):
        processor = SecurityProcessor(open_policy=True)
        output = processor.process_text(
            XML_TEXT, [auth(f"{URI}://item[./@kind='sec']", "-", "R")], [], uri=URI
        )
        assert "open" in output.xml_text
        assert "hidden" not in output.xml_text

    def test_process_document_directly(self):
        processor = SecurityProcessor(hierarchy=SubjectHierarchy())
        document = parse_document(XML_TEXT, uri=URI)
        with tracing():
            output = processor.process_document(
                document, [auth(f"{URI}://lab", "+", "R")], []
            )
        assert "parse.xml" not in output.timings
        assert output.timings["label"] > 0
        assert "open" in output.xml_text
