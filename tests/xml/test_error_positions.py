"""The syntax errors the tokenizer reports, pinned by message and position.

One hostile input for each message that ``StreamReader._fail`` raises
and a document can reach, at each construct that raises it, plus the
errors that reference resolution and the internal DTD subset raise
with the reader's position. Each row is asserted through
``parse_document`` on the whole text and through a
:class:`~repro.stream.reader.StreamReader` fed one character at a
time, which puts every construct across chunk boundaries. A position
is the line and column where the failing construct starts; fed in
pieces, a text run is handed out as it arrives, so an error in it or
after it can report a later start.

Two messages cannot be reached and have no row: ``unterminated
literal`` (in the XML declaration and the DOCTYPE) and ``unterminated
internal DTD subset``. The scanners that find where those constructs
end skip quoted literals and bracketed subsets first, so an open
literal or subset reads as an unterminated declaration.

A last block of rows puts characters that Python's ``\\s`` matches, but
XML's four whitespace characters do not include, where a tag allows
only whitespace. The depth guard reports a position too; its rows sit
beside the syntax errors.
"""

import pytest

from repro.errors import XMLLimitExceeded, XMLSyntaxError
from repro.limits import ResourceLimits
from repro.stream.reader import StreamReader
from repro.xml.parser import parse_document


def row(text, message, line, column, fed=None):
    """*fed* is the (line, column) a one-character feed reports, when it
    differs from the whole text's."""
    return pytest.param(
        text, message, (line, column), fed or (line, column), id=message
    )


ROWS = [
    # -- the prolog and the XML declaration
    row("", "expected root element", 1, 1),
    row("text", "expected root element", 1, 1),
    row("<?xml version='1.0'", "unterminated XML declaration", 1, 1),
    row("<?xml encoding='utf-8'?><r/>", "XML declaration must specify a version", 1, 1),
    row(
        "<?xml version='1.0' standalone='maybe'?><r/>",
        "standalone must be 'yes' or 'no'", 1, 1,
    ),
    row("<?xml version='1.0' 1='x'?><r/>", "expected a name", 1, 1),
    row("<?xml version '1.0'?><r/>", "expected '='", 1, 1),
    row("<?xml version=1.0?><r/>", "expected a quoted literal", 1, 1),
    # -- the DOCTYPE declaration
    row("<!DOCTYPE r SYSTEM 'x'", "unterminated DOCTYPE declaration", 1, 1),
    row("<!DOCTYPE r>\n<!DOCTYPE r><r/>", "multiple DOCTYPE declarations", 2, 1),
    row("<!DOCTYPEr><r/>", "expected whitespace", 1, 1),
    row("<!DOCTYPE r SYSTEM'x'><r/>", "expected whitespace", 1, 1),
    row("<!DOCTYPE 1r><r/>", "expected a name", 1, 1),
    row("<!DOCTYPE r SYSTEM x><r/>", "expected a quoted literal", 1, 1),
    row("<!DOCTYPE r SYSTEM 'x' y><r/>", "expected '>'", 1, 1),
    row("<!DOCTYPE r ] [><r/>", "expected '>'", 1, 1),
    row(
        "<!DOCTYPE r [<!ELEMENT>]><r/>",
        "error in internal DTD subset: expected whitespace (line 1, column 10)",
        1, 1,
    ),
    # -- start tags
    row("<r>\n<1/></r>", "expected a name", 2, 1),
    row("<r>\n<a 1='x'/></r>", "expected a name", 2, 1),
    row("<r>\n<a b/></r>", "expected '='", 2, 1),
    row("<r>\n<a b=1/></r>", "attribute value must be quoted", 2, 1),
    row("<r>\n<a b='<'/></r>", "'<' not allowed in attribute value", 2, 1),
    row("<r>\n<a b='1'c='2'/></r>", "expected whitespace before attribute", 2, 1),
    row("<r>\n<a b='1' b='2'/></r>", "duplicate attribute 'b'", 2, 1),
    row("<r>\n<a>x</a>\n<b k='1' k='2'/></r>", "duplicate attribute 'k'", 3, 1),
    row("<r>\n<a/ ></r>", "expected '>'", 2, 1),
    row("<r>\n<a>x</a>\n<b k='1'\n/ ></r>", "expected '>'", 3, 1),
    row("<r>\n<a b='x></r>", "unterminated attribute value", 2, 1),
    row("<r>\n<a b='1'", "unterminated element <a>", 2, 1),
    row("<r>\n<a b='&nope;'/></r>", "unknown entity '&nope;'", 2, 1),
    # -- end tags
    row("<r>\n<a></1></r>", "expected a name", 2, 4),
    row("<r>\n<a>\n</a x></r>", "expected '>'", 3, 1),
    row(
        "<r>\n<a></b></r>",
        "mismatched end tag: expected </a>, found </b>", 2, 4,
    ),
    row(
        "<r>\n <a k=\"v\">t</a>\n <b/>\n <c></d></r>",
        "mismatched end tag: expected </c>, found </d>", 4, 5,
    ),
    row("<r>\n<a>x</a", "unterminated element <a>", 2, 5),
    # -- character data
    row("<r>\na]]>b</r>", "']]>' not allowed in character data", 1, 4, (2, 2)),
    row(
        "<r>\n<a>x</a>\n<b>y]z]]>w</b></r>",
        "']]>' not allowed in character data", 3, 4, (3, 7),
    ),
    row(
        "<r>\na\x0bb</r>",
        "invalid character U+000B in character data", 1, 4, (2, 2),
    ),
    row("<r>\n<a>&nope;</a></r>", "unknown entity '&nope;'", 2, 4),
    row("<r>\n<a>x</a>\n text", "unterminated element <r>", 2, 9, (3, 6)),
    row("<r>\n<a/>", "unterminated element <r>", 2, 5),
    # -- comments, PIs, CDATA and declarations in content
    row("<r>\n<!-- x", "unterminated comment", 2, 1),
    row("<r>\n<!-- a -- b --></r>", "expected '-->'", 2, 1),
    row("<r>\n<?pi x", "unterminated processing instruction", 2, 1),
    row("<r>\n<?1?></r>", "expected a name", 2, 1),
    row(
        "<r>\n<?xml x?></r>",
        "processing instruction target may not be 'xml'", 2, 1,
    ),
    row("<r>\n<?pi!x?></r>", "expected '?>'", 2, 1),
    row("<r>\n<![CDATA[x", "unterminated CDATA section", 2, 1),
    row("<r>\n<!ELEMENT x></r>", "declarations are not allowed in content", 2, 1),
    # -- after the root element
    row("<r/>\ntext", "unexpected content after root element", 2, 1),
    row("<r/>\n<s/>", "unexpected content after root element", 2, 1),
    # -- characters that Python's \s matches but XML's S does not, where
    #    a tag allows only S
    row("<r>\n<a\xa0b='1'/></r>", "expected whitespace before attribute", 2, 1),
    row("<r>\n<a b='1'\x85/></r>", "expected whitespace before attribute", 2, 1),
    row(
        "<r>\n<a>x</a>\n<b k='1'\xa0></b></r>",
        "expected whitespace before attribute", 3, 1,
    ),
    row("<r>\n<a b\u2028='1'/></r>", "expected '='", 2, 1),
    row("<r>\n<a b=\x0c'1'/></r>", "attribute value must be quoted", 2, 1),
    row("<r>\n<a></a\u3000></r>", "expected '>'", 2, 4),
]


def fed_one_character_at_a_time(text, limits=None):
    reader = StreamReader(limits=limits)
    for character in text:
        reader.feed(character)
    reader.close()


@pytest.mark.parametrize("text, message, whole, fed", ROWS)
def test_whole_text(text, message, whole, fed):
    with pytest.raises(XMLSyntaxError) as error:
        parse_document(text)
    assert (str(error.value), error.value.line, error.value.column) == (
        f"{message} (line {whole[0]}, column {whole[1]})", *whole
    )


@pytest.mark.parametrize("text, message, whole, fed", ROWS)
def test_fed_one_character_at_a_time(text, message, whole, fed):
    with pytest.raises(XMLSyntaxError) as error:
        fed_one_character_at_a_time(text)
    assert (str(error.value), error.value.line, error.value.column) == (
        f"{message} (line {fed[0]}, column {fed[1]})", *fed
    )


#: (text, max_tree_depth, line, column): the depth guard reports the
#: position just past the start tag that went too deep.
DEPTH_TRIPS = [
    ("<r>\n<a>\n<b k='v'>\n<c/>\n</b></a></r>", 1, 2, 4),
    ("<r>\n<a>\n<b k='v'>\n<c/>\n</b></a></r>", 2, 3, 10),
    ("<r><a>\n<b>", 1, 1, 7),
    ("<r><a>\n<b>", 2, 2, 4),
]


@pytest.mark.parametrize("text, depth, line, column", DEPTH_TRIPS)
def test_depth_guard_position(text, depth, line, column):
    limits = ResourceLimits(max_tree_depth=depth)
    for parse in (parse_document, fed_one_character_at_a_time):
        with pytest.raises(XMLLimitExceeded) as trip:
            parse(text, limits=limits)
        assert (trip.value.limit, trip.value.line, trip.value.column) == (
            "max_tree_depth", line, column,
        )
