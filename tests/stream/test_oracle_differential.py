"""The bulk-scan reader against the frozen seed per-character reader.

``tests/stream/_seed_reader.py`` is a verbatim snapshot of the reader
before the bulk-scanning rebuild — the per-character oracle. Any
document, chunked any way, must produce the *identical* event list (or
the identical exception type) through both. Hypothesis drives random
documents through random chunk boundaries; a hand-picked hostile corpus
covers entity bombs, deep nesting, invalid characters, and markup
split mid-token.

The generator draws each shape the reader's fast path takes and each
that it leaves to the per-construct code: single- and double-quoted
values; whitespace (CRLF included) around '=', between attributes and
before '>' or '/>'; '>', quotes, tabs and newlines inside values;
duplicate attribute names; '</name >' and mismatched end tags; text
with newlines, ']', ']]>' and U+000B. It also runs under
``max_tree_depth``.

The oracle is temporary scaffolding: once a release cycle of
production traffic has exercised the rebuilt reader, this file and the
snapshot can be dropped together.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.limits import ResourceLimits
from repro.stream.reader import StreamReader
from tests.stream._seed_reader import SeedStreamReader


def drive(reader_cls, text, cuts, limits=None):
    """Feed *text* split at *cuts*; return ("ok", events) or ("err", type)."""
    reader = reader_cls(limits=limits)
    events = []
    try:
        last = 0
        for cut in cuts:
            events.extend(reader.feed(text[last:cut]))
            last = cut
        events.extend(reader.feed(text[last:]))
        events.extend(reader.close())
        return ("ok", events)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("err", type(exc).__name__, str(exc))


def assert_identical(text, cuts, limits=None):
    expected = drive(SeedStreamReader, text, cuts, limits)
    actual = drive(StreamReader, text, cuts, limits)
    assert actual == expected, (
        f"divergence for {text!r} cut at {cuts}:\n"
        f"  seed: {expected}\n  new:  {actual}"
    )


# -- hypothesis strategies ---------------------------------------------------

NAMES = st.sampled_from(["a", "b", "r2", "x-y", "_n", "André"])
TEXTS = st.sampled_from(
    ["", "t", "  spaced  ", "a&amp;b", "x&#65;", "&#x1F600;", "]]", "]",
     "one]two", "tab\tnl\n", "é€𝄞", "two\nlines\n", "a > b", "q\"'q"]
)
#: Text no document may hold; drawn rarely, so most documents stay valid.
BAD_TEXTS = st.sampled_from(["a]]>b", "v\x0bt"])
ATTR_VALUES = st.sampled_from(
    ["", "v", "a b", "&lt;x&gt;", "x&#10;y", "'", '"', "a>b", "t\tab",
     "n\nl", "cr\r\nlf"]
)
#: Whitespace around '=', between attributes and before '>' or '/>'.
SPACE = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", " \n\t"])
OPTIONAL_SPACE = st.one_of(st.just(""), SPACE)
#: True about one draw in twelve; shrinks to False.
RARELY = st.sampled_from([False] * 11 + [True])


@st.composite
def documents(draw, max_depth=4):
    def attribute(name):
        value = draw(ATTR_VALUES)
        quote = draw(st.sampled_from(['"', "'"]))
        if quote in value:
            quote = "'" if quote == '"' else '"'
        return (
            f"{draw(SPACE)}{name}{draw(OPTIONAL_SPACE)}={draw(OPTIONAL_SPACE)}"
            f"{quote}{value}{quote}"
        )

    def element(depth):
        name = draw(NAMES)
        names = draw(st.lists(NAMES, max_size=3, unique=True))
        if names and draw(RARELY):
            names.append(names[0])  # a duplicate attribute
        attrs = "".join(attribute(attr) for attr in names)
        if depth >= max_depth or draw(st.booleans()):
            return f"<{name}{attrs}{draw(OPTIONAL_SPACE)}/>"
        inner = "".join(
            element(depth + 1)
            if draw(st.booleans())
            else draw(BAD_TEXTS) if draw(RARELY) else draw(TEXTS)
            for _ in range(draw(st.integers(0, 3)))
        )
        extra = draw(
            st.sampled_from(["", "<!-- c -->", "<?pi d?>", "<![CDATA[<raw>&]]>"])
        )
        closing = name + "x" if draw(RARELY) else name  # a mismatched end tag
        return (
            f"<{name}{attrs}{draw(OPTIONAL_SPACE)}>{inner}{extra}"
            f"</{closing}{draw(OPTIONAL_SPACE)}>"
        )

    prolog = draw(
        st.sampled_from(
            ["", '<?xml version="1.0"?>', "<?xml version='1.0' encoding='utf-8'?>\n",
             "<!-- lead -->", '<!DOCTYPE r [<!ENTITY e "ee">]>']
        )
    )
    return prolog + element(0)


@st.composite
def cut_points(draw, length):
    if length < 2:
        return []
    return sorted(draw(st.lists(st.integers(1, length - 1), max_size=6)))


@st.composite
def documents_with_cuts(draw):
    text = draw(documents())
    return text, draw(cut_points(len(text)))


@st.composite
def mutated_with_cuts(draw):
    """Valid documents damaged at a random point — the error paths must
    diverge from the oracle neither in type nor in batching."""
    text = draw(documents())
    pos = draw(st.integers(0, max(0, len(text) - 1)))
    damage = draw(
        st.sampled_from(
            ["<", ">", "&", "&;", "]]>", "--", '"', "\x00", "\x0b", "<!x", "</",
             "<?xml ", "\r"]
        )
    )
    mutated = text[:pos] + damage + text[pos:]
    return mutated, draw(cut_points(len(mutated)))


class TestHypothesisDifferential:
    @settings(max_examples=400, deadline=None)
    @given(documents_with_cuts())
    def test_random_documents_random_chunks(self, case):
        text, cuts = case
        assert_identical(text, cuts)

    @settings(max_examples=400, deadline=None)
    @given(mutated_with_cuts())
    def test_damaged_documents_random_chunks(self, case):
        text, cuts = case
        assert_identical(text, cuts)

    @settings(max_examples=200, deadline=None)
    @given(documents_with_cuts())
    def test_crlf_variant_matches_oracle(self, case):
        text, cuts = case
        crlf = text.replace("\n", "\r\n")
        assert_identical(crlf, [c for c in cuts if c < len(crlf)])

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(documents_with_cuts(), mutated_with_cuts()),
        st.integers(1, 6),
    )
    def test_depth_guard_trips_where_the_oracle_does(self, case, depth):
        text, cuts = case
        assert_identical(text, cuts, ResourceLimits(max_tree_depth=depth))


HOSTILE = [
    # entity bomb: expansion guard must trip identically
    (
        '<!DOCTYPE r [<!ENTITY a "xxxxxxxxxx">'
        '<!ENTITY b "&a;&a;&a;&a;&a;&a;&a;&a;&a;&a;">'
        '<!ENTITY c "&b;&b;&b;&b;&b;&b;&b;&b;&b;&b;">]>'
        "<r>&c;&c;&c;&c;&c;&c;&c;&c;&c;&c;</r>"
    ),
    # reference cycle
    '<!DOCTYPE r [<!ENTITY a "&b;"><!ENTITY b "&a;">]><r>&a;</r>',
    # deep nesting
    "".join(f"<n{i}>" for i in range(60))
    + "x"
    + "".join(f"</n{i}>" for i in reversed(range(60))),
    # long text run with hold-back suspects sprinkled in
    "<r>" + ("word ]] & more ]]" + "&amp;") * 50 + "</r>",
    # invalid characters in every construct
    "<r>\x00</r>",
    "<r a='\x01'/>",
    "<r><![CDATA[\x02]]></r>",
    # markup split mid-token is exercised by 1-char chunking below
    "<r><![CDATA[]]]]><![CDATA[>]]></r>",
    '<!DOCTYPE r PUBLIC "p>u" "s>y" [<!ENTITY e "v">]><r>&e;</r>',
    "<r>\r\rmixed\r\n\rendings\r</r>\r",
]


class TestHostileCorpus:
    @pytest.mark.parametrize("doc", HOSTILE, ids=range(len(HOSTILE)))
    def test_one_char_chunks(self, doc):
        assert_identical(doc, list(range(1, len(doc))))

    @pytest.mark.parametrize("doc", HOSTILE, ids=range(len(HOSTILE)))
    def test_whole_string(self, doc):
        assert_identical(doc, [])

    def test_entity_bomb_with_tight_limits(self):
        doc = HOSTILE[0]
        limits = ResourceLimits(max_entity_expansion_chars=500)
        assert_identical(doc, [len(doc) // 2], limits)

    def test_depth_guard_trips_identically(self):
        doc = HOSTILE[2]
        limits = ResourceLimits(max_tree_depth=10)
        assert_identical(doc, [7], limits)

    def test_buffer_guard_trips_identically(self):
        doc = "<r>" + "x" * 200 + "<c/></r>"
        limits = ResourceLimits(max_stream_buffer_bytes=64)
        assert_identical(doc, [50, 100, 150], limits)
