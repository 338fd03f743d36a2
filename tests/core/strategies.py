"""Hypothesis strategies for labeling and pruning properties.

Small documents over a four-name vocabulary with ``kind``/``id``
attributes and mixed content (text, empty text, comments, PIs), and
authorization sets whose paths all compile exactly to the dispatch
automaton, over three comparable subjects (``Public`` ⊇ ``Staff`` ⊇
``alice``) so the most-specific-subject filter and every conflict
policy have work to do.
"""

from hypothesis import strategies as st

from repro.authz.authorization import AuthObject, AuthType, Authorization, Sign
from repro.subjects.hierarchy import SubjectHierarchy, SubjectSpec
from repro.xml.nodes import Comment, Document, Element, ProcessingInstruction, Text

URI = "http://props.example/doc.xml"
DTD_URI = "http://props.example/doc.dtd"

NAMES = ("a", "b", "c", "d")
KINDS = ("x", "y")
SUBJECTS = ("Public", "Staff", "alice")
CONFLICT_POLICIES = (
    "denials-take-precedence",
    "permissions-take-precedence",
    "nothing-takes-precedence",
    "majority-takes-precedence",
)


def hierarchy() -> SubjectHierarchy:
    result = SubjectHierarchy()
    result.directory.add_group("Staff")
    result.directory.add_user("alice", groups=["Staff"])
    return result


@st.composite
def elements(draw, depth: int = 0) -> Element:
    element = Element(draw(st.sampled_from(NAMES)))
    if draw(st.booleans()):
        element.set_attribute("kind", draw(st.sampled_from(KINDS)))
    if draw(st.booleans()):
        element.set_attribute("id", f"n{draw(st.integers(0, 3))}")
    kinds = ["text", "comment", "pi", "empty"]
    if depth < 4:
        kinds += ["element"] * 3
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=4)):
        if kind == "element":
            element.append(draw(elements(depth + 1)))
        elif kind == "text":
            element.append(Text(draw(st.sampled_from(("t", "a&b", "<x>")))))
        elif kind == "empty":
            element.append(Text(""))
        elif kind == "comment":
            element.append(Comment("note"))
        else:
            element.append(ProcessingInstruction("pi", draw(st.sampled_from(("", "d")))))
    return element


@st.composite
def documents(draw) -> Document:
    document = Document()
    document.uri = URI
    document.append(draw(elements()))
    return document


@st.composite
def exact_paths(draw):
    """A path expression (``None``: the bare URI, i.e. the root) that
    compiles exactly."""
    name = draw(st.sampled_from(NAMES))
    other = draw(st.sampled_from(NAMES))
    kind = draw(st.sampled_from(KINDS))
    return draw(
        st.sampled_from(
            (
                None,
                f"//{name}",
                f"/{name}/{other}",
                f"/{name}//{other}",
                f"//{name}//{other}",
                f"//{name}[./@kind='{kind}']",
                f"//{name}[@id]",
                f"//{name}/@kind",
                f"//{name}/@*",
                f"//{name}[./@kind='{kind}']/@id",
                "//*",
                f"//{name} | //{other}/@kind",
            )
        )
    )


@st.composite
def authorizations(draw):
    """``(authorization, is_schema)``."""
    is_schema = draw(st.booleans())
    uri = DTD_URI if is_schema else URI
    return (
        Authorization(
            SubjectSpec.parse(draw(st.sampled_from(SUBJECTS))),
            AuthObject(uri, draw(exact_paths())),
            "read",
            Sign(draw(st.sampled_from(("+", "-")))),
            draw(st.sampled_from(list(AuthType))),
        ),
        is_schema,
    )


def split(pairs):
    """``(instance, schema)`` lists from :func:`authorizations` draws."""
    instance = [auth for auth, is_schema in pairs if not is_schema]
    schema = [auth for auth, is_schema in pairs if is_schema]
    return instance, schema
