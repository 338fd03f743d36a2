"""Serialization of node trees back to XML text.

This is the "unparsing step" of the paper's security processor (Section 7,
step 4): "generating a valid XML document in text format, simply by
unparsing the pruned DOM tree". Two styles are offered:

- :func:`serialize` — compact, content-preserving output whose parse is
  structurally identical to the input tree (round-trip tested by the
  property suite);
- :func:`pretty` — indented output for human consumption in examples and
  documentation.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError
from repro.xml.escape import escape_attribute, escape_text
from repro.xml.nodes import (
    Attribute,
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)

__all__ = ["serialize", "pretty"]


def serialize(
    node: Node,
    xml_declaration: bool = True,
    doctype: bool = True,
) -> str:
    """Serialize *node* (a document or any subtree) to a string.

    Parameters
    ----------
    node:
        A :class:`Document` or any node; attributes serialize as
        ``name="value"``.
    xml_declaration:
        Emit ``<?xml version="1.0"?>`` for documents.
    doctype:
        Emit the ``<!DOCTYPE ...>`` declaration when the document carries
        one (only the external SYSTEM form round-trips; an internal
        subset is re-emitted from the attached DTD object, if any).
    """
    if isinstance(node, Document):
        prolog: list[str] = []
        if xml_declaration:
            declaration = f'<?xml version="{node.xml_version}"'
            if node.encoding:
                declaration += f' encoding="{node.encoding}"'
            if node.standalone is not None:
                declaration += f' standalone="{"yes" if node.standalone else "no"}"'
            declaration += "?>"
            prolog.append(declaration)
        if doctype and node.doctype_name:
            prolog.append(_doctype_string(node))
        body: list[str] = []
        for child in node.children:
            _write(child, body)
        head = "\n".join(prolog) + "\n" if prolog else ""
        return head + "".join(body)
    parts: list[str] = []
    _write(node, parts)
    return "".join(parts)


def _doctype_string(document: Document) -> str:
    declaration = f"<!DOCTYPE {document.doctype_name}"
    if document.system_id:
        declaration += f' SYSTEM "{document.system_id}"'
    elif document.dtd is not None:
        from repro.dtd.serializer import serialize_dtd

        body = serialize_dtd(document.dtd, indent="  ")
        declaration += " [\n" + body + "\n]"
    declaration += ">"
    return declaration


def _write(node: Node, parts: list[str]) -> None:
    if isinstance(node, Element):
        # Iterative serialization (explicit stack with end-tag markers)
        # so arbitrarily deep views serialize without recursion limits.
        stack: list[object] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, str):  # an end-tag marker
                parts.append(current)
                continue
            if isinstance(current, Element):
                parts.append(f"<{current.name}")
                for attr in current.attributes.values():
                    parts.append(f' {attr.name}="{escape_attribute(attr.value)}"')
                if not current.children:
                    parts.append("/>")
                    continue
                parts.append(">")
                stack.append(f"</{current.name}>")
                stack.extend(reversed(current.children))
            elif type(current) is Text:  # the common leaf, inline
                parts.append(escape_text(current.data))
            else:
                _write(current, parts)  # leaf kinds below, never recurse deep
    elif isinstance(node, Text):
        parts.append(escape_text(node.data))
    elif isinstance(node, Comment):
        if "--" in node.data:
            raise ReproError("comment data may not contain '--'")
        parts.append(f"<!--{node.data}-->")
    elif isinstance(node, ProcessingInstruction):
        if "?>" in node.data:
            raise ReproError("PI data may not contain '?>'")
        parts.append(f"<?{node.target} {node.data}?>" if node.data else f"<?{node.target}?>")
    elif isinstance(node, Attribute):
        parts.append(f'{node.name}="{escape_attribute(node.value)}"')
    elif isinstance(node, Document):
        parts.append(serialize(node))
    else:  # pragma: no cover - defensive
        raise ReproError(f"cannot serialize node of type {type(node).__name__}")


def pretty(
    node: Node,
    indent: str = "  ",
    xml_declaration: bool = False,
    max_inline_text: int = 60,
) -> str:
    """Serialize with indentation for display.

    Elements whose content is a single short text node are kept on one
    line (``<title>An XML paper</title>``); whitespace-only text nodes
    are dropped. The output is intended for human eyes — it does not
    round-trip whitespace-sensitive content.
    """
    parts: list[str] = []
    if isinstance(node, Document):
        if xml_declaration:
            parts.append(f'<?xml version="{node.xml_version}"?>')
        if node.doctype_name:
            parts.append(_doctype_string(node))
        for child in node.children:
            _write_pretty(child, parts, 0, indent, max_inline_text)
    else:
        _write_pretty(node, parts, 0, indent, max_inline_text)
    return "\n".join(parts)


def _write_pretty(
    node: Node,
    parts: list[str],
    level: int,
    indent: str,
    max_inline_text: int,
) -> None:
    if isinstance(node, Element):
        # Iterative with explicit (node, level) stack and end-tag
        # markers, for parity with `serialize` on deep documents.
        stack: list[tuple[object, int]] = [(node, level)]
        while stack:
            current, depth = stack.pop()
            pad = indent * depth
            if isinstance(current, str):  # an end-tag marker
                parts.append(f"{pad}{current}")
                continue
            if not isinstance(current, Element):
                _write_pretty(current, parts, depth, indent, max_inline_text)
                continue
            open_tag = f"<{current.name}"
            for attr in current.attributes.values():
                open_tag += f' {attr.name}="{escape_attribute(attr.value)}"'
            meaningful = [
                child
                for child in current.children
                if not (isinstance(child, Text) and not child.data.strip())
            ]
            if not meaningful:
                parts.append(f"{pad}{open_tag}/>")
                continue
            if len(meaningful) == 1 and isinstance(meaningful[0], Text):
                text = escape_text(meaningful[0].data.strip())
                if len(text) <= max_inline_text:
                    parts.append(f"{pad}{open_tag}>{text}</{current.name}>")
                    continue
            parts.append(f"{pad}{open_tag}>")
            stack.append((f"</{current.name}>", depth))
            for child in reversed(meaningful):
                stack.append((child, depth + 1))
        return
    pad = indent * level
    if isinstance(node, Text):
        stripped = node.data.strip()
        if stripped:
            parts.append(f"{pad}{escape_text(stripped)}")
    elif isinstance(node, Comment):
        parts.append(f"{pad}<!--{node.data}-->")
    elif isinstance(node, ProcessingInstruction):
        body = f"<?{node.target} {node.data}?>" if node.data else f"<?{node.target}?>"
        parts.append(f"{pad}{body}")
    elif isinstance(node, Attribute):
        parts.append(f'{pad}{node.name}="{escape_attribute(node.value)}"')


def element_signature(node: Optional[Node]) -> str:
    """A compact structural signature used by tests to compare trees.

    Attribute order is normalized (sorted by name) so signatures compare
    structure and content, not incidental ordering.
    """
    if node is None:
        return "(none)"
    if isinstance(node, Document):
        return "".join(element_signature(child) for child in node.children)
    if isinstance(node, Element):
        attrs = "".join(
            f"@{name}={node.attributes[name].value!r}"
            for name in sorted(node.attributes)
        )
        inner = "".join(element_signature(child) for child in node.children)
        return f"<{node.name}{attrs}>{inner}</{node.name}>"
    if isinstance(node, Text):
        return repr(node.data)
    if isinstance(node, Comment):
        return f"<!--{node.data}-->"
    if isinstance(node, ProcessingInstruction):
        return f"<?{node.target} {node.data}?>"
    if isinstance(node, Attribute):
        return f"@{node.name}={node.value!r}"
    return f"<{type(node).__name__}>"
