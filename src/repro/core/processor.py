"""The security processor (paper, Section 7).

"Its execution cycle consists of four basic steps": parsing, tree
labeling, transformation (pruning) and unparsing.
:class:`SecurityProcessor` implements that cycle over the substrate
packages: :func:`~repro.xml.parser.parse_document`, then
:func:`~repro.core.view.compute_view_from_auths`, then the serializers.

Each step runs under the span the server's pipeline uses for it
(``parse.xml``, ``label``, ``prune``, ``serialize``; see
docs/OBSERVABILITY.md). Under an active :func:`repro.obs.tracing`
block, :attr:`ProcessorOutput.timings` carries the stage totals of the
spans one call recorded, which benchmark C3 uses to show where the time
goes. The processor never starts a tracer of its own.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.authz.authorization import Authorization
from repro.authz.conflict import ConflictPolicy
from repro.core.view import ViewResult, compute_view_from_auths
from repro.dtd.model import DTD
from repro.dtd.serializer import serialize_dtd
from repro.dtd.validator import validate
from repro.errors import ValidationError
from repro.obs.trace import current_tracer, span
from repro.subjects.hierarchy import SubjectHierarchy
from repro.xml.nodes import Document
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xpath.compile import RelativeMode

__all__ = ["ProcessorOutput", "SecurityProcessor"]


@dataclass
class ProcessorOutput:
    """The processor's product: view text, loosened DTD, diagnostics."""

    xml_text: str
    loosened_dtd: Optional[DTD]
    loosened_dtd_text: Optional[str]
    view: ViewResult
    #: Seconds per stage name (``parse.xml``, ``label``, ``prune``,
    #: ``serialize``, ...) over the spans this call recorded on the
    #: caller's active tracer; empty when no tracer is active.
    timings: dict[str, float] = field(default_factory=dict)


@contextmanager
def _recorded_stages() -> Iterator[dict[str, float]]:
    """Fill the yielded dict with the stage totals of the spans the
    block records on the active tracer (none active: left empty)."""
    stages: dict[str, float] = {}
    tracer = current_tracer()
    mark = len(tracer.spans) if tracer is not None else 0
    yield stages
    if tracer is not None:
        stages.update(tracer.stage_totals(mark))


class SecurityProcessor:
    """Server-side on-line transformation of XML documents.

    Parameters mirror the knobs of :func:`repro.core.view.compute_view`;
    one processor instance is configured per document policy (the paper
    allows different policies on one server, but "a single policy
    applies to each specific document").
    """

    def __init__(
        self,
        hierarchy: Optional[SubjectHierarchy] = None,
        policy: Optional[ConflictPolicy] = None,
        open_policy: bool = False,
        relative_mode: RelativeMode = "descendant",
        validate_input: bool = False,
    ) -> None:
        self._hierarchy = hierarchy if hierarchy is not None else SubjectHierarchy()
        self._policy = policy
        self._open_policy = open_policy
        self._relative_mode = relative_mode
        self._validate_input = validate_input

    def process_text(
        self,
        xml_text: str,
        instance_auths: list[Authorization],
        schema_auths: list[Authorization],
        uri: Optional[str] = None,
        dtd: Optional[DTD] = None,
    ) -> ProcessorOutput:
        """Run the full four-step cycle on raw document text."""
        with _recorded_stages() as stages:
            # Step 1: parsing (syntax check + compilation to an object
            # tree).
            document = parse_document(xml_text, uri=uri)
            if dtd is not None and document.dtd is None:
                document.dtd = dtd
            if self._validate_input and document.dtd is not None:
                report = validate(document)
                if not report.valid:
                    raise ValidationError(report.violations)
            output = self.process_document(
                document, instance_auths, schema_auths
            )
        output.timings = stages
        return output

    def process_document(
        self,
        document: Document,
        instance_auths: list[Authorization],
        schema_auths: list[Authorization],
    ) -> ProcessorOutput:
        """Steps 2-4 on an already parsed document."""
        with _recorded_stages() as stages:
            # Steps 2 and 3: tree labeling, then transformation
            # (pruning), preserving validity w.r.t. the loosened DTD.
            view = compute_view_from_auths(
                document,
                instance_auths,
                schema_auths,
                self._hierarchy,
                policy=self._policy,
                open_policy=self._open_policy,
                relative_mode=self._relative_mode,
            )
            # Step 4: unparsing.
            with span("serialize"):
                xml_text = serialize(view.document, doctype=False)
                loosened = view.document.dtd
                loosened_text = (
                    serialize_dtd(loosened) if loosened is not None else None
                )
        return ProcessorOutput(xml_text, loosened, loosened_text, view, stages)
