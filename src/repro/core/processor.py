"""The security processor (paper, Section 7).

"Its execution cycle consists of four basic steps": parsing, tree
labeling, transformation (pruning) and unparsing.
:class:`SecurityProcessor` implements that cycle over the substrate
packages and reports per-step timings, which benchmark C3 uses to show
where the time goes.

The coarse :class:`StepTimings` predate the tracing layer and remain
for API stability; under an active :func:`repro.obs.tracing` block the
same cycle additionally emits structured spans (``parse.xml``,
``label``, ``prune``, ``dtd.loosen``, ``serialize``) with finer nesting
— see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.authz.authorization import Authorization
from repro.authz.conflict import ConflictPolicy
from repro.core.labeling import TreeLabeler
from repro.core.prune import PruneCounts, build_view
from repro.core.view import ViewResult
from repro.dtd.loosen import loosen
from repro.dtd.model import DTD
from repro.dtd.serializer import serialize_dtd
from repro.dtd.validator import validate
from repro.errors import ValidationError
from repro.obs.trace import span
from repro.subjects.hierarchy import SubjectHierarchy
from repro.xml.nodes import Document
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xpath.compile import RelativeMode

__all__ = ["ProcessorOutput", "SecurityProcessor", "StepTimings"]


@dataclass
class StepTimings:
    """Wall-clock seconds spent in each of the four processor steps."""

    parse: float = 0.0
    label: float = 0.0
    transform: float = 0.0
    unparse: float = 0.0

    @property
    def total(self) -> float:
        return self.parse + self.label + self.transform + self.unparse

    def as_dict(self) -> dict[str, float]:
        return {
            "parse": self.parse,
            "label": self.label,
            "transform": self.transform,
            "unparse": self.unparse,
            "total": self.total,
        }


@dataclass
class ProcessorOutput:
    """The processor's product: view text, loosened DTD, diagnostics."""

    xml_text: str
    loosened_dtd: Optional[DTD]
    loosened_dtd_text: Optional[str]
    view: ViewResult
    timings: StepTimings = field(default_factory=StepTimings)


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
        timings = StepTimings()

        # Step 1: parsing (syntax check + compilation to an object tree).
        started = time.perf_counter()
        document = parse_document(xml_text, uri=uri)
        if dtd is not None and document.dtd is None:
            document.dtd = dtd
        if self._validate_input and document.dtd is not None:
            report = validate(document)
            if not report.valid:
                raise ValidationError(report.violations)
        timings.parse = time.perf_counter() - started

        output = self.process_document(document, instance_auths, schema_auths)
        output.timings.parse = timings.parse
        return output

    def process_document(
        self,
        document: Document,
        instance_auths: list[Authorization],
        schema_auths: list[Authorization],
    ) -> ProcessorOutput:
        """Steps 2-4 on an already parsed document."""
        timings = StepTimings()

        # Step 2: tree labeling.
        started = time.perf_counter()
        labeler = TreeLabeler(
            document,
            instance_auths,
            schema_auths,
            self._hierarchy,
            policy=self._policy,
            relative_mode=self._relative_mode,
        )
        labeling = labeler.run()
        timings.label = time.perf_counter() - started

        # Step 3: transformation (pruning), preserving validity w.r.t.
        # the loosened DTD.
        started = time.perf_counter()
        counts = PruneCounts()
        view_document = build_view(
            document,
            labeling.labels,
            open_policy=self._open_policy,
            loosen_dtd=True,
            counts=counts,
        )
        timings.transform = time.perf_counter() - started

        # Step 4: unparsing.
        started = time.perf_counter()
        with span("serialize"):
            xml_text = serialize(view_document, doctype=False)
            loosened = view_document.dtd
            if loosened is None and document.dtd is not None:
                loosened = loosen(document.dtd)
            loosened_text = serialize_dtd(loosened) if loosened is not None else None
        timings.unparse = time.perf_counter() - started

        view = ViewResult(
            document=view_document,
            labels=labeling.labels,
            instance_auths=list(instance_auths),
            schema_auths=list(schema_auths),
            total_nodes=labeling.labeled_nodes,
            visible_nodes=counts.visible_nodes,
        )
        return ProcessorOutput(
            xml_text=xml_text,
            loosened_dtd=loosened,
            loosened_dtd_text=loosened_text,
            view=view,
            timings=timings,
        )
