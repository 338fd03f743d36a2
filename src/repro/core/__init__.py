"""Core: the paper's compute-view algorithm and security processor.

Public surface::

    from repro.core import (
        compute_view, compute_view_from_auths, compute_view_naive,
        TreeLabeler, NaiveLabeler, Label, first_def,
        build_view, prune_in_place, SecurityProcessor,
    )
"""

from repro.core.baseline import NaiveLabeler, compute_view_naive
from repro.core.explain import (
    Explanation,
    NodeExplanation,
    Provenance,
    SlotDecision,
    SlotOrigin,
    explain,
    explain_from_auths,
    explain_view,
)
from repro.core.labeling import (
    SLOTS,
    LabelingResult,
    TreeLabeler,
)
from repro.core.labels import EPSILON, MINUS, PLUS, Label, first_def
from repro.core.processor import ProcessorOutput, SecurityProcessor
from repro.core.prune import build_view, prune_in_place
from repro.core.view import ViewResult, compute_view, compute_view_from_auths

__all__ = [
    "EPSILON",
    "Explanation",
    "Label",
    "LabelingResult",
    "MINUS",
    "NaiveLabeler",
    "NodeExplanation",
    "PLUS",
    "ProcessorOutput",
    "Provenance",
    "SLOTS",
    "SecurityProcessor",
    "SlotDecision",
    "SlotOrigin",
    "TreeLabeler",
    "ViewResult",
    "build_view",
    "compute_view",
    "compute_view_from_auths",
    "compute_view_naive",
    "explain",
    "explain_from_auths",
    "explain_view",
    "first_def",
    "prune_in_place",
]
