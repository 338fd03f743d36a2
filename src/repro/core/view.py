"""compute-view: the paper's Algorithm 6.1, end to end.

:func:`compute_view` runs the complete Figure 2 pipeline for one
requester and one document: select Axml and Adtd from the authorization
store, label the tree (:mod:`repro.core.labeling`), prune it
(:mod:`repro.core.prune`) and return the requester's view together with
the labeling, ready for unparsing by the processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.authz.authorization import Authorization
from repro.authz.conflict import ConflictPolicy
from repro.authz.store import AuthorizationStore
from repro.core.labeling import LabelingResult, TreeLabeler
from repro.core.labels import Label
from repro.core.prune import PruneCounts, build_view
from repro.limits import Deadline, ResourceLimits
from repro.obs.trace import span
from repro.subjects.hierarchy import Requester, SubjectHierarchy
from repro.xml.nodes import Document, Node
from repro.xpath.compile import RelativeMode

__all__ = ["ViewResult", "compute_view", "compute_view_from_auths"]


@dataclass
class ViewResult:
    """Everything produced by one compute-view run.

    ``labels`` are the labeling's, keyed by the nodes of the *source*
    document; many nodes may share one label object, so treat them as
    read-only. ``total_nodes``/``visible_nodes`` equal ``count_nodes``
    over the source's and the view's root elements.
    """

    document: Document
    labels: dict[Node, Label]
    instance_auths: list[Authorization] = field(default_factory=list)
    schema_auths: list[Authorization] = field(default_factory=list)
    total_nodes: int = 0
    visible_nodes: int = 0

    @property
    def empty(self) -> bool:
        return self.document.root is None

    @property
    def hidden_nodes(self) -> int:
        return self.total_nodes - self.visible_nodes

    def summary(self) -> str:
        return (
            f"view: {self.visible_nodes}/{self.total_nodes} nodes visible, "
            f"{len(self.instance_auths)} instance + "
            f"{len(self.schema_auths)} schema authorizations applied"
        )


def compute_view(
    document: Document,
    requester: Requester,
    store: AuthorizationStore,
    dtd_uri: Optional[str] = None,
    policy: Optional[ConflictPolicy] = None,
    open_policy: bool = False,
    relative_mode: RelativeMode = "descendant",
    action: str = "read",
    loosen_dtd: bool = True,
    at: Optional[float] = None,
    limits: Optional[ResourceLimits] = None,
    deadline: Optional[Deadline] = None,
) -> ViewResult:
    """The view of *requester* on *document* (paper, Figure 2).

    Parameters
    ----------
    document:
        The requested document; its ``uri`` selects the instance-level
        authorizations.
    requester:
        The authenticated (user, IP, hostname) triple.
    store:
        The server's authorization set and subject hierarchy.
    dtd_uri:
        The URI the document's DTD is published under (step 2's
        ``dtd(URI)``); defaults to the attached DTD's ``uri`` or the
        DOCTYPE SYSTEM identifier.
    policy:
        Conflict-resolution policy (default: denials take precedence).
    open_policy:
        ε as permission (open) instead of denial (closed, the default).
    relative_mode:
        Anchoring of relative path expressions (DESIGN.md decision 5).
    action:
        The requested action; the paper uses ``read``.
    loosen_dtd:
        Attach the loosened DTD to the returned view.
    limits, deadline:
        Optional resource guards threaded into labeling and pruning
        (see :mod:`repro.limits`); a tripped guard raises
        :class:`~repro.errors.LimitExceeded` or
        :class:`~repro.errors.DeadlineExceeded`.
    """
    uri = document.uri or ""
    with span("authz.bind"):
        instance_auths = (
            store.applicable(requester, uri, action, at=at) if uri else []
        )
        resolved_dtd_uri = _resolve_dtd_uri(document, dtd_uri)
        schema_auths = (
            store.applicable(requester, resolved_dtd_uri, action, at=at)
            if resolved_dtd_uri
            else []
        )
    return compute_view_from_auths(
        document,
        instance_auths,
        schema_auths,
        store.hierarchy,
        policy=policy,
        open_policy=open_policy,
        relative_mode=relative_mode,
        loosen_dtd=loosen_dtd,
        limits=limits,
        deadline=deadline,
    )


def compute_view_from_auths(
    document: Document,
    instance_auths: list[Authorization],
    schema_auths: list[Authorization],
    hierarchy: Optional[SubjectHierarchy] = None,
    policy: Optional[ConflictPolicy] = None,
    open_policy: bool = False,
    relative_mode: RelativeMode = "descendant",
    loosen_dtd: bool = True,
    limits: Optional[ResourceLimits] = None,
    deadline: Optional[Deadline] = None,
) -> ViewResult:
    """compute-view with the authorization sets already selected.

    Useful when the caller has no store (tests, benchmarks) or wants to
    inject synthetic Axml/Adtd directly. *instance_auths* and
    *schema_auths* must already be filtered for the requester.
    """
    if deadline is None and limits is not None:
        deadline = limits.deadline()
    if deadline is not None:
        deadline.check("compute-view")
    labeler = TreeLabeler(
        document,
        instance_auths,
        schema_auths,
        hierarchy if hierarchy is not None else SubjectHierarchy(),
        policy=policy,
        relative_mode=relative_mode,
        limits=limits,
        deadline=deadline,
    )
    labeling: LabelingResult = labeler.run()
    if deadline is not None:
        deadline.check("view pruning")
    # Both counts come from the walks that already visit every node:
    # the labeling holds one label per source node, and the pruner
    # counts what it copies.
    counts = PruneCounts()
    view = build_view(
        document,
        labeling.labels,
        open_policy=open_policy,
        loosen_dtd=loosen_dtd,
        counts=counts,
    )
    return ViewResult(
        document=view,
        labels=labeling.labels,
        instance_auths=list(instance_auths),
        schema_auths=list(schema_auths),
        total_nodes=labeling.labeled_nodes,
        visible_nodes=counts.visible_nodes,
    )


def _resolve_dtd_uri(document: Document, dtd_uri: Optional[str]) -> Optional[str]:
    if dtd_uri is not None:
        return dtd_uri
    if document.dtd is not None and document.dtd.uri:
        return document.dtd.uri
    return document.system_id
