"""Server architecture: repository, requests, service facade, audit.

Public surface::

    from repro.server import (
        SecureXMLServer, PolicyConfig, Repository,
        AccessRequest, QueryRequest, AccessResponse, AuditLog,
    )
"""

from repro.server.analysis import (
    Audience,
    AudienceReport,
    audience_report,
    authorization_impact,
    dead_authorizations,
)
from repro.server.audit import AuditLog, AuditRecord
from repro.server.audit_sink import JsonlAuditSink, iter_audit_records
from repro.server.cache import CachedView, ViewCache
from repro.server.concurrent import (
    ConcurrentFrontEnd,
    ExplainRequest,
    RequestOutcome,
    StreamRequest,
    serve_many,
)
from repro.server.persistence import load_server, save_server
from repro.server.pool import PoolOutcome, ShardedServerPool
from repro.server.repository import Repository, ShardRouter, StoredDocument
from repro.server.request import AccessRequest, AccessResponse, QueryRequest
from repro.server.retry import DEFAULT_RETRY_POLICY, RetryPolicy, retry_call
from repro.server.service import AccessLimitExceeded, PolicyConfig, SecureXMLServer
from repro.server.supervisor import CircuitBreaker, RestartPolicy, Supervisor
from repro.update import (
    DeleteNode,
    InsertChild,
    RemoveAttribute,
    SetAttribute,
    SetText,
    UpdateDenied,
    UpdateEngine,
    UpdateOutcome,
    UpdateRequest,
)

__all__ = [
    "AccessLimitExceeded",
    "AccessRequest",
    "AccessResponse",
    "Audience",
    "AudienceReport",
    "AuditLog",
    "AuditRecord",
    "CachedView",
    "CircuitBreaker",
    "ConcurrentFrontEnd",
    "DEFAULT_RETRY_POLICY",
    "DeleteNode",
    "ExplainRequest",
    "InsertChild",
    "JsonlAuditSink",
    "PolicyConfig",
    "PoolOutcome",
    "QueryRequest",
    "RemoveAttribute",
    "Repository",
    "RequestOutcome",
    "RestartPolicy",
    "RetryPolicy",
    "SecureXMLServer",
    "SetAttribute",
    "SetText",
    "ShardRouter",
    "ShardedServerPool",
    "StoredDocument",
    "StreamRequest",
    "Supervisor",
    "UpdateDenied",
    "UpdateEngine",
    "UpdateOutcome",
    "UpdateRequest",
    "ViewCache",
    "audience_report",
    "authorization_impact",
    "dead_authorizations",
    "iter_audit_records",
    "load_server",
    "retry_call",
    "save_server",
    "serve_many",
]
