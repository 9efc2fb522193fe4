"""JSON wire protocol: routes, payload helpers, error mapping.

The protocol is deliberately plain — JSON request bodies, JSON response
bodies, HTTP status codes — so any stdlib client can drive it.  One
table (:data:`ROUTES`) defines every endpoint; the HTTP layer
(:mod:`repro.service.server`) and the docs (DESIGN.md §8) are both
generated from it, so they cannot drift apart.

| method | path                      | handler        | purpose                               |
|--------|---------------------------|----------------|---------------------------------------|
| GET    | /healthz                  | health         | liveness + hosted graph/job counts    |
| GET    | /metrics                  | metrics        | counters, gauges, latency histograms  |
| POST   | /graphs                   | load_graph     | host a graph (+ its clustering index) |
| GET    | /graphs                   | list_graphs    | enumerate hosted graphs               |
| GET    | /graphs/{name}            | graph_info     | one graph's fingerprint/size/index    |
| GET    | /graphs/{name}/local-cluster | local_cluster | the seed vertex's exact cluster (§12) |
| POST   | /graphs/{name}/index      | build_index    | build the graph's cluster index       |
| POST   | /graphs/{name}/update-edges | update_edges | edge inserts/deletes (CSR patch + index row refresh) |
| POST   | /cluster                  | cluster        | index extraction, else an anySCAN job |
| GET    | /jobs                     | list_jobs      | enumerate jobs                        |
| GET    | /jobs/{id}                | job_status     | state/progress of one job             |
| GET    | /jobs/{id}/snapshot       | job_snapshot   | latest anytime snapshot (+labels)     |
| GET    | /jobs/{id}/result         | job_result     | final exact clustering (optional wait)|
| POST   | /jobs/{id}/pause          | pause_job      | suspend after the current slice       |
| POST   | /jobs/{id}/resume         | resume_job     | requeue a paused job                  |
| POST   | /jobs/{id}/cancel         | cancel_job     | terminate a job                       |
| POST   | /jobs/{id}/priority       | set_priority   | reprioritize a live job               |
| POST   | /shutdown                 | shutdown       | stop the server loop                  |
| POST   | /fleet/register           | fleet_register | worker → supervisor announce (fleet)  |
| GET    | /fleet/metrics            | fleet_metrics  | merged fleet-wide /metrics            |

Errors are JSON too: ``{"error": message, "type": exception_class}``
with status 400 for domain errors (:class:`~repro.errors.ReproError`),
404 for unknown routes, 409 for not-yet-available results and for job
state transitions the job's state refuses
(:class:`~repro.errors.JobStateError`, e.g. pausing a finished job),
and 500 for unexpected failures.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.core.snapshots import Snapshot
from repro.errors import JobStateError, ReproError
from repro.result import Clustering

__all__ = [
    "ROUTES",
    "Route",
    "ServiceError",
    "clustering_payload",
    "dispatch",
    "snapshot_payload",
    "wire_table",
]


class ServiceError(ReproError):
    """A request-level failure carrying its HTTP status.

    ``retry_after`` (seconds) marks the failure as transient — the HTTP
    layer lifts it into a ``Retry-After`` header so well-behaved clients
    back off instead of hammering a saturated scheduler.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int = 400,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.retry_after = (
            None if retry_after is None else float(retry_after)
        )


class Route:
    """One wire endpoint: method + path pattern + handler name.

    A pattern with a ``{job_id}`` placeholder makes a *job route*: the
    process that owns the job answers it (:func:`dispatch`).
    """

    def __init__(
        self, method: str, pattern: str, handler: str, description: str
    ) -> None:
        self.method = method
        self.pattern = pattern
        self.handler = handler
        self.description = description
        self.job_routed = "{job_id}" in pattern
        self.regex = re.compile(
            "^"
            + re.sub(r"\{[a-z_]+\}", r"([^/]+)", pattern)
            + "$"
        )


ROUTES: Tuple[Route, ...] = (
    Route("GET", "/healthz", "health", "liveness + hosted counts"),
    Route("GET", "/metrics", "metrics", "counters/gauges/latency"),
    Route("POST", "/graphs", "load_graph", "host a graph"),
    Route("GET", "/graphs", "list_graphs", "enumerate hosted graphs"),
    Route("GET", "/graphs/{name}", "graph_info", "one graph's metadata"),
    Route(
        "GET",
        "/graphs/{name}/local-cluster",
        "local_cluster",
        "seeded local clustering: the seed vertex's exact cluster",
    ),
    Route(
        "POST",
        "/graphs/{name}/index",
        "build_index",
        "build the GS*-style clustering index (any-(ε, μ) queries)",
    ),
    Route(
        "POST",
        "/graphs/{name}/update-edges",
        "update_edges",
        "edge inserts/deletes: CSR patch + index row refresh",
    ),
    Route(
        "POST",
        "/cluster",
        "cluster",
        "answer from the clustering index, else submit an anytime job",
    ),
    Route("GET", "/jobs", "list_jobs", "enumerate jobs"),
    Route("GET", "/jobs/{job_id}", "job_status", "one job's progress"),
    Route(
        "GET",
        "/jobs/{job_id}/snapshot",
        "job_snapshot",
        "latest anytime snapshot",
    ),
    Route(
        "GET",
        "/jobs/{job_id}/result",
        "job_result",
        "final exact clustering",
    ),
    Route("POST", "/jobs/{job_id}/pause", "pause_job", "suspend a job"),
    Route("POST", "/jobs/{job_id}/resume", "resume_job", "requeue a job"),
    Route("POST", "/jobs/{job_id}/cancel", "cancel_job", "terminate a job"),
    Route(
        "POST",
        "/jobs/{job_id}/priority",
        "set_priority",
        "reprioritize a job",
    ),
    Route("POST", "/shutdown", "shutdown", "stop the server loop"),
    Route(
        "POST",
        "/fleet/register",
        "fleet_register",
        "worker → supervisor: announce pid/admin URL (control channel)",
    ),
    Route(
        "GET",
        "/fleet/metrics",
        "fleet_metrics",
        "fleet-wide merged /metrics (summed counters, merged histograms)",
    ),
)


def wire_table() -> List[Dict[str, str]]:
    """The protocol as data (docs and clients introspect this)."""
    return [
        {
            "method": route.method,
            "path": route.pattern,
            "handler": route.handler,
            "description": route.description,
        }
        for route in ROUTES
    ]


# ----------------------------------------------------------------------
# payload helpers
# ----------------------------------------------------------------------
def snapshot_payload(
    snap: Snapshot, *, include_labels: bool = True
) -> Dict[str, object]:
    """JSON view of one anytime snapshot."""
    payload: Dict[str, object] = {
        "step": snap.step,
        "iteration": int(snap.iteration),
        "final": bool(snap.final),
        "assigned_fraction": float(snap.assigned_fraction),
        "num_clusters": int(snap.num_clusters),
        "num_supernodes": int(snap.num_supernodes),
        "work_units": float(snap.work_units),
        "sigma_evaluations": int(snap.sigma_evaluations),
    }
    if include_labels:
        payload["labels"] = [int(x) for x in snap.labels]
    return payload


def clustering_payload(
    labels: np.ndarray, *, include_labels: bool = True
) -> Dict[str, object]:
    """JSON view of a final labeling (canonical Clustering semantics)."""
    clustering = Clustering(labels=np.asarray(labels, dtype=np.int64))
    payload: Dict[str, object] = {
        "num_vertices": int(clustering.num_vertices),
        "num_clusters": int(clustering.num_clusters),
        "num_hubs": int(clustering.hubs.shape[0]),
        "num_outliers": int(clustering.outliers.shape[0]),
    }
    if include_labels:
        payload["labels"] = [int(x) for x in clustering.labels]
    return payload


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def _match(method: str, path: str) -> Tuple[Optional[Route], Tuple[str, ...]]:
    for route in ROUTES:
        if route.method != method:
            continue
        found = route.regex.match(path)
        if found:
            return route, found.groups()
    return None, ()


def dispatch(
    service: object,
    method: str,
    raw_path: str,
    payload: Optional[Dict[str, object]] = None,
) -> Tuple[int, Dict[str, object], str]:
    """Route one request to ``service.handle_<name>``.

    Returns ``(status, body, endpoint_name)``; the endpoint name labels
    the latency histogram even for failed requests.  Query-string
    parameters are merged into the payload (body keys win) so GET
    endpoints can take options such as ``?wait=5``.  On a job route the
    service's ``forward_job`` hook answers first: a fleet shard hands a
    job another shard owns to that owner, everything else runs here.
    """
    split = urlsplit(raw_path)
    merged: Dict[str, object] = {
        key: values[-1]
        for key, values in parse_qs(split.query).items()
    }
    merged.update(payload or {})
    route, args = _match(method, split.path)
    if route is None:
        return (
            404,
            {"error": f"no route for {method} {split.path}", "type": "NotFound"},
            "unmatched",
        )
    handler = getattr(service, f"handle_{route.handler}")
    try:
        body = None
        if route.job_routed:
            body = service.forward_job(  # type: ignore[attr-defined]
                args[0], method, split.path, merged
            )
        if body is None:
            body = handler(merged, *args)
        return 200, body, route.handler
    except ServiceError as exc:
        body: Dict[str, object] = {
            "error": str(exc),
            "type": type(exc).__name__,
        }
        if exc.retry_after is not None:
            body["retry_after"] = exc.retry_after
        return exc.status, body, route.handler
    except ReproError as exc:
        return (
            409 if isinstance(exc, JobStateError) else 400,
            {"error": str(exc), "type": type(exc).__name__},
            route.handler,
        )
    except Exception as exc:  # surface, don't kill the handler thread
        return (
            500,
            {"error": str(exc), "type": type(exc).__name__},
            route.handler,
        )


# ----------------------------------------------------------------------
# payload coercion (wire values arrive as strings from query params)
# ----------------------------------------------------------------------
def get_str(payload: Dict[str, object], key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise ServiceError(f"field {key!r} must be a non-empty string")
    return value


def get_int(
    payload: Dict[str, object], key: str, default: Optional[int] = None
) -> Optional[int]:
    value = payload.get(key, default)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ServiceError(f"field {key!r} must be an integer") from None


def get_float(
    payload: Dict[str, object], key: str, default: Optional[float] = None
) -> Optional[float]:
    value = payload.get(key, default)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ServiceError(f"field {key!r} must be a number") from None


def get_bool(
    payload: Dict[str, object], key: str, default: bool = False
) -> bool:
    value = payload.get(key, default)
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off", ""):
            return False
    raise ServiceError(f"field {key!r} must be a boolean")
