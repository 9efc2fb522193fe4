"""Interactive anytime-clustering service (DESIGN.md §8, §11).

The integration layer over the reproduction's primitives: anySCAN's
suspend/resume contract (:mod:`repro.core.anyscan`) scheduled in
budgeted slices across a worker pool (:mod:`repro.service.jobs`), named
graphs, each with at most one clustering index, and an LRU result
cache (:mod:`repro.service.store`), a JSON wire protocol over the
stdlib HTTP server (:mod:`repro.service.api`,
:mod:`repro.service.server`, :mod:`repro.service.client`), and the
counters and latency histograms of :mod:`repro.service.metrics`.

Scale-out lives in two sibling modules: :mod:`repro.service.shm`
publishes the graph store zero-copy through named shared-memory
segments under a seqlock'd manifest, and :mod:`repro.service.fleet`
serves it from N processes behind one port (``repro serve
--processes N``) with a single-writer control channel for mutations.
"""

from repro.service.api import ServiceError, wire_table
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.fleet import ServiceSupervisor, WorkerService
from repro.service.jobs import JobRecord, JobScheduler, JobState
from repro.service.metrics import (
    LatencyHistogram,
    ServiceMetrics,
    merge_metric_snapshots,
)
from repro.service.server import (
    ClusteringServer,
    ClusteringService,
    serve_main,
)
from repro.service.shm import (
    AttachedGraphStore,
    ManifestBlock,
    StorePublisher,
)
from repro.service.store import (
    CachedResult,
    CacheKey,
    GraphEntry,
    GraphStore,
    ResultCache,
    make_cache_key,
    similarity_signature,
)

__all__ = [
    "AttachedGraphStore",
    "CacheKey",
    "CachedResult",
    "ClusteringServer",
    "ClusteringService",
    "GraphEntry",
    "GraphStore",
    "JobRecord",
    "JobScheduler",
    "JobState",
    "LatencyHistogram",
    "ManifestBlock",
    "ResultCache",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "ServiceMetrics",
    "ServiceSupervisor",
    "StorePublisher",
    "WorkerService",
    "make_cache_key",
    "merge_metric_snapshots",
    "serve_main",
    "similarity_signature",
    "wire_table",
]
