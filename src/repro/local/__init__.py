"""Seeded local structural clustering (the per-user query primitive).

A user in a million-user deployment rarely wants the whole clustering —
they want the cluster around *their* vertex.  :func:`local_cluster`
answers that with work proportional to the output cluster (plus the
competing clusters needed to adjudicate contested borders), not the
graph, while remaining byte-identical to the seed's cluster in the
sequential reference ``scan``.  See DESIGN.md §12.
"""

from repro.local.cluster import (
    LocalClusterResult,
    LocalQueryStats,
    local_cluster,
)
from repro.local.tiers import (
    ClusterIndexTier,
    OracleTier,
    SigmaTier,
    build_tiers,
)

__all__ = [
    "LocalClusterResult",
    "LocalQueryStats",
    "local_cluster",
    "SigmaTier",
    "ClusterIndexTier",
    "OracleTier",
    "build_tiers",
]
