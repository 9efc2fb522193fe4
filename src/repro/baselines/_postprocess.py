"""Hub/outlier classification shared by all SCAN-family algorithms.

After clusters are formed, SCAN splits the remaining vertices into *hubs*
(adjacent to two or more distinct clusters) and *outliers* (everything
else).  All baselines and anySCAN share this post-processing so their
outputs are directly comparable.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph
from repro.result import HUB, OUTLIER, Clustering, VertexRole

__all__ = ["classify_non_members", "finalize_clustering"]


def classify_non_members(graph: Graph, labels: np.ndarray) -> np.ndarray:
    """Replace provisional non-member labels with HUB / OUTLIER.

    ``labels`` uses cluster ids ≥ 0 for members and any negative value for
    non-members; the returned copy refines the negatives.  A non-member
    touches two distinct clusters iff the smallest and the largest
    cluster id among its member neighbors differ — one scatter-min and
    one scatter-max over the CSR slots.
    """
    n = graph.num_vertices
    out = labels.copy()
    owners = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    far = labels[graph.indices]
    into_member = (labels[owners] < 0) & (far >= 0)
    lowest = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    highest = np.full(n, -1, dtype=np.int64)
    np.minimum.at(lowest, owners[into_member], far[into_member])
    np.maximum.at(highest, owners[into_member], far[into_member])
    non_member = labels < 0
    # No member neighbor leaves lowest > highest: an outlier.
    out[non_member] = np.where(lowest < highest, HUB, OUTLIER)[non_member]
    return out


def finalize_clustering(
    graph: Graph,
    labels: np.ndarray,
    core_mask: np.ndarray,
) -> Clustering:
    """Build the final :class:`Clustering` with roles.

    Parameters
    ----------
    labels:
        Cluster ids ≥ 0 for members, negatives for non-members.
    core_mask:
        Array marking the vertices determined to be cores (cast to bool).
    """
    labels = classify_non_members(graph, labels)
    roles = np.select(
        [np.asarray(core_mask, dtype=bool), labels >= 0, labels == HUB],
        [int(VertexRole.CORE), int(VertexRole.BORDER), int(VertexRole.HUB)],
        int(VertexRole.OUTLIER),
    ).astype(np.int8)
    return Clustering(labels=labels, roles=roles)
