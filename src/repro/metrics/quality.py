"""Unsupervised clustering quality measures.

NMI needs a reference clustering; when exploring parameters
interactively one wants *intrinsic* quality signals instead
(:meth:`repro.core.explorer.ParameterExplorer.suggest_epsilon` scores
its σ-free index probes by :func:`modularity`).  This module provides the
standard trio used in the community-detection literature:

* :func:`modularity` — Newman's Q (weighted), higher is better;
* :func:`conductance` — per-cluster cut ratio, lower is better;
* :func:`coverage` — fraction of edge weight inside clusters.

Hubs/outliers are treated as singleton communities for modularity (they
contribute ≈ nothing) and are excluded from conductance/coverage.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.graph.csr import Graph
from repro.result import Clustering

__all__ = ["modularity", "conductance", "coverage", "quality_report"]


def modularity(graph: Graph, clustering: Clustering) -> float:
    """Newman's weighted modularity Q of the clustering.

    Q = Σ_c (w_in_c / W  -  (deg_c / 2W)²), with W the total edge weight;
    unclustered vertices count as singletons (zero internal weight).
    """
    total = graph.total_weight
    if total <= 0:
        return 0.0
    labels = clustering.labels
    # Singletons for the unclustered, with unique negative-side ids.
    effective = labels.copy()
    base = labels.max(initial=-1) + 1
    noise = np.flatnonzero(labels < 0)
    effective[noise] = base + np.arange(noise.shape[0])

    internal: Dict[int, float] = {}
    degree_sum: Dict[int, float] = {}
    for u in range(graph.num_vertices):
        cu = int(effective[u])
        wts = graph.neighbor_weights(u)
        degree_sum[cu] = degree_sum.get(cu, 0.0) + float(wts.sum())
    for u, v, w in graph.edges():
        if effective[u] == effective[v]:
            cu = int(effective[u])
            internal[cu] = internal.get(cu, 0.0) + w
    q = 0.0
    for c, dsum in degree_sum.items():
        q += internal.get(c, 0.0) / total - (dsum / (2.0 * total)) ** 2
    return float(q)


def conductance(graph: Graph, clustering: Clustering) -> Dict[int, float]:
    """Conductance per cluster: cut(C) / min(vol(C), vol(V \\ C)).

    Lower is better; 0 means no edges leave the cluster.  Returns an
    empty dict when there are no clusters.
    """
    labels = clustering.labels
    volume: Dict[int, float] = {}
    cut: Dict[int, float] = {}
    total_volume = 0.0
    for u in range(graph.num_vertices):
        w = float(graph.neighbor_weights(u).sum())
        total_volume += w
        if labels[u] >= 0:
            cu = int(labels[u])
            volume[cu] = volume.get(cu, 0.0) + w
    for u, v, w in graph.edges():
        lu, lv = int(labels[u]), int(labels[v])
        if lu >= 0 and lu != lv:
            cut[lu] = cut.get(lu, 0.0) + w
        if lv >= 0 and lv != lu:
            cut[lv] = cut.get(lv, 0.0) + w
    out: Dict[int, float] = {}
    for c, vol in volume.items():
        denom = min(vol, total_volume - vol)
        out[c] = cut.get(c, 0.0) / denom if denom > 0 else 0.0
    return out


def coverage(graph: Graph, clustering: Clustering) -> float:
    """Fraction of total edge weight with both endpoints in one cluster."""
    total = graph.total_weight
    if total <= 0:
        return 0.0
    labels = clustering.labels
    inside = sum(
        w
        for u, v, w in graph.edges()
        if labels[u] >= 0 and labels[u] == labels[v]
    )
    return float(inside / total)


def quality_report(graph: Graph, clustering: Clustering) -> Dict[str, float]:
    """One-call intrinsic summary (modularity, coverage, mean conductance)."""
    conductances: List[float] = list(conductance(graph, clustering).values())
    return {
        "modularity": modularity(graph, clustering),
        "coverage": coverage(graph, clustering),
        "mean_conductance": float(np.mean(conductances))
        if conductances
        else 1.0,
        "num_clusters": float(clustering.num_clusters),
        "clustered_fraction": float(
            clustering.clustered_vertices.shape[0]
            / max(clustering.num_vertices, 1)
        ),
    }
