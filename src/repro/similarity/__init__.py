"""Weighted structural similarity, batched kernels, and the indexes."""

from repro.similarity.counters import SimilarityCounters
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle
from repro.similarity.index import EdgeSimilarityIndex, graph_fingerprint
from repro.similarity.gsindex import DEFAULT_MU_CAP, ClusteringIndex

__all__ = [
    "SimilarityConfig",
    "SimilarityOracle",
    "SimilarityCounters",
    "EdgeSimilarityIndex",
    "ClusteringIndex",
    "DEFAULT_MU_CAP",
    "graph_fingerprint",
]
