"""Weighted structural similarity, batched kernels, and the indexes."""

from repro.similarity.counters import SimilarityCounters
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle
from repro.similarity.index import EdgeSimilarityIndex, graph_fingerprint
from repro.similarity.gsindex import ClusteringIndex

__all__ = [
    "SimilarityConfig",
    "SimilarityOracle",
    "SimilarityCounters",
    "EdgeSimilarityIndex",
    "ClusteringIndex",
    "graph_fingerprint",
]
