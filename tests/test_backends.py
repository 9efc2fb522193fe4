"""Backend dispatch: ``backend=None`` runs the sequential kernel, a
``ThreadBackend`` runs the same σ pass on a thread pool."""

import numpy as np
import pytest

from repro.core.backend_scan import parallel_scan
from repro.errors import ConfigError
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel.threads import ThreadBackend
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import EdgeSimilarityIndex

EPS = 0.4


@pytest.fixture(scope="module")
def small():
    return gnm_random_graph(80, 240, seed=11)


class TestConstruction:
    def test_thread_backend_with_defaults(self):
        backend = ThreadBackend()
        backend.validate()
        assert backend.threads == 4
        assert backend.chunk_size == 128


class TestDispatch:
    @pytest.fixture(scope="class")
    def backends(self):
        return {
            "sequential": None,
            "thread": ThreadBackend(threads=2, chunk_size=16),
        }

    def test_range_queries_agree(self, small, backends):
        """ε-neighborhoods read from indexes built on either path."""
        indexes = {
            name: ClusteringIndex.build(small, backend=backend)
            for name, backend in backends.items()
        }
        for v in range(small.num_vertices):
            np.testing.assert_array_equal(
                indexes["thread"].eps_neighborhood(v, EPS),
                indexes["sequential"].eps_neighborhood(v, EPS),
            )

    def test_edge_similarities_agree(self, small, backends):
        results = {
            name: EdgeSimilarityIndex.build(small, backend=backend).sigmas
            for name, backend in backends.items()
        }
        assert results["thread"].shape == small.indices.shape
        assert results["thread"].tobytes() == results["sequential"].tobytes()

    def test_epsilon_validated_before_dispatch(self, small, sigma_passes):
        with pytest.raises(ConfigError):
            parallel_scan(
                small, 3, 1.5, backend=ThreadBackend(threads=2, chunk_size=4)
            )
        assert sigma_passes == []  # no σ pass was started
