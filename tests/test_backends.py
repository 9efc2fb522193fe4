"""The backend registry: name resolution, construction, dispatch."""

import numpy as np
import pytest

from repro.core.backend_scan import parallel_scan
from repro.errors import ConfigError, SimulationError
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel.backends import (
    BACKEND_NAMES,
    backend_kind,
    close_backend,
    create_backend,
    resolve_backend_name,
)
from repro.parallel.processes import ProcessBackend
from repro.parallel.threads import ThreadBackend
from repro.similarity.gsindex import ClusteringIndex

EPS = 0.4


@pytest.fixture(scope="module")
def small():
    return gnm_random_graph(80, 240, seed=11)


class TestResolution:
    def test_explicit_names_pass_through(self):
        assert resolve_backend_name("thread") == "thread"
        assert resolve_backend_name("process") == "process"

    def test_auto_resolves_to_a_concrete_name(self):
        assert resolve_backend_name("auto") in ("thread", "process")

    def test_auto_avoids_processes_without_shared_memory(
        self, no_shared_memory
    ):
        assert resolve_backend_name("auto") == "thread"

    def test_unknown_name_raises(self):
        with pytest.raises(SimulationError, match="unknown backend"):
            resolve_backend_name("gpu")

    def test_registry_names_are_stable(self):
        assert BACKEND_NAMES == ("thread", "process", "auto")


class TestConstruction:
    def test_thread_backend_with_defaults(self):
        backend = create_backend("thread", workers=3)
        assert isinstance(backend, ThreadBackend)
        assert backend.threads == 3
        assert backend.chunk_size == 64
        assert backend_kind(backend) == "thread"
        close_backend(backend)  # no-op, must not raise

    def test_process_backend_with_defaults(self):
        backend = create_backend("process", workers=2)
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 2
        assert backend.chunk_size == 256
        close_backend(backend)

    def test_chunk_size_forwarded(self):
        thread = create_backend("thread", chunk_size=7)
        process = create_backend("process", chunk_size=7)
        assert thread.chunk_size == 7
        assert process.chunk_size == 7
        close_backend(process)


class TestDispatch:
    @pytest.fixture(scope="class")
    def backends(self, small):
        thread = create_backend("thread", workers=2)
        process = create_backend("process", workers=2, chunk_size=16)
        yield {"thread": thread, "process": process}
        close_backend(process)

    def test_range_queries_agree(self, small, backends):
        """ε-neighborhoods read from indexes built on either backend."""
        indexes = {
            name: ClusteringIndex.build(small, backend=backend)
            for name, backend in backends.items()
        }
        for v in range(small.num_vertices):
            np.testing.assert_array_equal(
                indexes["thread"].eps_neighborhood(v, EPS),
                indexes["process"].eps_neighborhood(v, EPS),
            )

    def test_edge_similarities_agree(self, small, backends):
        results = {
            name: backend.sigma_rows(small)
            for name, backend in backends.items()
        }
        assert results["thread"].shape == small.indices.shape
        np.testing.assert_array_equal(results["thread"], results["process"])

    def test_epsilon_validated_before_dispatch(self, small):
        backend = ProcessBackend(workers=2)
        try:
            with pytest.raises(ConfigError):
                parallel_scan(small, 3, 1.5, backend=backend)
            assert backend._executor is None  # no pool was started
        finally:
            backend.close()
