"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised when a graph is structurally invalid or misused."""


class GraphFormatError(GraphError):
    """Raised when parsing a graph file that is malformed."""


class GeneratorError(ReproError):
    """Raised when a random-graph generator receives unsatisfiable knobs."""


class ConfigError(ReproError):
    """Raised when algorithm parameters are out of their valid domain."""


class IndexIntegrityError(ConfigError):
    """Raised when a persisted similarity index fails integrity checks
    (unreadable archive, missing fields, or checksum mismatch)."""


class StateTransitionError(ReproError):
    """Raised when a vertex state change violates the Figure 3 schema."""


class JobStateError(ReproError):
    """Raised when a scheduler job cannot make a requested state
    transition (pausing a finished job, say); the service answers 409."""


class SimulationError(ReproError):
    """Raised when the multicore simulator is driven inconsistently."""


class ExperimentError(ReproError):
    """Raised when a benchmark experiment is misconfigured."""


class BenchError(ExperimentError):
    """Raised when benchmark output (tables, charts) is malformed."""
