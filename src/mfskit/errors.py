"""Exception types and resource-limit configuration shared by all modules."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields


class MfskitError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(MfskitError):
    """Structurally invalid graph, label, or walk query."""


class GraphFormatError(GraphError):
    """Malformed graph file; message carries a line or field diagnostic."""


class LabelingConflictError(GraphError):
    """Sibling-complement constraints cannot be satisfied simultaneously."""


class DimacsError(MfskitError):
    """Malformed or rejected CNF input; message carries a line diagnostic."""


class ReductionError(MfskitError):
    """Invalid input to a reduction post-processing step."""


class ProtocolError(MfskitError):
    """Protocol session cannot proceed (e.g. the challenge walk dead-ends)."""


class ResourceLimitError(MfskitError):
    """A computation was refused for exceeding a configured limit, or lost
    a worker process."""


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0  # rejected below with the same message
    if value < 1:
        raise MfskitError(f"{name} must be a positive integer, got {raw!r}")
    return value


@dataclass(frozen=True)
class Limits:
    """Explosion guards for the exponential search and enumeration paths.

    `Limits()` holds the defaults.  `Limits.from_env()` overrides them with
    the environment variables named after each field (MFSKIT_MAX_WALKS
    etc.); the CLI reads them that way each time it builds its limits, so
    importing the package never reads the environment.
    """

    max_walks: int = 2**26
    max_sequences: int = 2**26
    max_exact_rounds: int = 12
    max_brute_vertices: int = 22

    @classmethod
    def from_env(cls) -> "Limits":
        return cls(**{
            f.name: _env_int(f"MFSKIT_{f.name.upper()}", f.default)
            for f in fields(cls)
        })


DEFAULT_LIMITS = Limits()
