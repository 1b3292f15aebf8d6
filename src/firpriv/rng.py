"""Counter-based random streams.

Every stochastic routine in the package draws from a stream addressed by
``(seed, *path)``.  The draws of a stream are a pure function of that
address, so replicates can be generated in any order (or in parallel) and
still reproduce a serial run exactly.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import ParameterError


def _nonnegative(value, what: str) -> int:
    value = int(value)
    if value < 0:
        raise ParameterError(f"{what} must be nonnegative, got {value}")
    return value


def _path_component(item) -> int:
    if isinstance(item, str):
        digest = hashlib.sha256(item.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    return _nonnegative(item, "stream path components")


def _sequence(seed: int, path) -> np.random.SeedSequence:
    key = tuple(_path_component(p) for p in path)
    return np.random.SeedSequence(entropy=_nonnegative(seed, "seed"), spawn_key=key)


def stream(seed: int, *path) -> np.random.Generator:
    """Return the generator addressed by ``(seed, *path)``.

    The same address always yields the same sequence of draws; distinct
    addresses yield statistically independent streams (Philox keyed through
    a spawn-key derived from the path).
    """
    return np.random.Generator(np.random.Philox(_sequence(seed, path)))


def derive(seed: int, *path) -> int:
    """Collapse ``(seed, *path)`` into a plain integer seed for nested APIs."""
    return int(_sequence(seed, path).generate_state(1, dtype=np.uint64)[0])
