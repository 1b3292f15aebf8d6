"""Addressed random streams.

Every stochastic routine in the package draws from a stream addressed by
``(seed, *path)`` through a ``SeedSequence`` spawn key.  The draws of a
stream are a pure function of that address, so replicates can be generated
in any order (or in parallel) and still reproduce a serial run exactly.
:func:`stream` runs on Philox; :func:`replicate_stream` runs on SFC64, which
draws normals faster, for the bulk of the fixed-input attack's noise.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

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


def replicate_stream(seed: int, *path) -> np.random.Generator:
    """Return the SFC64 generator addressed by ``(seed, *path)``, as :func:`stream` does."""
    return np.random.Generator(np.random.SFC64(_sequence(seed, path)))


def derive(seed: int, *path) -> int:
    """Collapse ``(seed, *path)`` into a plain integer seed for nested APIs."""
    return int(_sequence(seed, path).generate_state(1, dtype=np.uint64)[0])


def _run_chunks(worker, total: int, threads, size: int):
    """Map ``worker(index, count)`` over units of ``size``; results come in unit order."""
    plan = [(idx, min(size, total - idx * size)) for idx in range((total + size - 1) // size)]
    if threads is not None and threads > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda spec: worker(*spec), plan))
    return [worker(*spec) for spec in plan]
