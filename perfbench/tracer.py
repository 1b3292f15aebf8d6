"""Outside-in tracer for the firpriv layers.

The tracer wraps every public function of the layer modules at every
``firpriv.*`` binding.  Rebinding only the defining module would miss calls,
because the package imports names across modules (``from .lti import
build_regressor``), so each module holds its own reference to the function.
Generators returned by ``rng.stream`` are wrapped in a proxy that records one
``rng.draw`` span per sampling call, with the number of variates drawn.

Spans are kept in memory and aggregated or written out once the run ends.
The current span lives in a context variable; the ``ThreadPoolExecutor``
binding of every firpriv module is replaced by one that runs each task in a
copy of the submitting context, so spans recorded on pool threads name the
span that caused them as parent.
"""
from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: The package's modules, in the order of the layer list.
LAYERS = ("cli", "config", "experiments", "design", "estimators", "lti", "privacy", "rng")

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


@dataclass
class Span:
    """One call at a layer boundary."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    failed: bool = False
    attrs: Dict[str, float] = field(default_factory=dict)
    token: Optional[contextvars.Token] = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Children running concurrently on pool threads overlap one another, so
    their durations cannot simply be summed.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    run_lo = run_hi = None
    for a, b in clipped:
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: Dict[int, list] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


class _ContextPool(concurrent.futures.ThreadPoolExecutor):
    """Thread pool that runs every task in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class _TimedGenerator:
    """Proxy of a ``numpy.random.Generator`` that times every sampling call."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen: np.random.Generator, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name.startswith("_") or not callable(attr):
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            span = tracer.open("rng.draw")
            try:
                out = attr(*args, **kwargs)
            except BaseException:
                tracer.close(span, failed=True)
                raise
            span.attrs["draws"] = float(np.size(out)) if out is not None else 0.0
            tracer.close(span)
            return out

        return draw


def _result_attrs(name: str, result) -> Dict[str, float]:
    """Counters read from a layer's return value."""
    if name == "lti.build_filter_matrix":
        return {"bytes": float(result.matrix.nbytes)}
    if name == "design.estimate_expected_quadratic":
        return {"redraws": float(result.redraws), "samples": float(result.samples)}
    return {}


class Tracer:
    """Records spans around every public layer function of ``firpriv``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = iter(range(1, sys.maxsize))
        self._id_lock = threading.Lock()
        self._patches: list = []
        self.span_names = {"rng.draw"}

    # -- span bookkeeping -------------------------------------------------
    def open(self, name: str) -> Span:
        parent = _current.get()
        with self._id_lock:
            span_id = next(self._ids)
        span = Span(
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start=self.clock(),
            thread=threading.get_ident(),
        )
        span.token = _current.set(span)
        return span

    def close(self, span: Span, failed: bool = False) -> None:
        span.end = self.clock()
        span.failed = failed
        _current.reset(span.token)
        span.token = None
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, failed=True)
                raise
            span.attrs.update(_result_attrs(name, result))
            self.close(span)
            return _TimedGenerator(result, self) if name == "rng.stream" else result

        return traced

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Rebind every public layer function, at every ``firpriv.*`` binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements = {id(concurrent.futures.ThreadPoolExecutor): _ContextPool}
        for layer in LAYERS:
            module = importlib.import_module(f"firpriv.{layer}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    replacements[id(value)] = self._wrap(f"{layer}.{attr}", value)
                    self.span_names.add(f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "firpriv" or mod_name.startswith("firpriv.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                new = replacements.get(id(value))
                if new is not None:
                    self._patches.append((namespace, attr, value))
                    namespace[attr] = new

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patches):
            namespace[attr] = value
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -----------------------------------------------------------
    def write(self, path) -> None:
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.span_id, "parent": s.parent_id, "name": s.name,
                    "start": s.start, "end": s.end, "thread": s.thread,
                    "failed": s.failed, **s.attrs,
                }) + "\n")


def _percentile_ms(durations: List[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per-span-name counters: calls, failed, self_s, busy_s, p50_ms, p90_ms and attrs."""
    own = self_times(spans)
    groups: Dict[str, list] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span)
    out: Dict[str, Dict[str, float]] = {}
    for name, group in groups.items():
        durations = [s.duration for s in group]
        stats = {
            "calls": float(len(group)),
            "failed": float(sum(s.failed for s in group)),
            "self_s": float(sum(own[s.span_id] for s in group)),
            "busy_s": float(sum(durations)),
            "p50_ms": _percentile_ms(durations, 50),
            "p90_ms": _percentile_ms(durations, 90),
        }
        for s in group:
            for key, value in s.attrs.items():
                stats[key] = stats.get(key, 0.0) + value
        out[name] = stats
    return out
