"""Tests of the tracer's self-time arithmetic and installation, and of the
benchmark definition.

Run with: python3 -m pytest perfbench/test_perfbench.py
"""
import itertools
import json

import pytest

import run
import workloads as wl
from tracer import Span, Tracer, _ContextPool, aggregate, covered_length, self_times


def _span(span_id, parent, name, start, end, thread=0, failed=False):
    return Span(span_id=span_id, parent_id=parent, name=name, start=start, end=end,
                thread=thread, failed=failed)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (2, 6), (8, 12)], 0, 10) == 7
    assert covered_length([(1, 2), (2, 3)], 0, 10) == 2
    assert covered_length([(-5, -1), (11, 12)], 0, 10) == 0
    assert covered_length([], 0, 10) == 0


def test_self_time_with_concurrent_children_on_pool_threads():
    # A parent on the main thread fans out to three children on two pool
    # threads; A and B overlap in time, C outlives the parent, D nests in A.
    spans = [
        _span(1, None, "experiments.attack_simulation", 0.0, 10.0, thread=0),
        _span(2, 1, "rng.draw", 1.0, 4.0, thread=1),
        _span(3, 1, "rng.draw", 2.0, 6.0, thread=2),
        _span(4, 1, "rng.draw", 8.0, 12.0, thread=1),
        _span(5, 2, "lti.build_regressor", 2.0, 3.0, thread=1),
    ]
    own = self_times(spans)
    # Children cover [1, 6] and [8, 10] of the parent: 7 of its 10 seconds.
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(1.0)

    stats = aggregate(spans)
    assert stats["rng.draw"]["calls"] == 3
    assert stats["rng.draw"]["self_s"] == pytest.approx(10.0)
    # Busy time sums the overlapping children; it exceeds their union.
    assert stats["rng.draw"]["busy_s"] == pytest.approx(11.0)
    assert stats["experiments.attack_simulation"]["self_s"] == pytest.approx(3.0)


def test_failed_calls_are_counted():
    spans = [_span(1, None, "privacy.privacy_audit", 0.0, 1.0, failed=True),
             _span(2, None, "privacy.privacy_audit", 1.0, 3.0)]
    stats = aggregate(spans)["privacy.privacy_audit"]
    assert (stats["calls"], stats["failed"]) == (2, 1)
    assert stats["p50_ms"] == pytest.approx(1500.0)


def test_pool_tasks_name_the_submitting_span_as_parent():
    clock = itertools.count()
    tracer = Tracer(clock=lambda: float(next(clock)))

    def task(k):
        tracer.close(tracer.open("child"))
        return k

    parent = tracer.open("parent")
    with _ContextPool(max_workers=2) as pool:
        assert list(pool.map(task, range(4))) == [0, 1, 2, 3]
    tracer.close(parent)
    children = [s for s in tracer.spans if s.name == "child"]
    assert len(children) == 4
    assert {s.parent_id for s in children} == {parent.span_id}
    assert all(parent.start < s.start and s.end < parent.end for s in children)


def test_install_wraps_every_binding_and_uninstall_restores():
    wl.use_source_tree()
    import firpriv
    from firpriv import experiments, lti, rng

    original = lti.build_regressor
    tracer = Tracer()
    with tracer:
        assert experiments.build_regressor is firpriv.build_regressor is lti.build_regressor
        assert lti.build_regressor is not original
        firpriv.build_regressor([1.0, 2.0, 3.0], 2)
        gen = rng.stream(0, "test")
        gen.standard_normal((4, 5))
    assert lti.build_regressor is original
    assert experiments.build_regressor is original
    assert firpriv.build_regressor is original
    stats = aggregate(tracer.spans)
    assert stats["lti.build_regressor"]["calls"] == 1
    assert stats["rng.stream"]["calls"] == 1
    assert stats["rng.draw"]["draws"] == 20
    assert "lti.build_filter_matrix" in tracer.span_names


def test_predictions_name_listed_metrics_and_workloads():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    for span, metrics, moves, moves_on, unchanged_on in run.PREDICTIONS:
        assert set(metrics) <= per_layer, span
        assert set(moves) <= end_to_end, span
        assert set(moves_on) | set(unchanged_on) <= set(wl.WORKLOADS), span
        assert not set(moves_on) & set(unchanged_on), span
