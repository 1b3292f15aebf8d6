"""firpriv benchmark: one workload, one closed-loop client, one process.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it runs the workload untraced for half
the time, replays the same operations under the outside-in tracer and reports
the per-layer metrics, including the tracing overhead.  Every output is
checked against the recorded references.  A run record with the machine,
library versions, BLAS build and threading, seeds, sample counts and spread is
written under ``.perfbench/runs/``; the last line of standard output is the
result as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import workloads as wl

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Seconds a set-up probe may take before the run is abandoned.
PROBE_TIMEOUT_S = 60

#: Mismatches quoted in the run record.
MAX_QUOTED = 5

# Per-layer predictions, written before measuring: (span, its per-layer
# metrics, the end-to-end metrics it should move, the workloads on which it
# should move them, the workloads on which it should move nothing).
# A traced run fails if a span records no call on a workload it should move.
PREDICTIONS = (
    ("rng.draw", ("rng.draw_s", "rng.draws"),
     ("replicates_per_s", "call_p50_ms"), ("simulate-long",), ("design-sweep",)),
    ("lti.build_filter_matrix",
     ("lti.build_filter_matrix.calls", "lti.build_filter_matrix.self_s",
      "lti.build_filter_matrix.bytes"),
     ("replicates_per_s", "peak_rss_mb", "call_p90_ms"), ("simulate-long", "design-sweep"), ()),
    ("experiments.attack_simulation", ("experiments.attack_simulation.self_s",),
     ("replicates_per_s", "peak_rss_mb", "call_p90_ms"), ("simulate-long", "design-sweep"), ()),
    ("design.estimate_expected_quadratic",
     ("design.estimate_expected_quadratic.self_s",
      "design.estimate_expected_quadratic.redraw_ratio"),
     ("call_p90_ms",), ("design-sweep",), ("simulate-long",)),
    ("experiments.reproduce", ("experiments.reproduce.self_s",),
     ("call_p90_ms",), ("design-sweep",), ("simulate-long",)),
    *(
        (f"estimators.{fn}", tuple(f"estimators.{fn}.{k}" for k in
                                   ("calls", "self_s", "p50_ms", "p90_ms", "failed")),
         ("calls_per_s", "call_p50_ms", "call_p90_ms"), ("design-sweep",), ("simulate-long",))
        for fn in ("rls_gain", "rls_trace_quadratic", "ls_trace_quadratic")
    ),
    *(
        (f"privacy.{fn}", tuple(f"privacy.{fn}.{k}" for k in ("calls", "self_s", "failed")),
         ("ops_ok_share", "call_p90_ms"), ("design-sweep",), ("simulate-long",))
        for fn in ("privacy_audit", "gaussian_mechanism", "laplace_mechanism")
    ),
    ("config.parse_config", ("config.parse_config.self_s",), ("setup_s",), wl.WORKLOADS, ()),
    ("cli.main", ("cli.main.self_s",), ("setup_s",), wl.WORKLOADS, ()),
)


@dataclass
class Record:
    """The outcome of one operation."""

    op: wl.Op
    seconds: float
    output: object = None
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclass
class Phase:
    records: list
    wall_s: float


def _execute(op: wl.Op) -> Record:
    start = time.perf_counter()
    try:
        output = op.call()
    except Exception as exc:  # every failure counts, whatever its type
        return Record(op, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Record(op, time.perf_counter() - start, output=output)


def run_phase(groups, budget_s: float) -> Phase:
    """Run whole operation groups until ``budget_s`` has passed."""
    records = []
    start = time.perf_counter()
    for group in groups:
        records.extend(_execute(op) for op in group)
        if time.perf_counter() - start >= budget_s:
            break
    return Phase(records, time.perf_counter() - start)


def replay(ops) -> Phase:
    start = time.perf_counter()
    records = [_execute(op) for op in ops]
    return Phase(records, time.perf_counter() - start)


def setup_probe(name: str, seed: int, workdir: Path) -> dict:
    """Time one fresh interpreter from spawn until the workload's inputs are ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("probe.py")), name, str(seed), str(workdir)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=PROBE_TIMEOUT_S) != 0 or not line:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return {"setup_s": ready_s, **json.loads(line)}


def spread(values) -> dict:
    """Sample count and quartiles of a list of numbers."""
    if not values:
        return {"n": 0}
    p25, p50, p75, p90 = np.percentile(values, [25, 50, 75, 90])
    return {"n": len(values), "p25": p25, "p50": p50, "p75": p75, "p90": p90,
            "min": min(values), "max": max(values)}


def check_outputs(records, refs) -> list:
    mismatches = []
    for rec in records:
        if rec.failed:
            continue
        ref = refs.get(rec.op.key)
        if ref is None and rec.op.needs_ref:
            wrong = "no recorded reference"
        else:
            wrong = rec.op.check(rec.output, ref)
        if wrong:
            mismatches.append(f"{rec.op.kind} {rec.op.key}: {wrong}")
    return mismatches


def end_to_end_metrics(phase: Phase, probes: list) -> dict:
    durations = [r.seconds for r in phase.records]
    attempted = len(phase.records)
    ok = [r for r in phase.records if not r.failed]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "calls_per_s": attempted / phase.wall_s,
        "call_p50_ms": float(np.percentile(durations, 50)) * 1e3,
        "call_p90_ms": float(np.percentile(durations, 90)) * 1e3,
        "replicates_per_s": sum(r.op.replicates for r in ok) / phase.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_share": len(ok) / attempted,
    }


def per_layer_metrics(names, stats: dict, known_spans: set, extra: dict) -> dict:
    """Resolve ``<span>.<stat>`` metric names against the aggregated spans."""
    draws = stats.get("rng.draw", {})
    quad = stats.get("design.estimate_expected_quadratic", {})
    derived = {
        "rng.draw_s": draws.get("busy_s", 0.0),
        "rng.draws": draws.get("draws", 0.0),
        "design.estimate_expected_quadratic.redraw_ratio":
            quad.get("redraws", 0.0) / quad["samples"] if quad.get("samples") else 0.0,
        **extra,
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
            continue
        span, _, key = name.rpartition(".")
        if span not in known_spans:
            raise SystemExit(f"per-layer metric {name} names no traced span")
        values[name] = stats.get(span, {}).get(key, 0.0)
    return values


def check_predictions(workload: str, stats: dict) -> None:
    silent = [span for span, _, _, moves_on, _ in PREDICTIONS
              if workload in moves_on and not stats.get(span, {}).get("calls")]
    if silent:
        raise SystemExit(f"{workload}: predicted spans recorded no calls: {', '.join(silent)}")


def environment(args, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "nproc": wl.default_threads(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "threads": threads,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _op_samples(records) -> dict:
    kinds = {}
    for rec in records:
        kinds.setdefault(rec.op.kind, []).append(rec.seconds * 1e3)
    return {
        "call_ms": spread([r.seconds * 1e3 for r in records]),
        "call_ms_by_kind": {kind: spread(ms) for kind, ms in sorted(kinds.items())},
    }


def _failures(records) -> dict:
    failed = {}
    for rec in records:
        if rec.failed:
            entry = failed.setdefault(rec.op.kind, {"count": 0, "first_error": rec.error})
            entry["count"] += 1
    return failed


def run(args, spec: dict, workdir: Path) -> dict:
    threads = wl.default_threads()
    stem = _stem(args)
    probes = [setup_probe(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES)]
    refs = wl.load_refs(args.workload)
    groups = wl.Workload(args.workload, args.seed, workdir, threads).groups()
    record = {"environment": environment(args, threads),
              "setup": {"probes": probes, "setup_s": spread([p["setup_s"] for p in probes])}}

    if not args.trace:
        phase = run_phase(groups, args.seconds)
        records = phase.records
        values = end_to_end_metrics(phase, probes)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        record["samples"] = _op_samples(records)
    else:
        from tracer import Tracer, aggregate

        untraced = run_phase(groups, args.seconds / 2.0)
        tracer = Tracer()
        with tracer:
            traced = replay([r.op for r in untraced.records])
        records = untraced.records + traced.records
        stats = aggregate(tracer.spans)
        check_predictions(args.workload, stats)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer_metrics(units, stats, tracer.span_names, {
            "setup.import_s": statistics.median(p["import_s"] for p in probes),
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
        })
        record["samples"] = {"untraced": _op_samples(untraced.records),
                             "traced": _op_samples(traced.records),
                             "untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s}
        record["spans"] = stats
        record["predictions"] = [
            {"span": s, "metrics": m, "moves": e, "moves_on": on, "unchanged_on": off}
            for s, m, e, on, off in PREDICTIONS
        ]
        record["spans_file"] = str(_runs_dir() / f"{stem}.spans.jsonl")
        tracer.write(record["spans_file"])

    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"metrics not measured: {', '.join(missing)}")
    mismatches = check_outputs(records, refs)
    failed = sum(r.failed for r in records)
    result = {
        "correct": not mismatches and failed < len(records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record.update({
        "ops_failed_share": failed / len(records),
        "failures": _failures(records),
        "mismatches": {"count": len(mismatches), "first": mismatches[:MAX_QUOTED]},
        "result": result,
    })
    with open(_runs_dir() / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    return result


def _runs_dir() -> Path:
    path = wl.ROOT / ".perfbench" / "runs"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _stem(args) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wl.use_source_tree()
        with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    workdir = wl.ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        result = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
