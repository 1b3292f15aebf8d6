"""Record the reference outputs the benchmark checks against.

Runs every operation of the seed pools once and writes ``refs/<workload>.json``.
The recorded files belong to the commit the benchmark was defined on; record
them again only on purpose, after a change that is meant to alter the numbers.

Usage: python3 perfbench/record_refs.py [workload ...]
"""
from __future__ import annotations

import json
import shutil
import sys

import workloads as wl


def record(name: str) -> None:
    workdir = wl.ROOT / ".perfbench" / "record"
    try:
        workload = wl.Workload(name, 0, workdir, wl.default_threads())
        refs = {}
        for op in workload.pool_ops():
            output = op.call()
            # Checks that need no reference, such as the 3-SE rule, must hold already.
            wrong = op.check(output, output)
            if wrong:
                raise SystemExit(f"{name} {op.key}: {wrong}")
            refs[op.key] = output
            print(f"{name} {op.key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.REFS.mkdir(exist_ok=True)
    with open(wl.REFS / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    wl.use_source_tree()
    for workload_name in sys.argv[1:] or wl.WORKLOADS:
        record(workload_name)
