"""The designs recorded for the ``design-sweep`` benchmark, checked as a test.

Every operation of the workload's seed pool (168 design, calibration and
``reproduce`` calls) runs once and must pass its own check against
``perfbench/refs/design-sweep.json``, so a change that moves a recorded
design, such as a sign flip of ``l_star``, fails here and not only in the
benchmark.  The benchmark's files are imported, never written.
"""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads as wl  # noqa: E402


def test_design_sweep_pool_matches_the_recorded_references(tmp_path):
    refs = wl.load_refs("design-sweep")
    ops = wl.Workload("design-sweep", 0, tmp_path, threads=1).pool_ops()
    assert len(ops) == 168
    assert sorted(op.key for op in ops) == sorted(refs)
    wrong = [f"{op.key}: {w}" for op in ops if (w := op.check(op.call(), refs[op.key]))]
    assert not wrong, "\n".join(wrong)
