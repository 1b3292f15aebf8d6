"""Workload definitions: inputs made from the seed, operations and their checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  Operations drive ``firpriv.cli.main`` with the
argument lists a user would type, or call the public library functions.  An
operation's output is checked against the reference outputs recorded in
``refs/`` (see ``record_refs.py``), or against an analytic value.

Reference outputs exist for a fixed pool of program seeds per workload; the
workload seed picks which pool entries are visited and draws the tiny audit
instances, so the same workload seed gives the same inputs.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFS = Path(__file__).resolve().parent / "refs"

WORKLOADS = ("simulate-long", "design-sweep")

#: Program seeds with recorded reference outputs, per workload.
POOL_SEEDS = {"simulate-long": range(16), "design-sweep": range(8)}

#: Tolerances on recorded numbers: rounding drift passes, a wrong value does not.
#: The absolute one covers entries that are zero up to rounding.
REL_TOL = 1e-9
ABS_TOL = 1e-12

#: Replicates of the attack run by one ``simulate-long`` operation.
SIMULATE_REPLICATES = 20_000

#: Record lengths of the ``design-sweep`` configurations.
DESIGN_LENGTHS = (100, 500, 2000)

#: Reference scenarios of ``firpriv reproduce`` run by ``design-sweep``; the
#: ``random`` one takes seconds, so it is left out of a per-call latency workload.
REPRODUCE_SCENARIOS = ("deterministic", "rls")

#: Tiny ``privacy_audit`` instances per ``design-sweep`` cycle, by measurement-noise kind.
AUDITS_NOISELESS = 4
AUDITS_NOISY = 2

# The plant of the README configuration and of the reference scenarios.
_PLANT = """\
plant_type = rational
plant_num = 1, -0.2
plant_den = 1, -0.9, 0.17
plant_fir_order = 9
"""

# The README configuration, with the record length left open.
_README_BASE = _PLANT + """\
input_type = filtered
input_length = {length}
input_filter_num = 1
input_filter_den = 1, -0.95
sigma2 = 1.0
replicates = {replicates}
seed = 0
"""

#: design-sweep configurations: name -> (CLI command, design keys).
DESIGN_KINDS = {
    "output-ls": ("design-output", "design_type = output_capped\nadversary = ls\n"
                  "noise_order = 10\ngamma1 = 2.0\n"),
    "output-rls": ("design-output", "design_type = output_capped\nadversary = rls\n"
                   "rls_eta = 0.1\nrls_beta = 0.7\nnoise_order = 10\ngamma1 = 2.0\n"),
    "weighted": ("design-weighted", "design_type = output_weighted\nadversary = ls\n"
                 "noise_order = 10\ngamma2 = 0.5\n"),
    "input": ("design-input", "design_type = input_capped\nadversary = ls\n"
              "noise_order = 6\ngamma1 = 2.0\n"),
    "laplace": ("dp-laplace", "design_type = dp_laplace\ndp_epsilon = 1.0\n"
                "dp_lower = -1\ndp_upper = 1\n"),
    "gaussian": ("dp-gaussian", "design_type = dp_gaussian\ndp_epsilon = 1.0\n"
                 "dp_delta = 1e-5\ndp_lower = -1\ndp_upper = 1\n"),
}

# The random-input reference scenario with a Monte Carlo budget of 20 x 100 records.
RANDOM_CONFIG = _PLANT + """\
input_type = random_model
random_min_length = 10
random_max_length = 20
random_theta = 20
random_vartheta = 100
design_type = output_random
noise_order = 5
sigma2 = 0.1
gamma1 = 0.2
replicates = 100000
seed = 0
"""

SIMULATE_CONFIG = _README_BASE.format(length=2000, replicates=SIMULATE_REPLICATES) + (
    "design_type = output_capped\nadversary = ls\nnoise_order = 10\ngamma1 = 2.0\n"
)


def use_source_tree() -> None:
    """Import ``firpriv`` from the checkout's ``src`` rather than any installed copy."""
    src = ROOT / "src"
    if not (src / "firpriv" / "__init__.py").is_file():
        raise FileNotFoundError(f"no firpriv sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


class OpFailed(Exception):
    """An operation finished with an exit code other than the expected one."""


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``call`` does the work and returns its output.  ``check(output, ref)``
    returns a description of what is wrong with that output, or None; ``ref``
    is the recorded reference output under ``key``; operations checked
    against an analytic value instead have ``needs_ref`` false.
    """

    kind: str
    key: str
    call: Callable[[], object]
    check: Callable[[object, object], Optional[str]]
    replicates: int = 0
    needs_ref: bool = True


# -- comparison of recorded outputs -------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def same_text(got: str, want: str) -> bool:
    """Equal text, with the numbers in it equal up to ``REL_TOL``."""
    got_nums, want_nums = _NUMBER.findall(got), _NUMBER.findall(want)
    return (
        _NUMBER.sub("#", got) == _NUMBER.sub("#", want)
        and len(got_nums) == len(want_nums)
        and all(_close(float(g), float(w)) for g, w in zip(got_nums, want_nums))
    )


def _compare_values(got: Dict[str, float], want: Dict[str, float], keys) -> Optional[str]:
    for key in keys:
        if key not in got:
            return f"missing {key}"
        if not _close(got[key], want[key]):
            return f"{key} = {got[key]!r}, reference {want[key]!r}"
    return None


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- CLI driving --------------------------------------------------------------

def _run_cli(argv: List[str], ok_codes=(0,)):
    """Run ``firpriv.cli.main`` in-process; return its exit code and standard output."""
    from firpriv import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc not in ok_codes:
        raise OpFailed(f"firpriv {' '.join(argv)} exited {rc}")
    return rc, out.getvalue()


def _parse_pairs(text: str) -> Dict[str, float]:
    """Numeric ``key = value`` lines printed by the design and simulate commands."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            try:
                values[key] = float(value)
            except ValueError:
                pass
    return values


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- reproduce scenarios -----------------------------------------------------

def _reproduce_op(which: str, seed: int, workdir: Path) -> Op:
    out_dir = workdir / f"reproduce-{which}-{seed}"
    csv_path = out_dir / f"{which}.csv"

    def call():
        csv_path.unlink(missing_ok=True)
        rc, _ = _run_cli(["reproduce", "--which", which, "--seed", str(seed),
                          "--out-dir", str(out_dir)], ok_codes=(0, 2))
        with open(csv_path, encoding="utf-8", newline="") as handle:
            return {"exit_code": rc, "rows": list(csv.reader(handle))}

    def check(output, ref) -> Optional[str]:
        if output["exit_code"] != ref["exit_code"]:
            return f"exit code {output['exit_code']}, reference {ref['exit_code']}"
        if len(output["rows"]) != len(ref["rows"]):
            return f"{len(output['rows'])} rows, reference {len(ref['rows'])}"
        for got, want in zip(output["rows"], ref["rows"]):
            if len(got) != len(want) or not all(map(same_text, got, want)):
                return f"row {got} differs from reference {want}"
        return None

    return Op(f"reproduce-{which}", f"reproduce-{which}/{seed}", call, check)


# -- simulate-long ------------------------------------------------------------

def _simulate_op(seed: int, threads: int, config_path: str) -> Op:
    def call():
        _, text = _run_cli(["simulate", "--config", config_path, "--seed", str(seed),
                            "--threads", str(threads)])
        output = _parse_pairs(text)
        output.pop("runtime_s", None)  # a timing, not a result
        return output

    def check(output, ref) -> Optional[str]:
        wrong = _compare_values(output, ref, ["predicted_trace"])
        if wrong:
            return wrong
        # The input is one fixed Gaussian record, so the squared error has finite variance.
        gap = abs(output["empirical_trace"] - output["predicted_trace"])
        if not gap <= 3.0 * output["empirical_se"]:
            return (f"empirical_trace {output['empirical_trace']} lies {gap:.3g} from "
                    f"predicted_trace, beyond 3 SE ({3.0 * output['empirical_se']:.3g})")
        return None

    return Op("simulate", str(seed), call, check, replicates=SIMULATE_REPLICATES)


# -- design-sweep -------------------------------------------------------------

def _design_op(command: str, config: str, seed: int, config_path: str) -> Op:
    def call():
        return _parse_pairs(_run_cli([command, "--config", config_path, "--seed", str(seed)])[1])

    def check(output, ref) -> Optional[str]:
        keys = [k for k in ref if k.startswith("l_star_")] + ["predicted_trace"]
        if "scale" in ref:
            keys.append("scale")
        return _compare_values(output, ref, keys)

    # The CLI design commands simulate one throwaway attack replicate.
    return Op(config, f"{config}/{seed}", call, check, replicates=1)


def _audit_op(index: int, gen: random.Random, noisy: bool) -> Op:
    """A tiny exhaustive density audit of an epsilon-calibrated Laplace scale.

    With no measurement noise the audited loss equals epsilon exactly (the
    worst adjacent pair shifts every sample by the full box width); Gaussian
    measurement noise can only lower it.
    """
    from firpriv import privacy

    record = np.array([gen.uniform(-1.0, 1.0) for _ in range(3)])
    half_width = gen.uniform(0.2, 1.0)
    box = privacy.CoefficientBox(-half_width, half_width, 2)
    epsilon = gen.uniform(0.5, 2.0)
    sigma2 = gen.uniform(0.05, 0.5) if noisy else 0.0
    kind = "audit-noisy" if noisy else "audit-noiseless"

    def call():
        b = privacy.l1_sensitivity(record, box) / epsilon
        return privacy.privacy_audit(record, box, epsilon, b, sigma2=sigma2)

    def check(loss, ref) -> Optional[str]:
        ok = 0.0 < loss <= epsilon * (1.0 + 1e-6) if noisy else _close(loss, epsilon)
        return None if ok else f"audited loss {loss!r} against epsilon {epsilon!r}"

    return Op(kind, f"{kind}/{index}", call, check, needs_ref=False)


# -- workload assembly --------------------------------------------------------

class Workload:
    """The endless, seed-determined operation sequence of one workload."""

    def __init__(self, name: str, seed: int, workdir: Path, threads: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.threads = threads
        self.workdir = workdir
        self._gen = random.Random(f"{name}/{seed}")
        self._audits = 0
        # config name -> (CLI command, config path), in the fixed cycle order.
        self._configs: Dict[str, tuple] = {}
        workdir.mkdir(parents=True, exist_ok=True)
        if name == "simulate-long":
            self._add_config("simulate", "simulate", SIMULATE_CONFIG)
        else:
            for length in DESIGN_LENGTHS:
                for kind, (command, keys) in DESIGN_KINDS.items():
                    text = _README_BASE.format(length=length, replicates=100_000) + keys
                    self._add_config(f"{kind}-{length}", command, text)
            self._add_config("random", "design-random", RANDOM_CONFIG)
        from firpriv import parse_config

        for _, path in self._configs.values():
            parse_config(path)

    def _add_config(self, config: str, command: str, text: str) -> None:
        self._configs[config] = (command, _write(self.workdir / f"{config}.cfg", text))

    def _op(self, config: str, seed: int) -> Op:
        command, path = self._configs[config]
        if command == "simulate":
            return _simulate_op(seed, self.threads, path)
        return _design_op(command, config, seed, path)

    def pool_ops(self) -> List[Op]:
        """One operation per recorded reference: every pool seed of every configuration."""
        seeds = POOL_SEEDS[self.name]
        ops = [self._op(config, s) for config in self._configs for s in seeds]
        if self.name == "design-sweep":
            ops += [_reproduce_op(which, s, self.workdir)
                    for which in REPRODUCE_SCENARIOS for s in seeds]
        return ops

    def groups(self):
        """Endless groups of operations; a run stops only between groups.

        A ``simulate-long`` group is one simulation; the pool seeds are visited
        in a shuffled order.  A ``design-sweep`` group is one cycle over every
        configuration, reproduce scenario and audit kind, each with a pool
        seed drawn at random, so each run has the same operation mix.  The
        cycle order is fixed: it decides which large temporaries coexist, and
        so the process's peak resident set.
        """
        seeds = list(POOL_SEEDS[self.name])
        while self.name == "simulate-long":
            self._gen.shuffle(seeds)
            for s in seeds:
                yield [self._op("simulate", s)]
        while True:
            ops = [self._op(config, self._gen.choice(seeds)) for config in self._configs]
            ops += [_reproduce_op(which, self._gen.choice(seeds), self.workdir)
                    for which in REPRODUCE_SCENARIOS]
            for noisy, count in ((False, AUDITS_NOISELESS), (True, AUDITS_NOISY)):
                for _ in range(count):
                    ops.append(_audit_op(self._audits, self._gen, noisy))
                    self._audits += 1
            yield ops


def default_threads() -> int:
    """The machine's usable cores, as ``$(nproc)`` reports them."""
    return len(os.sched_getaffinity(0))
