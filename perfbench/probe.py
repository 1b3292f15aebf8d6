"""Set-up probe: a fresh interpreter that imports firpriv and readies a workload's inputs.

Prints one JSON line when the inputs are ready and exits; the caller times
the probe from spawn to that line, so interpreter start-up is included.

Usage: python3 perfbench/probe.py <workload> <seed> <workdir>
"""
import json
import sys
import time
from pathlib import Path

import workloads as wl


def main(argv) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    wl.use_source_tree()
    start = time.perf_counter()
    import firpriv.cli  # noqa: F401  (the import every CLI call pays)

    imported = time.perf_counter()
    wl.Workload(name, seed, workdir, wl.default_threads())
    ready = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "prepare_s": ready - imported}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
