"""Time one cold set-up in a fresh process and print it as JSON.

    python3 perfbench/setup_probe.py <workload> <seed> [--run]

Set-up runs from the first ``repro`` import through the cluster build
(protocol compile included) and the record load, up to the first op.  It
needs a fresh interpreter: imports and compiled engine classes are cached
for the life of a process.  With ``--run`` the process then runs the
workload once and also reports its peak resident memory, which is thus
free of the benchmark's own bookkeeping and of the checker.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.scenarios import WORKLOADS

    spec = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2]) * spec.inputs  # the run's first input set
    cluster, workload, _initial = spec.build(seed)
    result = {"setup_s": time.perf_counter() - START}
    if "--run" in sys.argv[3:]:
        if workload is None:
            spec.run_once(seed)  # run_check builds its own clusters
        else:
            spec.drive(cluster, workload)
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
