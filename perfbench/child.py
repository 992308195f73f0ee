"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload orbit --seed 1 --mode pass --trace 0 --tmp DIR

``--mode setup`` stops after set-up (import of origamis, input generation,
warm-up) and reports only its time.  ``--trace 1`` wraps the library's
functions before the job list runs and adds the per-layer report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

from speed import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, Run

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), default="pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()

    probe = SpeedProbe()
    probe.start()
    try:
        spent = probe.spent
        t0 = perf_counter()
        import origamis

        with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
            pinned = json.load(fh)
        workload = WORKLOADS[args.workload](origamis, args.seed, pinned, args.tmp)
        workload.warm_up(Run())
        t1 = perf_counter()
        setup_work = t1 - t0 - (probe.spent - spent)
        out = {"version": origamis.__version__, "raw_setup_s": setup_work}
        run = None
        tracer = None
        if args.mode == "pass":
            tracer = Tracer() if args.trace else None
            if tracer is not None:
                tracer.install()
            run = Run(tracer, probe)
            workload.run(run)
    finally:
        probe.stop()
    out["setup_s"] = probe.reference(t0, t1, setup_work)
    if run is not None:
        out.update(
            run.summary(),
            attempted=run.attempted,
            failed=run.failed,
            failures=run.failures,
            extra=run.extra,
            traced=tracer is not None,
        )
    if tracer is not None:
        out["rows"] = tracer.table()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
