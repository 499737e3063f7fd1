"""One timed pass of one workload in a fresh interpreter.

Usage: python perfbench/worker.py --workload NAME --seed N [--size smoke]
                                  [--spans SPANS_JSONL] [--launcher]

Prints ``ready`` once the library is imported and every weight kind the
workload uses has been evaluated once, then runs the timed pass, checks its
outputs against the oracles and prints one JSON line with the results.
With ``--spans`` the pass runs under the tracer and its spans are appended
to SPANS_JSONL.  With ``--launcher`` (workloads that spawn CLI processes)
a small launcher process is started first, before numpy is imported, and
the peak resident set reported is that of the launcher's children.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import layers
from launcher import Launcher
from tracer import NullTracer, Tracer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=["full", "smoke"])
    ap.add_argument("--spans", default=None)
    ap.add_argument("--launcher", action="store_true")
    args = ap.parse_args()
    launcher = Launcher() if args.launcher else None

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    wl.launcher = launcher
    wl.import_library()
    tracer = NullTracer()
    if args.spans:
        tracer = Tracer(args.spans)
        tracer.install(wl.lib.package, layers.hooks(wl.lib.errors))
    with tracer.span("setup"):
        wl.setup()
    print("ready", flush=True)

    t0 = time.perf_counter()
    outputs = wl.run(tracer)
    wall = time.perf_counter() - t0
    if launcher is not None:
        rss_mb = launcher.close()
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.spans:
        tracer.uninstall()

    checks = wl.check(outputs)
    result = {
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "accuracy_digits": checks.digits,
        "stats": {**wl.stats, **checks.stats},
        "digest": workloads.digest(outputs),
        "notes": checks.notes + [f"raised: {e}" for e in wl.errors[:10]],
    }
    if args.spans:
        for name, value in layers.span_counters(tracer.spans).items():
            tracer.add(name, value)
        result["aggs"] = tracer.aggregates()
        result["counters"] = tracer.counters()
        tracer.write_spans(tracer.spans_path, process=f"worker-{os.getpid()}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
