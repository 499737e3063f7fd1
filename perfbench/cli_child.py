"""Run one congruence-lab CLI command under the tracer.

Usage: python perfbench/cli_child.py AGGREGATES_JSON SPANS_JSONL -- ARGV...

Behaves like ``python -m congruence_lab.cli ARGV...`` (same stdout, stderr
and exit code) and, at exit, writes the per-function aggregates and
counters to AGGREGATES_JSON and appends its spans to SPANS_JSONL.
"""

from __future__ import annotations

import json
import sys

import layers
from tracer import Tracer


def main() -> int:
    agg_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py AGGREGATES_JSON SPANS_JSONL -- ARGV...")
    import congruence_lab
    import congruence_lab.cli as cli

    tracer = Tracer(spans_path)
    tracer.install(congruence_lab, layers.hooks(congruence_lab.errors))
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        for name, value in layers.span_counters(tracer.spans).items():
            tracer.add(name, value)
        with open(agg_path, "w") as fh:
            json.dump({"aggs": tracer.aggregates(), "counters": tracer.counters()}, fh)
        tracer.write_spans(tracer.spans_path, process=" ".join(argv))


if __name__ == "__main__":
    sys.exit(main())
