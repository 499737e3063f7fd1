"""A small process that runs the cli-readme commands one at a time.

A child's peak resident set includes that of the process it was spawned
from (Linux carries the high-water mark across fork and exec), so CLI
processes spawned straight from a worker that has numpy loaded would all
report at least the worker's size.  The worker therefore starts this
launcher before it imports anything large and sends it one JSON command per
line; the launcher answers each with one JSON line (rc, stdout, stderr,
seconds) and, at end of input, with the peak resident set of its children.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time


class Launcher:
    """Client side, used by the worker."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, cmd: list[str]) -> tuple[int, str, str, float]:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["rc"], reply["stdout"], reply["stderr"], reply["seconds"]

    def close(self) -> float:
        """End the launcher; returns its children's peak resident set in MiB."""
        out, _ = self.proc.communicate(timeout=60)
        return json.loads(out.strip().splitlines()[-1])["children_maxrss_mb"]


def main() -> None:
    for line in sys.stdin:
        cmd = json.loads(line)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            rc, stdout, stderr = -1, "", "timeout after 120 s"
        seconds = time.perf_counter() - t0
        print(json.dumps({"rc": rc, "stdout": stdout, "stderr": stderr, "seconds": seconds}), flush=True)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps({"children_maxrss_mb": rss}), flush=True)


if __name__ == "__main__":
    main()
