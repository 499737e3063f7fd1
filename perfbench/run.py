"""congruence-lab benchmark: one workload, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs timed passes of the workload, each in a fresh worker interpreter, until
about S seconds have gone by (at least MIN_PASSES of them), checks every
pass's outputs against oracles, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, as
medians over the passes.  With --trace 1 untraced and traced passes
alternate and the metrics are the per-layer ones.  The line before it
records the machine, versions, seed, budget and every sample.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

MIN_PASSES = 3  # untraced passes behind each median
HARD_LIMIT_S = 150.0  # start no pass after this; a run must end within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("accuracy_digits", "digits"),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CONGRUENCE_LAB_BUDGET", None)  # every pass states its budget
    # numpy's BLAS-backed dot (np.convolve) gained nothing from a second thread
    # on a 2-vCPU VM, and waking that thread stalled a pass by up to ~1 s at random.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_worker(args, traced: bool, spans_path: str, time_left: float) -> dict:
    """One worker pass; adds setup_s, the time from spawn to ``ready``."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    if traced:
        cmd += ["--spans", spans_path]
    if workloads.WORKLOADS[args.workload].uses_children:
        cmd.append("--launcher")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(time_left, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or rc != 0 or not lines:
        return {"ok": False, "traced": traced, "rc": rc}
    result = json.loads(lines[-1])
    result.update(ok=True, traced=traced, setup_s=t_ready - t0)
    return result


def environment(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "seed": args.seed,
        "budget": workloads.BUDGET,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full", help="smoke: tiny inputs")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "congruence_lab", "__init__.py")):
        print(f"perfbench: no congruence_lab sources under {SRC}", file=sys.stderr)
        return 2
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        if os.path.exists(spans_path):
            os.remove(spans_path)

    start = time.perf_counter()
    samples: list[dict] = []
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        elapsed = time.perf_counter() - start
        samples.append(run_worker(args, traced, spans_path, HARD_LIMIT_S + 25.0 - elapsed))
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(samples)
        untraced = sum(1 for s in samples if not s["traced"])
        enough = untraced >= (1 if args.trace else MIN_PASSES) and len(samples) >= 2 * args.trace
        if (enough and elapsed + per_pass > args.seconds) or elapsed + per_pass > HARD_LIMIT_S:
            break

    done = [s for s in samples if s["ok"]]
    if not done:
        print("perfbench: no worker finished a pass", file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in done) + sum(1 for s in samples if not s["ok"])
    failed = sum(s["failed"] for s in done) + sum(1 for s in samples if not s["ok"])
    plain = [s for s in done if not s["traced"]]
    traced_done = [s for s in done if s["traced"]]

    if args.trace:
        metrics = per_layer(plain, traced_done)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {
            "wall_s": median([s["wall_s"] for s in plain]),
            "setup_s": median([s["setup_s"] for s in plain]),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
            "accuracy_digits": min(s["accuracy_digits"] for s in plain),
        }
        units = dict(END_TO_END)

    info = {
        "env": environment(args),
        "passes": len(plain),
        "traced_passes": len(traced_done),
        "fail_ratio": failed / attempted if attempted else 1.0,
        "digests": sorted({s["digest"] for s in done}),
        "samples": {
            k: [s.get(k) for s in samples]
            for k in ("traced", "setup_s", "wall_s", "peak_rss_mb", "accuracy_digits", "attempted", "failed")
        },
        "notes": sorted({n for s in done for n in s["notes"]})[:20],
    }
    result = {
        "correct": failed == 0 and len(info["digests"]) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Median over traced passes of each derived metric, plus the untraced
    per-verb process times and the tracing overhead."""
    derived = [layers.derive(s["aggs"], s["counters"], s["stats"]) for s in traced]
    out = {name: median([d[name] for d in derived]) for name in derived[0]} if derived else {}
    for verb in layers.CLI_VERBS:
        out[f"cli.process_s.{verb}"] = median([s["stats"].get("process_s", {}).get(verb, 0.0) for s in plain])
    plain_wall = median([s["wall_s"] for s in plain])
    out["trace.overhead"] = median([s["wall_s"] for s in traced]) / plain_wall if traced and plain_wall else 0.0
    return {name: out.get(name, 0.0) for name, _, _ in layers.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
