#!/usr/bin/env python3
"""Builds the benchmark runner from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The runner is compiled (with the library
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
The run context, the runner's report and the result files go to
.bench_out/. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). If the build or the run fails, the script exits non-zero
without printing that line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig5_tcio", "fig5_ocio", "art_ckpt", "delegate_churn")
RUNNER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the runner; returns its path."""
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir, *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring the runner failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "perfbench_runner",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
        fail("building the runner failed")
    return os.path.join(build_dir, "perfbench_runner")


def source_version():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    runner = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(out_dir, stem + ".json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", result_path]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, stem + "-spans.json")]

    context = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "commit": source_version(),
    }
    # The library reads TCIO_* switches from the environment; the benchmark
    # pins every one of them in code instead.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TCIO_")}
    sys.stdout.flush()
    try:
        res = subprocess.run(cmd, env=env, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s")
    if res.returncode != 0 or not os.path.exists(result_path):
        fail(f"runner exited with code {res.returncode}")

    with open(result_path) as f:
        result = json.load(f)
    context["build_type"] = result["build_type"]
    context["compiler"] = result["compiler"]
    result["context"] = context
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1)

    metrics = result["metrics"]
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        fail("runner metrics differ from BENCHMARK.json: "
             f"{sorted(set(declared) ^ set(metrics))}")
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
