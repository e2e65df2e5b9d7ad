#!/usr/bin/env python3
"""A/B wall-clock comparison of two commits on one perfbench workload.

    python3 scripts/perf_ab.py --base COMMIT --new COMMIT \\
        --workload art_ckpt --seed 1 --pairs 10 --seconds 20 \\
        [--scratch DIR] [--metric wall_s] [--min-wins N] [--traced-check]

Run it from the repository root. Each side is exported with `git archive`
into its own directory under --scratch (reused when it already holds that
tree), and `python3 perfbench/run.py` in that directory builds and
runs the side's own runner, exactly as a fresh checkout would. The runs
alternate in pairs, the first side of each pair alternating too, so slow
drift of the host loads both sides alike.

`--new WORKTREE` compares the tracked files as they are now: it takes the
commit `git stash create` makes of them (new files must be `git add`ed).

Printed per end-to-end metric: the pairs the new side wins, both medians
and quartiles, and the median gap against the base's interquartile range.
The verdict line calls it a gain when the new side wins at least --min-wins
pairs and the median gap exceeds the base's interquartile range. The last
line is one JSON object with the same figures. Virtual metrics
(units ending in `_virt` or `_model`; with --traced-check also every
traced count and byte total) are deterministic: if any differs between the
two sides, the script says which and exits 2. A build or run failure exits
1.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg, code=1):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(code)


def git(*args):
    res = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                         text=True)
    if res.returncode != 0:
        fail(f"git {' '.join(args)}: {res.stderr.strip()}")
    return res.stdout.strip()


def resolve(rev):
    if rev == "WORKTREE":
        # An empty answer means the tracked files equal HEAD.
        rev = git("stash", "create") or "HEAD"
    return git("rev-parse", "--verify", rev + "^{commit}")


def export(commit, scratch):
    """The directory holding `commit`'s tree, exported once. It is named
    after the tree, so commits of the same files (`git stash create` makes
    a new one on every call) share one export and one build."""
    tree = os.path.join(scratch, git("rev-parse", commit + "^{tree}")[:12])
    stamp = os.path.join(tree, ".perf_ab_commit")
    if os.path.exists(stamp):
        return tree
    os.makedirs(tree, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail(f"exporting {commit} failed")
    with open(stamp, "w") as f:
        f.write(commit + "\n")
    return tree


def run(tree, args, trace):
    """One perfbench run in `tree`; returns its metrics' values by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    res = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                         text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr[-4000:])
        fail(f"perfbench run in {tree} failed (exit {res.returncode})")
    out = json.loads(lines[-1])
    if out["failed"] != 0:
        fail(f"perfbench run in {tree} reports {out['failed']} failed "
             "operations")
    return {name: m["value"] for name, m in out["metrics"].items()}


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def virtual_names(spec_key, spec, traced):
    names = []
    for m in spec[spec_key]:
        unit = m["unit"]
        if unit.endswith("_virt") or unit.endswith("_model"):
            names.append(m["name"])
        elif traced and unit in ("count", "B"):
            names.append(m["name"])
    return names


def check_virtual(base, new, names, what):
    bad = [n for n in names if base.get(n) != new.get(n)]
    if bad:
        for n in bad:
            print(f"perf_ab: {what}: {n} differs: base {base.get(n)!r}, "
                  f"new {new.get(n)!r}", file=sys.stderr)
        fail("a virtual metric differs between the two sides", code=2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="commit to compare against")
    ap.add_argument("--new", required=True,
                    help="commit under test, or WORKTREE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--scratch", help="export and build directory "
                    "(default: a new temporary directory)")
    ap.add_argument("--metric", default="wall_s",
                    help="end-to-end metric the verdict line judges")
    ap.add_argument("--min-wins", type=int,
                    help="pairs the new side must win for the verdict "
                    "(default: 90%% of --pairs, rounded up)")
    ap.add_argument("--traced-check", action="store_true",
                    help="also run each side once with --trace 1 and "
                    "require identical traced counts")
    args = ap.parse_args()
    if args.pairs < 2:
        fail("--pairs must be at least 2")

    scratch = args.scratch or tempfile.mkdtemp(prefix="perf_ab-")
    os.makedirs(scratch, exist_ok=True)
    commits = {"base": resolve(args.base), "new": resolve(args.new)}
    trees = {side: export(c, scratch) for side, c in commits.items()}
    print(f"perf_ab: base {commits['base'][:12]}, new {commits['new'][:12]}, "
          f"trees under {scratch}", file=sys.stderr)
    with open(os.path.join(trees["new"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    if args.metric not in end_to_end:
        fail(f"{args.metric} is not an end-to-end metric")
    virtual = virtual_names("end_to_end", spec, traced=False)

    if args.traced_check:
        traced = {side: run(trees[side], args, trace=1) for side in trees}
        check_virtual(traced["base"], traced["new"],
                      virtual_names("per_layer", spec, traced=True),
                      "traced run")

    runs = {"base": [], "new": []}
    for i in range(args.pairs):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for side in order:
            runs[side].append(run(trees[side], args, trace=0))
        check_virtual(runs["base"][-1], runs["new"][-1], virtual,
                      f"pair {i + 1}")
        b = runs["base"][-1][args.metric]
        n = runs["new"][-1][args.metric]
        print(f"pair {i + 1}/{args.pairs}: {args.metric} base {b:.6g} "
              f"new {n:.6g}", file=sys.stderr, flush=True)

    summary = {"workload": args.workload, "seed": args.seed,
               "pairs": args.pairs, "seconds": args.seconds,
               "base": commits["base"], "new": commits["new"], "metrics": {}}
    print(f"{'metric':<18}{'wins':>7}{'base q1/med/q3':>32}"
          f"{'new q1/med/q3':>32}{'gap':>10}{'base IQR':>10}")
    for name, m in end_to_end.items():
        base = [r[name] for r in runs["base"]]
        new = [r[name] for r in runs["new"]]
        lower = m["better"] == "lower"
        wins = sum((n < b) if lower else (n > b) for b, n in zip(base, new))
        bq, nq = quartiles(base), quartiles(new)
        gap = (bq[1] - nq[1]) if lower else (nq[1] - bq[1])
        iqr = bq[2] - bq[0]
        summary["metrics"][name] = {
            "wins": wins, "base": list(bq), "new": list(nq), "gap": gap,
            "base_iqr": iqr,
            "change_frac": (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0}
        fmt = "/".join(f"{v:.4g}" for v in bq)
        fmt_new = "/".join(f"{v:.4g}" for v in nq)
        print(f"{name:<18}{wins:>4}/{args.pairs:<2}{fmt:>32}{fmt_new:>32}"
              f"{gap:>10.4g}{iqr:>10.4g}")
    v = summary["metrics"][args.metric]
    min_wins = args.min_wins or math.ceil(0.9 * args.pairs)
    better = v["wins"] >= min_wins and v["gap"] > v["base_iqr"]
    print(f"verdict: {args.metric} {v['change_frac']:+.1%} in the median, "
          f"new side better in {v['wins']}/{args.pairs} pairs, gap "
          f"{v['gap']:.4g} vs base IQR {v['base_iqr']:.4g}: "
          f"{'GAIN' if better else 'NO CLEAR GAIN'}")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
