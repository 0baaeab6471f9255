#!/usr/bin/env python3
"""Same-runner A/B of the repository benchmark: this checkout against a parent.

    python3 scripts/ab.py <parent-rev>
    python3 scripts/ab.py --aa <rev>

Exports two sibling trees into one temporary directory, both the same way
(`git archive` of a tree object, unpacked by tar): "parent" from
<parent-rev>, and "change" from a snapshot of this checkout's working tree
(tracked edits and untracked files, .gitignore respected, the real index
untouched). With --aa both trees come from <rev>: an A/A self-check, whose
rows show the harness's own bias and noise between two identical trees.

For every workload in BENCHMARK.json it runs ten alternating parent/change
pairs, seeds 1-10 with odd seeds running the parent first, each through that
tree's own

    bash perfbench/run.sh --workload W --seed N --seconds <run_seconds> --trace 0

and judges the medians of every end-to-end metric against the metric's
`bound` and `better` direction:

    FAIL        the change's median is worse than the parent's by more
                than the bound (relative to the parent's median)
    unresolved  not worse beyond the bound, but the parent runs spread too
                widely to tell: their quartile distance exceeds the bound
                as a share of their median (unless every change run reads
                better than every parent run)
    ok          otherwise

Each row also shows in how many pairs (same seed) the change read better
than the parent; ties count for neither side. The count informs, it does
not judge.

The run also fails when any run reports `correct == false` (or its run.sh
exits non-zero) and when the change's failed/attempted share of operations
exceeds the parent's. Exit status 0 means every workload passed.

No baseline is stored: both sides are measured on the same runner in the
same session. Each tree builds into its own `.bench_build`, so
CARGO_TARGET_DIR is ignored.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from steadiness import run_once  # noqa: E402

PAIRS = 10


def rel(value, base):
    """(value - base) / |base|, with a zero base giving 0 or ±inf."""
    if base == 0:
        return 0.0 if value == 0 else math.copysign(math.inf, value)
    return (value - base) / abs(base)


def spread(values):
    """Quartile distance as a share of the median (perfbench/steadiness.py's formula)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return 0.0 if q[2] == q[0] else math.inf
    return (q[2] - q[0]) / abs(med)


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def judge(end_to_end, parent, change):
    """Judge one workload's runs. Returns (passed, report lines).

    end_to_end is BENCHMARK.json's list of {name, better, bound}; parent
    and change are lists of perfbench result records.
    """
    passed = True
    lines = []
    for side, runs in (("parent", parent), ("change", change)):
        bad = sum(1 for r in runs if not r["correct"])
        if bad:
            passed = False
            lines.append(f"FAIL correct: {bad} of {len(runs)} {side} runs are incorrect")
    p_share, c_share = failed_share(parent), failed_share(change)
    if c_share > p_share:
        passed = False
        lines.append(f"FAIL failed ops: change {c_share:.4%} of attempted > parent {p_share:.4%}")
    lines.append(f"{'metric':<20} {'parent':>12} {'change':>12} {'delta':>8} "
                 f"{'bound':>6} {'p-iqr':>7} {'wins':>6}  verdict")
    for m in end_to_end:
        name, bound = m["name"], m["bound"]
        pv = [r["metrics"][name]["value"] for r in parent if r["correct"] and name in r["metrics"]]
        cv = [r["metrics"][name]["value"] for r in change if r["correct"] and name in r["metrics"]]
        if not pv or not cv:
            continue
        p_med, c_med = statistics.median(pv), statistics.median(cv)
        delta = rel(c_med, p_med)
        worse = delta if m["better"] == "lower" else -delta
        iqr = spread(pv)
        all_better = max(cv) < min(pv) if m["better"] == "lower" else min(cv) > max(pv)
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if p["correct"] and c["correct"] and name in p["metrics"] and name in c["metrics"]]
        wins = sum(1 for p, c in pairs if (c < p if m["better"] == "lower" else c > p))
        if worse > bound:
            verdict = "FAIL"
            passed = False
        elif iqr > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        lines.append(f"{name:<20} {p_med:>12.4f} {c_med:>12.4f} {delta:>+8.1%} "
                     f"{bound:>6.0%} {iqr:>7.1%} {wins:>3}/{len(pairs):<2}  {verdict}")
    return passed, lines


def measure(tree, workload, seed, seconds):
    """One run of the workload in tree; a failing run.sh counts as incorrect."""
    os.chdir(tree)
    try:
        return run_once(workload, seed, seconds, 0)
    except SystemExit as e:
        print(f"# {tree}: {e}", file=sys.stderr, flush=True)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def git(repo, *args, env=None):
    return subprocess.run(["git", "-C", repo, *args], check=True, env=env,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def parse_args(argv):
    """Returns (aa, rev) for `<rev>` or `--aa <rev>`."""
    aa = argv[:1] == ["--aa"]
    rest = argv[1:] if aa else argv
    if len(rest) != 1 or rest[0].startswith("-"):
        raise SystemExit("usage: python3 scripts/ab.py [--aa] <rev>")
    return aa, rest[0]


def snapshot(repo, scratch):
    """A tree object of repo's working tree, as `git add -A` would stage it.

    It goes through a private index file, so the repository's own index and
    stash are left as they were.
    """
    env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
    git(repo, "read-tree", "HEAD", env=env)
    git(repo, "add", "-A", env=env)
    return git(repo, "write-tree", env=env)


def export(repo, treeish, dest):
    """Unpacks `git archive treeish` into the new directory dest."""
    os.mkdir(dest)
    archive = subprocess.Popen(["git", "-C", repo, "archive", "--format=tar", treeish],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {treeish} failed")


def main():
    aa, arg = parse_args(sys.argv[1:])
    rev = git(ROOT, "rev-parse", "--verify", arg + "^{commit}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.environ.pop("CARGO_TARGET_DIR", None)
    tmp = tempfile.mkdtemp(prefix="ab-")
    trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
    title = f"A/A {rev[:12]} against itself" if aa else f"parent {rev[:12]} vs change"
    passed = True
    try:
        export(ROOT, rev, trees["parent"])
        export(ROOT, rev if aa else snapshot(ROOT, tmp), trees["change"])
        for w in bench["workloads"]:
            workload = w["name"]
            runs = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    runs[side].append(measure(trees[side], workload, seed, bench["run_seconds"]))
                print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
            ok, lines = judge(bench["end_to_end"], runs["parent"], runs["change"])
            passed &= ok
            print(f"{workload}: {title}, {PAIRS} pairs of "
                  f"{bench['run_seconds']} s runs: {'ok' if ok else 'FAIL'}")
            for line in lines:
                print("  " + line)
            sys.stdout.flush()
    finally:
        os.chdir(ROOT)
        subprocess.run(["chmod", "-R", "u+w", tmp], check=False)  # Go caches are read-only
        shutil.rmtree(tmp)
    print("ab: ok" if passed else "ab: FAIL")
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
