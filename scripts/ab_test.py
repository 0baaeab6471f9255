"""Unit tests for scripts/ab.py's judge and tree export. Run from the repository root:

    python3 -m unittest scripts/ab_test.py
"""

import copy
import filecmp
import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

with open(os.path.join(ab.ROOT, "BENCHMARK.json")) as f:
    END_TO_END = json.load(f)["end_to_end"]

# A profile-workload record shaped like perfbench's result line.
BASE = {
    "setup_s": 3.0,
    "throughput_ops_s": 9.0,
    "latency_p50_ms": 50.0,
    "latency_p90_ms": 200.0,
    "alloc_mb_per_op": 4.0,
    "max_rss_mb": 120.0,
    "cpi_err_inst_pct": 107.45976689609375,
    "cpi_err_block_pct": 12.480940524726376,
    "cpi_err_func_pct": 4.8314956389825605,
    "hit_p50_ms": 0.0,
    "miss_p50_ms": 0.0,
    "read_p50_ms": 0.0,
}


def runs(scale=None, failed=0):
    """Ten records around BASE with a ±1% seed-to-seed wobble.

    scale maps a metric name to a factor applied to every run; failed
    failed operations are added to the first run.
    """
    out = []
    for seed in range(10):
        wobble = 1 + (seed - 4.5) / 450
        metrics = {}
        for name, value in BASE.items():
            value *= (scale or {}).get(name, 1)
            if not name.startswith("cpi_err"):
                value *= wobble
            metrics[name] = {"value": value, "unit": ""}
        out.append({"correct": True, "attempted": 500, "failed": failed if seed == 0 else 0,
                    "metrics": metrics})
    return out


class JudgeTest(unittest.TestCase):
    def judge(self, change):
        passed, lines = ab.judge(END_TO_END, runs(), change)
        return passed, "\n".join(lines)

    def test_flat_passes(self):
        passed, report = self.judge(copy.deepcopy(runs()))
        self.assertTrue(passed, report)
        self.assertNotIn("unresolved", report)

    def test_latency_p50_doubled_fails(self):
        passed, report = self.judge(runs({"latency_p50_ms": 2}))
        self.assertFalse(passed, report)
        self.assertRegex(report, r"latency_p50_ms .*FAIL")

    def test_one_extra_failed_op_fails(self):
        passed, report = self.judge(runs(failed=1))
        self.assertFalse(passed, report)
        self.assertIn("FAIL failed ops", report)

    def test_cpi_err_block_up_three_percent_fails(self):
        passed, report = self.judge(runs({"cpi_err_block_pct": 1.03}))
        self.assertFalse(passed, report)
        self.assertRegex(report, r"cpi_err_block_pct .*FAIL")

    def test_pure_improvement_passes(self):
        passed, report = self.judge(runs({
            "throughput_ops_s": 1.5, "latency_p50_ms": 0.6, "latency_p90_ms": 0.6,
            "alloc_mb_per_op": 0.8, "max_rss_mb": 0.9, "cpi_err_inst_pct": 0.9,
        }))
        self.assertTrue(passed, report)
        self.assertNotIn("FAIL", report)
        self.assertRegex(report, r"latency_p50_ms .* 10/10 +ok")
        self.assertRegex(report, r"cpi_err_func_pct .*  0/10 +ok")  # a tie wins nothing

    def test_wide_parent_spread_is_unresolved(self):
        parent = runs()
        for i, r in enumerate(parent):
            r["metrics"]["latency_p50_ms"]["value"] *= 1 + 0.5 * (i % 2)
        passed, lines = ab.judge(END_TO_END, parent, runs())
        self.assertTrue(passed, lines)
        self.assertRegex("\n".join(lines), r"latency_p50_ms .*unresolved")
        # Unless every change run reads better than every parent run.
        passed, lines = ab.judge(END_TO_END, parent, runs({"latency_p50_ms": 0.5}))
        self.assertTrue(passed, lines)
        self.assertRegex("\n".join(lines), r"(?m)latency_p50_ms .* ok$")


class TreesTest(unittest.TestCase):
    """Both sides of a run are `git archive` exports into sibling directories."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="ab-test-")
        self.repo = os.path.join(self.tmp, "repo")
        os.mkdir(self.repo)
        self.git("init", "-q")
        self.write(".gitignore", "ignored/\n")
        self.write("a.txt", "one\n")
        self.git("add", "-A")
        self.git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "base")

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def git(self, *args):
        return ab.git(self.repo, *args)

    def write(self, name, text):
        path = os.path.join(self.repo, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)

    def read(self, tree, name):
        with open(os.path.join(self.tmp, tree, name)) as f:
            return f.read()

    def test_change_tree_is_the_working_tree(self):
        self.write("a.txt", "two\n")
        self.write("new.txt", "new\n")
        self.write("ignored/build.out", "x\n")
        status = self.git("status", "--porcelain")
        ab.export(self.repo, "HEAD", os.path.join(self.tmp, "parent"))
        ab.export(self.repo, ab.snapshot(self.repo, self.tmp), os.path.join(self.tmp, "change"))
        self.assertEqual(self.read("parent", "a.txt"), "one\n")
        self.assertFalse(os.path.exists(os.path.join(self.tmp, "parent", "new.txt")))
        self.assertEqual(self.read("change", "a.txt"), "two\n")
        self.assertEqual(self.read("change", "new.txt"), "new\n")
        self.assertFalse(os.path.exists(os.path.join(self.tmp, "change", "ignored")))
        # The repository's own index is untouched.
        self.assertEqual(self.git("status", "--porcelain"), status)

    def test_aa_trees_are_identical(self):
        ab.export(self.repo, "HEAD", os.path.join(self.tmp, "parent"))
        ab.export(self.repo, "HEAD", os.path.join(self.tmp, "change"))
        cmp = filecmp.dircmp(os.path.join(self.tmp, "parent"), os.path.join(self.tmp, "change"))
        self.assertEqual(cmp.common_files, [".gitignore", "a.txt"])
        self.assertEqual((cmp.left_only, cmp.right_only, cmp.diff_files), ([], [], []))

    def test_parse_args(self):
        self.assertEqual(ab.parse_args(["HEAD^"]), (False, "HEAD^"))
        self.assertEqual(ab.parse_args(["--aa", "HEAD"]), (True, "HEAD"))
        for argv in ([], ["--aa"], ["-x"], ["a", "b"], ["--aa", "a", "b"]):
            with self.assertRaises(SystemExit):
                ab.parse_args(argv)


if __name__ == "__main__":
    unittest.main()
