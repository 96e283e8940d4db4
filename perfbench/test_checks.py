#!/usr/bin/env python3
"""Self-test of the campaign benchmark's output checks.

    python3 perfbench/test_checks.py

Run from the repository root. Builds what run.py builds, runs a tiny
campaign, then damages its merged CSV and journal in each way the checks
define as a failure and asserts that the damaged points are counted as
failed. Also pins BENCHMARK.json's metric names to what the benchmark
prints.
"""

import json
import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

WORK = os.path.join(bench.ROOT, ".bench_build", "perfbench-test")
SPEC = os.path.join(WORK, "tiny.spec")
CLEAN_CSV = os.path.join(WORK, "clean.csv")
JOURNAL = os.path.join(WORK, "clean.journal")
POINTS = 8  # 2 workloads x 2 policies x 2 seeds
MTTF_COL = 13
CYCLES_COL = 8


def check(csv=None, journals=None, sample=0, paired=False):
    argv = [bench.TOOL, "check", "--spec=" + SPEC, "--sample=%d" % sample,
            "--sample-seed=7"]
    argv.append("--csv=" + csv if csv else "--journals=" + ",".join(journals))
    if paired:
        argv.append("--paired")
    return bench.capture(argv)


def rewrite(lines, name):
    path = os.path.join(WORK, name)
    with open(path, "w") as f:
        f.writelines(lines)
    return path


def set_cell(line, col, value):
    cells = line.rstrip("\n").split(",")
    cells[col] = value
    return ",".join(cells) + "\n"


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()
        bench.fresh_dir(WORK)
        with open(SPEC, "w") as f:
            f.write("name = perfbench-test\nworkloads = mcf,h264ref\n"
                    "policies = conventional,reap\nseeds = 0,1\n"
                    "instructions = 20000\nwarmup = 2000\n")
        _, rc, _, _ = bench.run_child(
            [bench.cli("reap_campaign"), "--spec=" + SPEC, "--threads=2",
             "--quiet", "--csv=" + CLEAN_CSV, "--journal=" + JOURNAL],
            os.path.join(WORK, "run.log"))
        assert rc == 0, "tiny campaign failed"
        with open(CLEAN_CSV) as f:
            cls.lines = f.readlines()
        # Row i + 1 is grid point i; reap rows are the odd seeds' partners.
        cls.reap_row = next(i for i, l in enumerate(cls.lines)
                            if ",reap," in l)

    def test_clean_run_passes_every_check(self):
        res = check(csv=CLEAN_CSV, sample=POINTS, paired=True)
        self.assertEqual(res["points"], POINTS)
        self.assertEqual(res["failed"], 0, res["reasons"])
        self.assertEqual(res["sampled"], POINTS)
        self.assertEqual(res["pairs"], POINTS // 2)

    def test_tampered_cell_is_failed_by_the_rerun(self):
        lines = list(self.lines)
        lines[3] = set_cell(lines[3], CYCLES_COL, "12345")
        path = rewrite(lines, "tampered.csv")
        res = check(csv=path, sample=POINTS)
        self.assertEqual(res["failed"], 1)
        self.assertEqual(res["reasons"], {"rerun_mismatch": 1})
        self.assertNotEqual(res["crc32c"], check(csv=CLEAN_CSV)["crc32c"])

    def test_missing_row_is_failed(self):
        res = check(csv=rewrite(self.lines[:4] + self.lines[5:], "missing.csv"))
        self.assertEqual(res["reasons"], {"missing": 1})

    def test_duplicated_row_is_failed(self):
        lines = self.lines + [self.lines[2]]
        res = check(csv=rewrite(lines, "duplicated.csv"))
        self.assertEqual(res["reasons"], {"duplicated": 1})

    def test_malformed_row_is_failed(self):
        lines = list(self.lines)
        lines[5] = lines[5][: len(lines[5]) // 2] + "\n"
        res = check(csv=rewrite(lines, "malformed.csv"))
        self.assertEqual(res["reasons"], {"malformed": 1})

    def test_reap_below_conventional_is_failed(self):
        lines = list(self.lines)
        lines[self.reap_row] = set_cell(lines[self.reap_row], MTTF_COL, "0")
        res = check(csv=rewrite(lines, "reap_low.csv"), paired=True)
        self.assertEqual(res["reasons"], {"reap_below_conventional": 1})

    def test_unjournaled_points_of_a_failed_run_are_failed(self):
        with open(JOURNAL) as f:
            journal = f.readlines()
        path = rewrite(journal[:4], "partial.journal")  # header + 3 rows
        res = check(journals=[path], sample=3)
        self.assertEqual(res["failed"], POINTS - 3)
        self.assertEqual(res["reasons"], {"missing": POINTS - 3})

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["end_to_end"]],
            bench.END_TO_END)
        layer_dir = bench.fresh_dir(os.path.join(WORK, "layers"))
        res = bench.capture(
            [bench.TOOL, "layers", "--spec=" + SPEC,
             "--work-dir=" + layer_dir, "--label=test",
             "--campaign-bin=" + bench.cli("reap_campaign")])
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["per_layer"]],
            [(k, v["unit"]) for k, v in res["metrics"].items()])
        self.assertTrue(res["traced_identical"])
        self.assertTrue(res["dispatch_identical"])
        with open(res["spans_file"]) as f:
            spans = [json.loads(line) for line in f]
        self.assertTrue(any(s["name"] == "campaign.point" for s in spans))
        shutil.rmtree(layer_dir)


if __name__ == "__main__":
    unittest.main()
