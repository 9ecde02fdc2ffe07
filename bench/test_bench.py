"""Self-test of the benchmark at toy sizes.

    python3 bench/test_bench.py

Runs every workload's toy argv lists untraced and traced, and checks that each
metric BENCHMARK.json names is printed with its unit, that the toy outputs
match the recorded reference, and that an altered reference is caught.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads(run.REFERENCE.read_text())["outputs"]


def bench(name: str, trace: bool, reference: dict) -> tuple[list[str], dict]:
    """Printed lines and the final JSON object of one toy run."""
    result = run.run(name, seed=0, seconds=0.01, trace=trace, reference=reference, toy=True)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        run.report(result, Path(tmp))
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


class ToyRuns(unittest.TestCase):
    def check_metrics(self, lines, final, declared):
        self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(final["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(final["metrics"][m["name"]]["unit"], m["unit"])
            printed = [ln for ln in lines if ln.startswith(m["name"] + " ")]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertTrue(printed[0].endswith(" " + m["unit"]), printed[0])

    def test_workloads_print_every_metric_with_its_unit(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))
        for name in run.WORKLOADS:
            for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    lines, final = bench(name, trace, REFERENCE)
                    self.check_metrics(lines, final, declared)
                    self.assertTrue(final["correct"])
                    self.assertEqual(final["failed"], 0)
                    self.assertGreater(final["attempted"], 0)

    def test_altered_type_count_is_a_failure(self):
        reference = copy.deepcopy(REFERENCE)
        key = " ".join(run.WORKLOADS["growth-k2"].toy(0)[0])
        row = reference[key]["units"][0].split(",")
        type_count = reference[key]["summary"]["header"].split(",").index("type_count")
        row[type_count] = str(int(row[type_count]) + 1)
        reference[key]["units"][0] = ",".join(row)

        lines, final = bench("growth-k2", False, reference)
        self.assertFalse(final["correct"])
        self.assertEqual(final["failed"], 1)
        ratio = [ln for ln in lines if ln.startswith("fail_ratio ")]
        self.assertEqual(len(ratio), 1)
        self.assertGreater(float(ratio[0].split()[1]), 0)


if __name__ == "__main__":
    unittest.main()
