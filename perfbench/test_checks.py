#!/usr/bin/env python3
"""Tests of the benchmark's own checks and result line.

    python3 perfbench/test_checks.py

Each correctness check is fed a wrong input and must report it; the
result line must be the last line of the command's output whatever
the outcome. Needs no build.
"""

import contextlib
import io
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import run  # noqa: E402


def verify_leg(**over):
    leg = {"ok": True, "error_kind": "", "states_explored": 1000,
           "states_generated": 4000, "transitions_fired": 3999,
           "trace_steps": 0, "symmetry": True, "resumable": False,
           "resumed": False, "checkpoints_written": 0, "spilled": False,
           "spill_segments": 0, "verify_s": 5.0}
    leg.update(over)
    return leg


class CountChecks(unittest.TestCase):
    def test_equal_counts_pass(self):
        self.assertEqual(checks.same_counts([verify_leg(), verify_leg()],
                                            "x"), [])

    def test_changed_state_count_fails(self):
        for key in checks.COUNT_KEYS:
            legs = [verify_leg(), verify_leg(**{key: 1001})]
            self.assertTrue(checks.same_counts(legs, "x"), key)

    def test_failed_verdict_fails(self):
        self.assertTrue(checks.passes(
            verify_leg(ok=False, error_kind="deadlock"), "x"))

    def test_symmetry_bound(self):
        on = verify_leg(states_explored=100)
        self.assertEqual(checks.symmetry_bound(
            on, verify_leg(states_explored=350, symmetry=False), 4), [])
        self.assertTrue(checks.symmetry_bound(
            on, verify_leg(states_explored=401, symmetry=False), 4))
        self.assertTrue(checks.symmetry_bound(
            on, verify_leg(states_explored=99, symmetry=False), 4))


class MutantCheck(unittest.TestCase):
    def test_caught_with_trace_passes(self):
        self.assertEqual(checks.mutant_caught(verify_leg(
            ok=False, error_kind="swmr", trace_steps=12)), [])

    def test_mutant_reported_passing_fails(self):
        self.assertTrue(checks.mutant_caught(verify_leg()))

    def test_wrong_kind_or_no_trace_fails(self):
        self.assertTrue(checks.mutant_caught(verify_leg(
            ok=False, error_kind="deadlock", trace_steps=12)))
        self.assertTrue(checks.mutant_caught(verify_leg(
            ok=False, error_kind="data-value", trace_steps=0)))


class OutOfCoreCheck(unittest.TestCase):
    def legs(self, **capped_over):
        ref = verify_leg()
        capped = verify_leg(spilled=True, spill_segments=7,
                            checkpoints_written=4, verify_s=5.0)
        capped.update(capped_over)
        split = verify_leg(ok=False, error_kind="state-limit",
                           resumable=True, checkpoints_written=1,
                           states_explored=500)
        resumed = verify_leg(resumed=True)
        return ref, capped, split, resumed

    def test_good_run_passes(self):
        self.assertEqual(checks.out_of_core(*self.legs(), 1.0), [])

    def test_changed_count_fails(self):
        self.assertTrue(checks.out_of_core(
            *self.legs(states_explored=999), 1.0))

    def test_too_few_checkpoints_fails(self):
        self.assertTrue(checks.out_of_core(
            *self.legs(checkpoints_written=1), 1.0))

    def test_no_spill_fails(self):
        self.assertTrue(checks.out_of_core(*self.legs(spilled=False), 1.0))


class MatrixChecks(unittest.TestCase):
    ROWS = [["MI", "MSI", "stalling", False, 10, 30],
            ["MI", "MSI", "nonstalling", False, 12, 40],
            ["MI", "MSI", "atomic", False, 6, 12]]

    def test_ordering_holds(self):
        self.assertEqual(checks.nonstalling_dominates(self.ROWS), [])

    def test_smaller_nonstalling_fails(self):
        fewer_states = [r[:] for r in self.ROWS]
        fewer_states[1][4] = 9
        self.assertTrue(checks.nonstalling_dominates(fewer_states))
        fewer_trans = [r[:] for r in self.ROWS]
        fewer_trans[1][5] = 29
        self.assertTrue(checks.nonstalling_dominates(fewer_trans))

    def test_missing_partner_fails(self):
        self.assertTrue(checks.nonstalling_dominates(self.ROWS[:1]))

    def test_lint_and_murphi(self):
        self.assertTrue(checks.lint_clean({"lint_issues": 1}))
        self.assertTrue(checks.murphi_stable({"murphi_mismatches": 1}))
        self.assertEqual(checks.lint_clean({"lint_issues": 0}), [])

    def test_matrix_verdicts(self):
        good = [["a", True, "", 10], ["b", True, "", 12]]
        self.assertEqual(checks.matrix_verifies(good, 2), [])
        self.assertTrue(checks.matrix_verifies(good, 3))
        self.assertTrue(checks.matrix_verifies(
            [["a", True, "", 10], ["b", False, "deadlock", 3]], 2))


class ResultLine(unittest.TestCase):
    def run_main(self, runner):
        saved = (run.build, run.RUNNERS["generate-matrix"])
        run.build = lambda: None
        run.RUNNERS["generate-matrix"] = runner
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "generate-matrix"])
        finally:
            run.build, run.RUNNERS["generate-matrix"] = saved
        return code, out.getvalue()

    def test_result_is_last_line(self):
        def runner(_seed, _seconds, _traced):
            print("program chatter")
            return [], 3, {k: 1.5 for k in run.END_TO_END}
        code, out = self.run_main(runner)
        self.assertEqual(code, 0)
        result = checks.parse_result_line(out)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))

    def test_failed_check_still_ends_with_result(self):
        def runner(_seed, _seconds, _traced):
            return ["wrong"], 3, {}
        code, out = self.run_main(runner)
        self.assertNotEqual(code, 0)
        self.assertFalse(checks.parse_result_line(out)["correct"])

    def test_aborted_run_still_ends_with_result(self):
        def runner(_seed, _seconds, _traced):
            print("partial output")
            raise run.BenchError("leg crashed")
        code, out = self.run_main(runner)
        self.assertNotEqual(code, 0)
        self.assertFalse(checks.parse_result_line(out)["correct"])

    def test_parse_rejects_non_result_last_line(self):
        with self.assertRaises(ValueError):
            checks.parse_result_line('{"correct": true}\nbuild done\n')


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
