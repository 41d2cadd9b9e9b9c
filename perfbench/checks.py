"""Correctness checks of the HieraGen benchmark.

Every check takes the decoded reports of the legs (see hgbench.cc)
and returns a list of problems; an empty list means the program's
outputs hold. The checks compare outputs with properties and with
independent computations made in the same run, never with a stored
copy of an earlier run's output.
"""

import json

COUNT_KEYS = ("states_explored", "states_generated", "transitions_fired")
SAFETY_KINDS = ("swmr", "data-value")


def lint_clean(gen):
    """Every generated machine is lint-clean."""
    n = gen["lint_issues"]
    return [] if n == 0 else [f"{n} lint issues in generated machines"]


def murphi_stable(gen):
    """Each protocol's Murphi text is byte-identical across rounds."""
    n = gen["murphi_mismatches"]
    return [] if n == 0 else [f"{n} Murphi texts differ between rounds"]


def matrix_verifies(verdicts, expected):
    """All matrix protocols verify PASS (at 1H+1L)."""
    problems = []
    if len(verdicts) != expected:
        problems.append(f"{len(verdicts)} verdicts for {expected} protocols")
    for name, ok, kind, _states in verdicts:
        if not ok:
            problems.append(f"{name}: {kind or 'failed'}")
    return problems


def nonstalling_dominates(machines):
    """For every SSP pair and compat solution, the non-stalling
    dir/cache has at least the states and transitions of the stalling
    one. Rows are [lower, higher, mode, optimized, states, transitions].
    """
    by_key = {}
    for lower, higher, mode, opt, states, trans in machines:
        by_key.setdefault((lower, higher, opt), {})[mode] = (states, trans)
    problems = []
    pairs = 0
    for key, modes in sorted(by_key.items()):
        if "stalling" not in modes or "nonstalling" not in modes:
            problems.append(f"{key}: stalling/non-stalling pair missing")
            continue
        pairs += 1
        (ss, st), (ns, nt) = modes["stalling"], modes["nonstalling"]
        if ns < ss or nt < st:
            problems.append(
                f"{'/'.join(map(str, key))}: non-stalling dir/cache "
                f"{ns} states {nt} transitions < stalling {ss}/{st}")
    if pairs == 0:
        problems.append("no stalling/non-stalling pairs to compare")
    return problems


def passes(leg, what):
    if leg["ok"] and leg["error_kind"] == "":
        return []
    return [f"{what}: verdict {leg['error_kind'] or 'FAIL'}, expected PASS"]


def same_counts(legs, what):
    """States explored/generated and transitions fired agree across
    every leg (engines, thread counts, repetitions, resumes)."""
    problems = []
    ref = legs[0]
    for i, leg in enumerate(legs[1:], 1):
        for k in COUNT_KEYS:
            if leg[k] != ref[k]:
                problems.append(
                    f"{what}: leg {i} {k} {leg[k]} != leg 0 {ref[k]}")
    return problems


def symmetry_bound(reduced, unreduced, group_order):
    """canonical <= unreduced <= |group| x canonical."""
    c, u = reduced["states_explored"], unreduced["states_explored"]
    problems = passes(reduced, "symmetry on") + passes(unreduced,
                                                       "symmetry off")
    if not reduced["symmetry"] or unreduced["symmetry"]:
        problems.append("symmetry reduction did not switch as asked")
    if not c <= u <= group_order * c:
        problems.append(
            f"unreduced {u} outside [{c}, {group_order} x {c}] canonical")
    return problems


def mutant_caught(leg):
    """The mutant is reported as a safety violation with a trace."""
    if leg["ok"]:
        return ["mutant reported as passing"]
    problems = []
    if leg["error_kind"] not in SAFETY_KINDS:
        problems.append(f"mutant reported as {leg['error_kind']!r}, "
                        f"expected one of {SAFETY_KINDS}")
    if leg["trace_steps"] == 0:
        problems.append("mutant violation came without a trace")
    return problems


def out_of_core(reference, capped, split, resumed, interval_s):
    """A capped, spilling, checkpointing run and a split-and-resumed
    run both equal the in-memory reference run."""
    problems = passes(reference, "in-memory reference")
    problems += passes(capped, "capped run") + passes(resumed, "resumed run")
    problems += same_counts([reference, capped, resumed],
                            "in-memory vs capped vs resumed")
    if not capped["spilled"] or capped["spill_segments"] == 0:
        problems.append("capped run did not spill")
    expected = int(capped["verify_s"] / interval_s) - 1
    if capped["checkpoints_written"] < max(expected, 1):
        problems.append(
            f"{capped['checkpoints_written']} checkpoint writes, cadence "
            f"{interval_s}s over {capped['verify_s']:.2f}s expects "
            f">= {max(expected, 1)}")
    if split["error_kind"] != "state-limit" or not split["resumable"]:
        problems.append(f"split run ended {split['error_kind']!r}, "
                        "expected a resumable state-limit stop")
    if split["checkpoints_written"] == 0:
        problems.append("split run wrote no checkpoint")
    if not resumed["resumed"]:
        problems.append("resumed run did not restore the checkpoint")
    return problems


def parse_result_line(stdout):
    """The benchmark's result: the last line of its output."""
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return result
