#!/usr/bin/env python3
"""The HieraGen benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a HieraGen checkout. It builds the program from
the checkout's sources (into $CARGO_TARGET_DIR, default .bench_build),
runs one workload for about --seconds of measured work, checks the
program's outputs, and prints one JSON result object as the last line
of its standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, timed on untraced
work only; with --trace 1 they are the per-layer ones, from a run that
also states its own tracing overhead. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build"))
# Scratch for spill segments, checkpoints and journals; emptied at the
# start and removed at the end of every run.
WORK = os.path.join(ROOT, ".bench_work")
HGBENCH = os.path.join(BUILD, "hgbench")
JOBS = min(os.cpu_count() or 1, 4)
RUN_LIMIT_S = 170.0
MIB = float(1 << 20)

WORKLOADS = ("generate-matrix", "verify-flagship", "verify-outofcore")

# latency_ms is the median of the workload's unit operation; tail_ms
# its p95 where a run has at least 200 samples (ten beyond the p95),
# and the median where it has only a few repetitions.
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "tail_ms": "ms",
    "round_s": "s",
    "peak_rss_mb": "MB",
}

PASSES = ("lower-ssp", "compose", "concurrency-stalling",
          "concurrency-nonstalling", "compat-conservative",
          "compat-optimized", "rename-forwarded", "merge-equivalent",
          "prune-unreachable")

PER_LAYER = dict(
    [("dsl.compile_us", "us"), ("pipeline.generate_us", "us")] +
    [(f"pass.{p}_ms", "ms") for p in PASSES] +
    [("fsm.lint_us", "us"), ("murphi.emit_us", "us"),
     ("murphi.kb", "KiB"),
     ("verif.encode_ms", "ms"), ("verif.canonicalize_ms", "ms"),
     ("verif.insert_ms", "ms"), ("verif.expand_other_ms", "ms"),
     ("verif.outside_expand_ms", "ms"),
     ("verif.states_explored", "count"),
     ("verif.states_generated", "count"),
     ("verif.transitions_fired", "count"),
     ("verif.dedup_hit_rate", "ratio"), ("verif.visited_mb", "MB"),
     ("spill.mb", "MB"), ("spill.segments", "count"),
     ("spill.stall_ms", "ms"), ("spill.disk_probe_hit_rate", "ratio"),
     ("ckpt.writes", "count"), ("ckpt.mb", "MB"),
     ("ckpt.write_ms", "ms"), ("ckpt.restore_ms", "ms"),
     ("trace.overhead_s", "s")])

# verify-flagship: the paper's flagship, sequential and at 2 threads.
FLAGSHIP = ["--lower", "MSI", "--higher", "MSI", "--mode", "nonstalling",
            "--h", "2", "--l", "2"]
# Symmetry bound: a smaller spec, 2H+2L so |H|!*|L|! = 4.
SYMMETRY_SPEC = ["--lower", "MSI", "--higher", "MSI", "--mode", "atomic",
                 "--h", "2", "--l", "2"]
# MSI cache-L mutant in which S ignores Inv.
MUTANT_SPEC = ["--lower", "MSI", "--higher", "MSI", "--mode",
               "nonstalling", "--h", "1", "--l", "2", "--mutant", "1"]
# verify-outofcore: a state space several times the memory cap.
OUTOFCORE = ["--lower", "MI", "--higher", "MSI", "--mode", "stalling",
             "--h", "2", "--l", "2"]
OOC_CAP_BYTES = 32 << 20
OOC_CKPT_INTERVAL_S = 1.0

class BenchError(Exception):
    """A leg failed to run (crash, timeout, bad output)."""


# ---------------------------------------------------------------
# Processes

_children = []
_deadline = [0.0]


def _terminate(signum, _frame):
    raise BenchError(f"stopped by signal {signum}")


def spawn(argv, **kw):
    p = subprocess.Popen(argv, **kw)
    _children.append(p)
    return p


def reap(p, timeout):
    """Wait for @p p, killing it after @p timeout; return rusage."""
    end = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid == p.pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            _children.remove(p)
            return ru
        if time.monotonic() > end:
            p.kill()
            end = time.monotonic() + 5.0
            timeout = 5.0
        time.sleep(0.002)


def stop_all():
    for p in list(_children):
        if p.poll() is None:
            p.kill()
        p.wait()
        _children.remove(p)


def remaining():
    return max(1.0, _deadline[0] - time.monotonic())


def leg(args):
    """Run one hgbench leg in its own process. Returns its report with
    the spawn time and peak RSS added."""
    out_path = os.path.join(WORK, "leg.out")
    err_path = os.path.join(WORK, "leg.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        spawned = time.monotonic()
        p = spawn([HGBENCH] + args, stdout=out, stderr=err)
        ru = reap(p, remaining())
    text = open(out_path).read()
    if p.returncode != 0 or not text.strip():
        tail = open(err_path).read()[-2000:]
        raise BenchError(f"hgbench {' '.join(args[:1])} exited "
                         f"{p.returncode}: {tail}")
    report = json.loads(text.strip().split("\n")[-1])
    report["spawned"] = spawned
    report["rss_mb"] = ru.ru_maxrss * 1024 / MIB
    return report


# ---------------------------------------------------------------
# Build

def build():
    src = os.path.join(ROOT, "src", "CMakeLists.txt")
    if not os.path.exists(src):
        raise SystemExit(f"perfbench: no HieraGen sources at {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")

    def attempt():
        with open(log_path, "w") as log:
            cfg = subprocess.run(
                ["cmake", "-S", os.path.join(HERE, "hgbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT)
            if cfg.returncode != 0:
                return False
            return subprocess.run(
                ["cmake", "--build", BUILD, "-j", str(JOBS), "--target",
                 "hgbench"],
                stdout=log, stderr=subprocess.STDOUT).returncode == 0

    if not attempt():
        # A build tree configured for another source path is stale.
        shutil.rmtree(BUILD, ignore_errors=True)
        os.makedirs(BUILD, exist_ok=True)
        if not attempt():
            sys.stderr.write(open(log_path).read()[-4000:])
            raise SystemExit("perfbench: build failed")


# ---------------------------------------------------------------
# Statistics

def median(xs):
    return percentile(xs, 0.5)


def percentile(xs, q):
    """Linear-interpolated quantile (inclusive), q in [0, 1]."""
    s = sorted(xs)
    if not s:
        raise BenchError("no samples")
    k = (len(s) - 1) * q
    f = int(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


def rounds_until(seconds, min_rounds, body):
    """Call body(i) for whole rounds until @p seconds of measured work
    and at least @p min_rounds rounds are done."""
    start = time.monotonic()
    i = 0
    while i < min_rounds or time.monotonic() - start < seconds:
        body(i)
        i += 1
    return i


# ---------------------------------------------------------------
# Workloads. Each returns (problems, attempted, metrics).

def layers(**values):
    """A per-layer metrics dict: every listed layer, 0 where the
    workload does not exercise it."""
    m = {k: 0.0 for k in PER_LAYER}
    for k, v in values.items():
        if k not in m:
            raise BenchError(f"unknown per-layer metric {k}")
        m[k] = float(v)
    return m


def generate_matrix(seed, seconds, traced):
    gen = leg(["gen", "--seconds", str(seconds), "--min-rounds", "5",
               "--seed", str(seed), "--trace", "1" if traced else "0"])
    verdicts = leg(["gen-check"])["verdicts"]
    problems = (checks.lint_clean(gen) + checks.murphi_stable(gen) +
                checks.matrix_verifies(verdicts, 150) +
                checks.nonstalling_dominates(gen["machines"]))
    attempted = gen["protocols"] + len(verdicts)
    if not traced:
        return problems, attempted, {
            "setup_s": gen["setup_mono"] - gen["spawned"],
            "latency_ms": median(gen["gen_us"]) / 1e3,
            "tail_ms": percentile(gen["gen_us"], 0.95) / 1e3,
            "round_s": median(gen["round_s"]),
            "peak_rss_mb": gen["rss_mb"],
        }
    passes = gen["pass_ms_per_round"]
    return problems, attempted, layers(
        **{"dsl.compile_us": median(gen["compile_us"]),
           "pipeline.generate_us": median(gen["generate_us"]),
           "fsm.lint_us": median(gen["lint_us"]),
           "murphi.emit_us": median(gen["emit_us"]),
           "murphi.kb": gen["murphi_bytes_per_round"] / 150 / 1024,
           "trace.overhead_s": median(gen["traced_round_s"]) -
           median(gen["untraced_round_s"])},
        **{f"pass.{p}_ms": passes.get(p, 0.0) for p in PASSES})


def engine_layers(traced_leg, untraced_leg):
    """verif.* per-layer metrics of a traced sequential leg."""
    t = traced_leg
    inner = t["encode_ms"] + t["canonicalize_ms"] + t["insert_ms"]
    return {
        "dsl.compile_us": t["compile_us"],
        "pipeline.generate_us": t["generate_us"],
        "verif.encode_ms": t["encode_ms"],
        "verif.canonicalize_ms": t["canonicalize_ms"],
        "verif.insert_ms": t["insert_ms"],
        "verif.expand_other_ms": t["expand_ms"] - inner,
        "verif.outside_expand_ms": t["verify_s"] * 1e3 - t["expand_ms"],
        "verif.states_explored": t["states_explored"],
        "verif.states_generated": t["states_generated"],
        "verif.transitions_fired": t["transitions_fired"],
        "verif.dedup_hit_rate": t["dedup_hit_rate"],
        "verif.visited_mb": t["visited_bytes"] / MIB,
        "trace.overhead_s": t["verify_s"] - untraced_leg["verify_s"],
    }


def verify_flagship(seed, seconds, traced):
    del seed  # the flagship spec is fixed; no input depends on it
    seq, par = [], []
    if traced:
        seq.append(leg(["verify"] + FLAGSHIP + ["--threads", "1"]))
        traced_leg = leg(["verify"] + FLAGSHIP +
                         ["--threads", "1", "--trace", "1"])
        par.append(leg(["verify"] + FLAGSHIP + ["--threads", "2"]))
    else:
        def one_round(_i):
            seq.append(leg(["verify"] + FLAGSHIP + ["--threads", "1"]))
            par.append(leg(["verify"] + FLAGSHIP + ["--threads", "2"]))
        rounds_until(seconds, 2, one_round)
    sym_on = leg(["verify"] + SYMMETRY_SPEC)
    sym_off = leg(["verify"] + SYMMETRY_SPEC + ["--symmetry", "0"])
    mutant = leg(["verify"] + MUTANT_SPEC)

    legs = seq + par + ([traced_leg] if traced else [])
    problems = []
    for i, lg in enumerate(legs):
        problems += checks.passes(lg, f"flagship leg {i}")
    problems += checks.same_counts(legs, "flagship 1 vs 2 threads")
    problems += checks.symmetry_bound(sym_on, sym_off, 4)
    problems += checks.mutant_caught(mutant)
    attempted = len(legs) + 3
    if traced:
        return problems, attempted, layers(
            **engine_layers(traced_leg, seq[0]))
    return problems, attempted, {
        "setup_s": seq[0]["setup_mono"] - seq[0]["spawned"],
        "latency_ms": median([lg["verify_s"] for lg in seq]) * 1e3,
        "tail_ms": median([lg["verify_s"] for lg in seq]) * 1e3,
        "round_s": median([s["verify_s"] + p["verify_s"]
                           for s, p in zip(seq, par)]),
        "peak_rss_mb": median([max(s["rss_mb"], p["rss_mb"])
                               for s, p in zip(seq, par)]),
    }


def journal_ms(path, kind):
    """Sum of the "ms" fields of one event kind in a run journal."""
    total = 0.0
    if os.path.exists(path):
        for line in open(path):
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec.get("kind") == kind:
                total += float(rec.get("ms", 0.0))
    return total


def verify_outofcore(seed, seconds, traced):
    del seed  # the spec and the cap are fixed; no input depends on it
    reference = leg(["verify"] + OUTOFCORE + ["--threads", "1"])
    split_at = reference["states_explored"] // 2
    capped, splits, resumes = [], [], []

    def one_round(i, trace=False):
        d = os.path.join(WORK, f"ooc{i}")
        os.makedirs(d, exist_ok=True)
        cap = ["--threads", "1", "--max-memory", str(OOC_CAP_BYTES),
               "--spill-dir", os.path.join(d, "spill")]
        tr = ["--trace", "1"] if trace else []
        capped.append(leg(
            ["verify"] + OUTOFCORE + cap + tr +
            ["--checkpoint", os.path.join(d, "run.ckpt"),
             "--interval", str(OOC_CKPT_INTERVAL_S)] +
            (["--journal", os.path.join(d, "run.jsonl")] if trace else [])))
        split_ckpt = os.path.join(d, "split.ckpt")
        splits.append(leg(["verify"] + OUTOFCORE + cap +
                          ["--checkpoint", split_ckpt, "--max-states",
                           str(split_at)]))
        resumes.append(leg(
            ["verify"] + OUTOFCORE + cap + tr +
            ["--checkpoint", split_ckpt, "--resume", split_ckpt] +
            (["--journal", os.path.join(d, "resume.jsonl")]
             if trace else [])))
        if not trace:
            shutil.rmtree(d, ignore_errors=True)

    if traced:
        one_round(0)
        one_round(1, trace=True)
    else:
        rounds_until(seconds, 2, one_round)

    problems = []
    for c, s, r in zip(capped, splits, resumes):
        problems += checks.out_of_core(reference, c, s, r,
                                       OOC_CKPT_INTERVAL_S)
    problems += checks.same_counts(capped, "capped repetitions")
    attempted = 1 + 3 * len(capped)
    if traced:
        c, r = capped[-1], resumes[-1]
        d = os.path.join(WORK, "ooc1")
        m = engine_layers(c, capped[0])
        m.update({
            "spill.mb": c["spilled_bytes"] / MIB,
            "spill.segments": c["spill_segments"],
            "spill.stall_ms": c["spill_stall_ms"],
            "spill.disk_probe_hit_rate":
                c["disk_probe_hits"] / max(1, c["disk_probes"]),
            "ckpt.writes": c["checkpoints_written"],
            "ckpt.mb": c["checkpoint_bytes"] / MIB,
            "ckpt.write_ms": journal_ms(os.path.join(d, "run.jsonl"),
                                        "checkpoint"),
            "ckpt.restore_ms": journal_ms(os.path.join(d, "resume.jsonl"),
                                          "restore"),
        })
        return problems, attempted, layers(**m)
    return problems, attempted, {
        "setup_s": reference["setup_mono"] - reference["spawned"],
        "latency_ms": median([c["verify_s"] for c in capped]) * 1e3,
        "tail_ms": median([c["verify_s"] for c in capped]) * 1e3,
        "round_s": median([c["verify_s"] + s["verify_s"] + r["verify_s"]
                           for c, s, r in zip(capped, splits, resumes)]),
        "peak_rss_mb": median([c["rss_mb"] for c in capped]),
    }


RUNNERS = {
    "generate-matrix": generate_matrix,
    "verify-flagship": verify_flagship,
    "verify-outofcore": verify_outofcore,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    build()
    _deadline[0] = time.monotonic() + RUN_LIMIT_S
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    units = PER_LAYER if args.trace else END_TO_END
    try:
        problems, attempted, values = RUNNERS[args.workload](
            args.seed, args.seconds, bool(args.trace))
    except Exception as e:  # every outcome ends with a result line
        problems, attempted, values = [f"run aborted: {e!r}"], 1, {}
    finally:
        stop_all()
        shutil.rmtree(WORK, ignore_errors=True)

    for p in problems:
        sys.stderr.write(f"perfbench: CHECK FAILED: {p}\n")
    sys.stderr.flush()
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items() if k in values},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
