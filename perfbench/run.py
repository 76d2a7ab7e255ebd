#!/usr/bin/env python3
"""Build and run the ppda benchmark (see perfbench/README.md).

One workload, as the benchmark contract calls it:

    python3 perfbench/run.py --workload flood-dcube45 --seed 7 --seconds 10 --trace 0

The last line printed is the result JSON. Extra modes for people:

    --workload all      run every workload untraced, then traced, and print
                        the end-to-end and per-layer tables side by side
                        with the tracing overhead
    --repeat-check      run the workload(s) twice with the same seed and
                        fail unless the seed-determined metrics and the
                        work counts repeat exactly

The program is built from source in this checkout with the tier-1 flags
(release profile, no RUSTFLAGS, so no target-cpu) into $CARGO_TARGET_DIR,
default .bench_build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["flood-dcube45", "wide-b64-integrity", "fleet-churn"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Pure functions of the seed: must repeat bit for bit.
SEED_DETERMINED = ["sim_latency_ms_p50", "radio_on_ms_mean", "round_fail_share", "node_success"]
EXACT_COUNTS = ["ct.cycles_per_round", "radio.fragments_per_round"]
# Allocation counts are exact on the single-thread workloads only.
EXACT_ALLOCS = ["mpc.allocs_per_round", "mpc.alloc_bytes_per_round"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_env():
    env = dict(os.environ)
    for flag in ("RUSTFLAGS", "CARGO_ENCODED_RUSTFLAGS", "CARGO_BUILD_RUSTFLAGS"):
        env.pop(flag, None)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    return env


def build(env):
    """Build the benchmark binary; return its path or None."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if done.returncode != 0:
        log("perfbench: build failed")
        return None
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "ppda-perfbench")


def git(*args):
    """Output of a git command in the checkout, or None outside git."""
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_one(binary, env, workload, seed, seconds, trace, echo=True):
    """Run one workload; return (exit code, result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result


def value(result, name):
    return result["metrics"][name]["value"]


def repeat_check(binary, env, workloads, seed, seconds):
    ok = True
    for w in workloads:
        for trace, names in ((False, SEED_DETERMINED),
                             (True, EXACT_COUNTS + (EXACT_ALLOCS if w != "fleet-churn" else []))):
            runs = [run_one(binary, env, w, seed, seconds, trace, echo=False) for _ in range(2)]
            if any(code != 0 or r is None for code, r in runs):
                log(f"perfbench: {w} failed during the repeat check")
                return False
            for n in names:
                a, b = value(runs[0][1], n), value(runs[1][1], n)
                same = a == b
                ok &= same
                print(f"  {w:<20} {n:<28} {a!r:>22} {b!r:>22}  {'same' if same else 'DIFFERENT'}")
    return ok


def run_all(binary, env, seed, seconds):
    untraced, traced, ok = {}, {}, True
    for w in WORKLOADS:
        code, untraced[w] = run_one(binary, env, w, seed, seconds, False)
        ok &= code == 0 and untraced[w] is not None
        code, traced[w] = run_one(binary, env, w, seed, seconds, True)
        ok &= code == 0 and traced[w] is not None
    if not ok:
        return False, {}
    print(f"\n== end to end (seed {seed}, {seconds} s per run) ==")
    print(f"{'metric':<22}{'unit':<10}" + "".join(f"{w:>22}" for w in WORKLOADS))
    for name in untraced[WORKLOADS[0]]["metrics"]:
        unit = untraced[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:<22}{unit:<10}" + "".join(f"{value(untraced[w], name):>22.6g}" for w in WORKLOADS))
    print("\n== per layer (traced runs) ==")
    print(f"{'metric':<32}{'unit':<8}" + "".join(f"{w:>22}" for w in WORKLOADS))
    for name in traced[WORKLOADS[0]]["metrics"]:
        unit = traced[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:<32}{unit:<8}" + "".join(f"{value(traced[w], name):>22.6g}" for w in WORKLOADS))
    print("\n== tracing overhead: untraced rounds/s over the traced run's mpc.step rate ==")
    for w in WORKLOADS:
        steps = traced[w]["metrics"]["mpc.step_us"]["value"]
        rate = 1e6 / steps if steps else float("nan")
        if w == "fleet-churn":
            # The fleet's untraced rate is over two workers; its traced
            # mpc.step spans are single-threaded twins, so only the
            # in-process twin ratio (mpc.trace_overhead) compares.
            print(f"  {w:<20} in-process twin overhead {value(traced[w], 'mpc.trace_overhead'):+.4f}")
        else:
            print(f"  {w:<20} untraced {value(untraced[w], 'rounds_per_s'):.2f} rounds/s,"
                  f" traced mpc.step {rate:.2f} rounds/s,"
                  f" overhead {value(untraced[w], 'rounds_per_s') / rate - 1:+.4f}")
    metrics = {}
    for w in WORKLOADS:
        for name, m in untraced[w]["metrics"].items():
            metrics[f"{w}/{name}"] = m
    summary = {
        "correct": all(untraced[w]["correct"] and traced[w]["correct"] for w in WORKLOADS),
        "attempted": sum(untraced[w]["attempted"] for w in WORKLOADS),
        "failed": sum(untraced[w]["failed"] for w in WORKLOADS),
        "metrics": metrics,
    }
    return True, summary


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat-check", action="store_true")
    args = ap.parse_args()

    env = build_env()
    binary = build(env)
    if binary is None:
        return 1
    revision, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    env["PERFBENCH_GIT_REV"] = revision or "none"
    # Uncommitted edits mean the revision alone does not name the code.
    env["PERFBENCH_GIT_DIRTY"] = "unknown" if status is None else str(bool(status)).lower()
    env["PERFBENCH_RUSTFLAGS"] = ""

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.repeat_check:
        ok = repeat_check(binary, env, workloads, args.seed, args.seconds)
        print("repeat check:", "identical" if ok else "DIFFERENT")
        return 0 if ok else 2
    if args.workload == "all":
        ok, summary = run_all(binary, env, args.seed, args.seconds)
        if not ok:
            return 1
        print(json.dumps(summary))
        return 0 if summary["correct"] else 2
    code, _ = run_one(binary, env, args.workload, args.seed, args.seconds, args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
