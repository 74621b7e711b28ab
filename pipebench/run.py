#!/usr/bin/env python3
"""Pipeline benchmark entry point.

Builds pipeline_bench from the checkout's sources (once per build directory),
then runs one workload and passes its output through; the last stdout line is
the result object.

    python3 pipebench/run.py --workload paper-text --seed 1 --seconds 10 --trace 0
    python3 pipebench/run.py --self-check
    python3 pipebench/run.py --calibrate

--calibrate prints the per-app checkpoint traffic that ckpt-stream replays.

The build goes to $CARGO_TARGET_DIR/pipebench (default .bench_build/pipebench,
relative to the checkout root). Traces and checkpoint files live in a per-run
directory under it that is removed at exit; a traced run leaves its spans in
<build>/spans/<workload>-seed<n>.jsonl.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pipebench")


def build(bdir):
    """Configure and build; returns the binary path or None on failure."""
    os.makedirs(bdir, exist_ok=True)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(bdir, ignore_errors=True)  # retry configure next time
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "pipeline_bench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        return None
    return os.path.join(bdir, "pipeline_bench")


def run_bench(binary, bdir, workload, seed, seconds, trace, small=False, capture=False):
    """Run one workload; returns (exit code, captured stdout or None)."""
    work = os.path.join(bdir, "run-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work]
    if trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%s.jsonl" % (workload, seed))]
    if small:
        cmd.append("--small")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None, text=True)

    def stop(signum, _frame):
        proc.terminate()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate()
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out


def self_check(binary, bdir):
    """Small-knob run of every workload, traced and untraced: every metric of
    BENCHMARK.json printed with its unit, no failed operation, and layer spans
    covering at least 95% of the traced wall."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            before = len(problems)
            code, out = run_bench(binary, bdir, name, 1, 1, trace, small=True, capture=True)
            where = "%s --trace %d" % (name, trace)
            lines = (out or "").strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit %s" % (where, code))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append("%s: correct=%s failed=%s attempted=%s" % (
                    where, result.get("correct"), result.get("failed"), result.get("attempted")))
            metrics = result.get("metrics", {})
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
                    problems.append("%s: metric %s missing or unit != %s" % (where, m["name"], m["unit"]))
                elif trace == 0 and got["value"] <= 0:
                    problems.append("%s: end-to-end metric %s is %s" % (where, m["name"], got["value"]))
            if trace == 1 and metrics.get("unattributed_share", {}).get("value", 1) > 0.05:
                problems.append("%s: unattributed_share %s > 0.05" % (
                    where, metrics["unattributed_share"]["value"]))
            if trace == 0:
                detail = [l for l in lines if l.startswith("detail ")]
                share = json.loads(detail[-1][7:])["metrics"]["failed_share"] if detail else None
                if not share or share["value"] != 0:
                    problems.append("%s: failed_share %s" % (where, share))
            print("self-check %-28s %s" % (where, "ok" if len(problems) == before else "FAIL"), file=sys.stderr)
    for p in problems:
        print("self-check FAIL: " + p, file=sys.stderr)
    print("self-check: %s" % ("pass" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["paper-text", "mctb-reanalyze", "ckpt-stream"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true", help="apps at default_params, 256 KiB of checkpoint state")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--calibrate", action="store_true", help="print the recorded per-app checkpoint traffic")
    args = ap.parse_args()
    if not (args.self_check or args.calibrate or args.workload):
        ap.error("--workload, --self-check or --calibrate is required")

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        print("pipebench: build failed", file=sys.stderr)
        return 3
    if args.self_check:
        return self_check(binary, bdir)
    if args.calibrate:
        work = os.path.join(bdir, "run-%d" % os.getpid())
        cmd = [binary, "--calibrate", "--work-dir", work] + (["--small"] if args.small else [])
        try:
            return subprocess.call(cmd)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    code, _ = run_bench(binary, bdir, args.workload, args.seed, args.seconds, args.trace, args.small)
    return code


if __name__ == "__main__":
    sys.exit(main())
