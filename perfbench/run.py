#!/usr/bin/env python3
"""Build and run the phishare benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload mcck_batch [--seed 7] [--seconds 15] [--trace 0|1]
    python3 perfbench/run.py --self-test

Builds the `perfbench` crate (this directory) and the `phishare` binary in
release mode, offline, into $CARGO_TARGET_DIR (default `.bench_build`), then
runs one measurement. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Spans and per-layer
summaries of traced runs are written under `.bench_out/`.

Exits non-zero when the build fails, when a correctness check fails, or
when a PHISHARE_* parallelism override is set.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["mc_backlog", "mcck_batch", "mcc_stream", "sweep_grid"]
# A measurement that outlives this is killed and counts as failed.
RUN_TIMEOUT_S = 175


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build both binaries; returns (perfbench, phishare) paths or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest in ["perfbench/Cargo.toml", "Cargo.toml"]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(ROOT, manifest)]
        if manifest == "Cargo.toml":
            cmd += ["--bin", "phishare"]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "phishare")


def git_commit():
    """HEAD of the checkout, read from `.git` without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def run(binaries, workload, seed, seconds, trace, smoke=False):
    """Run one measurement; returns (exit code, stdout)."""
    perfbench, phishare = binaries
    cmd = [perfbench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--phishare", phishare, "--commit", git_commit()]
    if smoke:
        cmd.append("--smoke")
    # A session of its own, so a timeout also stops the sweep processes it
    # spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def self_test(binaries):
    """Smoke-size run of every workload in both modes: every metric that
    BENCHMARK.json names is emitted with its unit, and checks pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    failures = 0
    for workload in WORKLOADS:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            code, out = run(binaries, workload, 7, 1, trace, smoke=True)
            result = json.loads(out.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if code != 0 or not result["correct"]:
                problems.append(f"exit {code}, correct={result['correct']}")
            if got != want:
                problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            print(f"self-test {workload} trace={trace}: "
                  f"{'ok' if not problems else '; '.join(problems)}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be within 1..600")

    binaries = build()
    if binaries is None:
        return 1
    if args.self_test:
        return self_test(binaries)
    code, out = run(binaries, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
