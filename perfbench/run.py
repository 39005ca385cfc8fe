#!/usr/bin/env python3
"""Runs one helmsim benchmark workload and prints its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve_cont --seed 1 --seconds 30 --trace 0

Builds the benchmark binary (release profile, into $CARGO_TARGET_DIR or
.bench_build), then runs its phases, each in a process of its own:

* the timed phase: set-up, measured passes for --seconds, peak memory
  and the paper fidelity metrics; host times are the process's CPU
  time, as the upper decile over repetitions. With --trace 1 every
  other pass is traced with benchmark-side spans, written to
  <target>/perfbench-spans/<workload>-seed<seed>.jsonl;
* with --trace 1 only, the aside phase: the program-traced pass, then
  the audited pass (auditing, once on, stays on for the rest of a
  process). Both check their outputs, and give the per-layer overheads
  of program tracing and auditing.

Prints a stamp (commit, source digest, host, toolchain, profile), each
metric with its unit, and as the last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Exits with a non-zero code, printing no result, if the build or a phase
fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Beyond --seconds, the slack one phase may take before it is stopped;
# both phases together must end well inside the 180 s a run may take.
PHASE_SLACK_S = 45
SOURCE_DIRS = ("crates", "vendor", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", "BENCHMARK.json")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """sha256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    paths = [ROOT / f for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for p in (ROOT / d).rglob("*"):
            rel = p.relative_to(ROOT).parts
            if p.is_file() and "target" not in rel and "__pycache__" not in rel:
                paths.append(p)
    for p in sorted(paths):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def stamp(profile):
    commit = None
    if (ROOT / ".git").exists():
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "commit": commit,
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "profile": profile,
    }


def run_phase(exe, phase, args, extra=()):
    cmd = [str(exe), "--phase", phase, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + PHASE_SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"{phase} phase exceeded {args.seconds + PHASE_SLACK_S} s")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{phase} phase exited with code {out.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be non-negative and --seconds at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    exe = target / "release" / "perfbench"

    extra = []
    if args.trace:
        spans_dir = target / "perfbench-spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        extra = ["--spans-out", str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    phases = [run_phase(exe, "timed", args, extra)]
    if args.trace:
        phases.append(run_phase(exe, "aside", args))

    measured = {}
    for phase in phases:
        measured.update(phase["metrics"])
    if "audited_cpu_s" in measured:
        measured["simaudit.overhead_x"] = measured["audited_cpu_s"] / measured["cpu_s"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if not isinstance(value, (int, float)):
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted = sum(phase["attempted"] for phase in phases)
    failed = sum(phase["failed"] for phase in phases)
    print("stamp: " + json.dumps(stamp(phases[0]["profile"]), sort_keys=True))
    for key, value in sorted(phases[0]["info"].items()):
        print(f"{key}: {value}")
    print(f"ops: {attempted}  ops_failed: {failed}")
    for phase in phases:
        for failure in phase["failures"]:
            print(f"failure: {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
