#!/usr/bin/env python3
"""Builds and runs one workload of the tgm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the benchmark package
in this directory (release profile, offline) together with the
repository's crates it depends on, stamps the host, runs the workload in a
fresh process, and relays that process's output. The last line of
standard output is the result object; with --trace 1 it holds every
per-layer metric named in BENCHMARK.json, a workload reporting 0 for
layers it does not exercise. Exits non-zero, without a result, when the
build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
# Counted from the end of the build, which has its own timeout; once built,
# a rebuild is a no-op of about a second.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def read_first_line(path, prefix=""):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unreadable"


def source_digest():
    """Commit id when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def host_fingerprint():
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": read_first_line("/proc/cpuinfo", "model name"),
        "cpu_governor": read_first_line(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
        ),
        "rustc": rustc,
        "commit": source_digest(),
    }


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(ROOT, target, "release", "tgm-perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload `{args.workload}`")
    declared = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    binary = build()
    print("host: " + json.dumps(host_fingerprint(), sort_keys=True), flush=True)
    cmd = [binary, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time")
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"workload exited with code {run.returncode} and no result")

    metrics = result["metrics"]
    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    for m in declared:
        if m["name"] not in metrics:
            if args.trace == "0":
                fail(f"end-to-end metric `{m['name']}` missing")
            # A layer this workload does not run spends nothing in it.
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        elif metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"metric `{m['name']}` has unit {metrics[m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
