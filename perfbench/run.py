#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload city-solo --seed 1 --seconds 10 --trace 0

Run from the repository root. The binary is built with CMake (Release) into
.bench_build/perfbench under the current directory, then run once; its output
is passed through and its last line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the span trace
is written to .bench_build/traces/<workload>-seed<N>.json.

The two city workloads must compute the same digest and event count; every
run of either records them in .bench_build/city-digests.json and fails if the
other workload, built from the same sources, recorded different ones.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
CITY_PAIR = ("city-solo", "city-sharded")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """A hash of the sources the binary is built from, after the git
    revision when the checkout has one."""
    digest = hashlib.sha256()
    for top in (HERE.parent / "src", HERE / "src"):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(HERE.parent)).encode())
                digest.update(path.read_bytes())
    rev = "src-" + digest.hexdigest()[:16]
    if (HERE.parent / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                                 capture_output=True, text=True, timeout=10)
            if git.returncode == 0 and git.stdout.strip():
                rev = git.stdout.strip() + "+" + rev
        except (OSError, subprocess.SubprocessError):
            pass
    return rev


def build():
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-4000:])
                fail("build failed: " + " ".join(step))
    return BUILD / "perfbench"


def check_city_pair(workload, info):
    """Cross-checks city-solo against city-sharded through a small cache."""
    if workload not in CITY_PAIR or info.get("scale") != "full":
        return None
    cache_path = BUILD / "city-digests.json"
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            cache = json.loads(cache_path.read_text())
        except (OSError, ValueError):
            cache = {}
        rev = info["machine"]["rev"]
        mine = {"rev": rev, "digest": info["digest"],
                "sim_events": info["sim_events"]}
        cache[workload] = mine
        cache_path.write_text(json.dumps(cache, indent=1) + "\n")
    other = cache.get(CITY_PAIR[1 - CITY_PAIR.index(workload)])
    if other is None or other["rev"] != rev:
        return None
    if (other["digest"], other["sim_events"]) != (mine["digest"],
                                                  mine["sim_events"]):
        return (f"{workload} digest/events {mine['digest']}/"
                f"{mine['sim_events']} differ from the other city workload's "
                f"{other['digest']}/{other['sim_events']}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--rev", source_rev()]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"benchmark binary exited {done.returncode} without a result")
    info = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    problem = check_city_pair(args.workload, info)
    if problem is not None:
        info["violations"].append(problem)
        result["correct"] = False
        result["failed"] += 1
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
