#!/usr/bin/env python3
"""Runs one workload of the psc benchmark and prints its result.

Builds the benchmark program psc_perfbench (perfbench/CMakeLists.txt,
which compiles the psc library from src/) into .bench_build/ -- or into $CARGO_TARGET_DIR when
that is set -- then runs one workload with the recorded settings of
perfbench/config.json. Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload exact-join --seed 7 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes a Chrome trace under the build directory, which
tools/psc_trace_summary.py summarises). The exit code is 0 for a valid run
whose outputs all matched their oracles, 1 when an oracle disagreed or an
operation failed, and 2 when the benchmark could not be built or run, or
its run was not valid (then no result line is printed).
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds psc_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the psc sources (src/) are not in this checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring again is quick and picks up renamed targets.
        steps = [["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=Release", "-DPSC_OBS=ON"],
                 ["cmake", "--build", out, "--target", "psc_perfbench",
                  "-j", str(os.cpu_count() or 1)]]
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build step failed: " + " ".join(step))
    return os.path.join(out, "psc_perfbench")


def source_digest():
    """SHA-256 over src/ and perfbench/ (the checkout may not be a git
    repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        return done.stdout.strip() if done.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cache_value(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(HERE, "config.json")) as handle:
            config = json.load(handle)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read the benchmark settings: %s" % error)
    workload = config["workloads"].get(args.workload)
    if workload is None:
        fail("unknown workload %r (known: %s)"
             % (args.workload, ", ".join(config["workloads"])))

    program = build()
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(build_dir(), "traces",
                                  "%s-seed%d.json" % (args.workload,
                                                      args.seed))
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        command += ["--trace-out", trace_path]
    for key, value in sorted(workload.items()):
        command += ["--" + key.replace("_", "-"), repr(value)]

    started = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("psc_perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0 or not done.stdout.strip():
        fail("psc_perfbench exited with code %d" % done.returncode)
    record = json.loads(done.stdout.strip().splitlines()[-1])

    print("workload      %s (seed %d, %g s, trace %d)"
          % (args.workload, args.seed, args.seconds, args.trace))
    provenance = {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "PSC_OBS": cache_value("PSC_OBS"),
        "nproc": os.cpu_count(),
        "held_out_seed": config["held_out_seed"],
        "wall_s": round(time.monotonic() - started, 1),
    }
    provenance.update(record["info"])
    provenance.update(workload)
    for key in sorted(provenance):
        print("provenance    %s = %s" % (key, provenance[key]))
    for failure in record["failures"]:
        print("failure       %s" % failure)
    attempted, failed = record["attempted"], record["failed"]
    print("failed_ratio  %.6f (%d failed of %d attempted)"
          % (failed / max(attempted, 1), failed, attempted))

    if not record["valid"]:
        print("INVALID RUN: %s -- no latency figures are reported"
              % record["invalid_reason"])
        sys.exit(2)

    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    absent = set(record["not_exercised"])
    measured = record["metrics"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in measured:
            fail("psc_perfbench did not report %s" % name)
        value = measured[name]["value"]
        # A layer that does no work on this workload reports a true zero.
        note = "  (layer not exercised by this workload)" \
            if name in absent else ""
        metrics[name] = {"value": value, "unit": unit}
        print("metric        %-32s %16.6f %s%s" % (name, value, unit, note))
    if trace_path:
        print("trace         %s" % os.path.relpath(trace_path, ROOT))

    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if record["correct"] and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
