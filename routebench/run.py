#!/usr/bin/env python3
"""Build routebench from source and run one workload.

Usage, from the root of a routelab checkout:

    python3 routebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the checkout root), offline, from the crates in
this checkout. Its last line of standard output is the result: one JSON
object with the keys correct, attempted, failed and metrics. With --trace 1
the spans of the traced run are written next to the binary, under
routebench-spans/.

Exits non-zero without a result when the checkout holds no routelab source
tree, when the build fails, or when the workload fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("explore-reduced", "explore-raw", "mc-grid", "mc-tenk", "plan-verify")


def fail(message):
    print("routebench: " + message, file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be non-negative and --seconds positive")

    for needed in ("Cargo.toml", "crates", os.path.join("results", "exp-montecarlo.json")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no routelab source tree at %s (missing %s)" % (ROOT, needed))

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    command = [
        os.path.join(target, "release", "routebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = "%s-seed%d.json" % (args.workload, args.seed)
        command += ["--spans", os.path.join(target, "routebench-spans", spans)]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
