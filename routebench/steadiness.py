#!/usr/bin/env python3
"""Measure how steady routebench is and record it.

Usage, from the root of a routelab checkout:

    python3 routebench/steadiness.py

Runs every workload of BENCHMARK.json ten times in each of two sets of the
same code, each run with its own seed, and writes
routebench/results/steadiness.json. Within a set the workloads take turns,
so a slow spell of the host lands on all of them rather than on one. For
each set, workload and end-to-end metric the record holds the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median. Across sets it holds how far
the second median moved from the first. Every spread, and every move either
way, is compared with the metric's bound in BENCHMARK.json. The record also
notes the git revision, the uncommitted files, a digest of the measured
files, the host's parallelism, the worker-thread count and the number of
runs. Every run must report correct results.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "results", "steadiness.json")
SETS = 2
RUNS = 10


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """SHA-256 over the path and contents of every file git would commit,
    except Markdown files and this record: it names the measured code
    whether or not that code is committed yet."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    if listed is None:
        return None
    record = os.path.relpath(OUT, ROOT)
    digest = hashlib.sha256()
    for path in sorted(set(filter(None, listed.split("\0")))):
        full = os.path.join(ROOT, path)
        if path == record or path.endswith(".md") or not os.path.isfile(full):
            continue
        with open(full, "rb") as f:
            digest.update(path.encode() + b"\0" + f.read() + b"\0")
    return digest.hexdigest()


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    started = time.time()
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.time() - started
    if out.returncode != 0:
        sys.exit("%s seed %d failed (exit %d):\n%s" % (workload, seed, out.returncode, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("%s seed %d reported failed checks:\n%s" % (workload, seed, out.stderr))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["attempted"], elapsed


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    revision = (git("rev-parse", "HEAD") or "").strip() or None
    uncommitted = (git("status", "--porcelain") or "").splitlines()
    digest = source_digest()

    raw = {w: [{m: [] for m in bounds} for _ in range(SETS)] for w in workloads}
    attempted = {w: 0 for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                seed = 1000 * (s + 1) + i
                values, n, elapsed = run_once(spec, w, seed)
                attempted[w] += n
                for m in bounds:
                    raw[w][s][m].append(values[m])
                shown = "  ".join("%s %.6g" % (m, values[m]) for m in bounds)
                print("set %d run %2d %-16s %s  (%.1f s)" % (s + 1, i + 1, w, shown, elapsed),
                      flush=True)
    if source_digest() != digest:
        sys.exit("the measured files changed during the runs; no record written")

    results = {}
    steady = True
    for w in workloads:
        per_metric = {}
        for m, bound in bounds.items():
            sets = [summary(raw[w][s][m]) for s in range(SETS)]
            first = sets[0]["median"]
            moves = [(x["median"] - first) / first for x in sets[1:]]
            spread_ok = all(x["spread"] <= bound for x in sets)
            move_ok = all(abs(mv) <= bound for mv in moves)
            steady &= spread_ok and move_ok
            per_metric[m] = {
                "bound": bound,
                "sets": sets,
                "median_moves": moves,
                "spread_within_bound": spread_ok,
                "spread_within_third_of_bound": all(x["spread"] <= bound / 3 for x in sets),
                "moves_within_bound": move_ok,
            }
            print("%-16s %-12s medians %s  spreads %s  moves %s  bound %.2f" % (
                w, m,
                " ".join("%.6g" % x["median"] for x in sets),
                " ".join("%.3f" % x["spread"] for x in sets),
                " ".join("%+.3f" % mv for mv in moves), bound))
        results[w] = {"checked_outputs": attempted[w], "metrics": per_metric}

    record = {
        "git_revision": revision,
        "uncommitted": uncommitted,
        "source_sha256": digest,
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host_parallelism": len(os.sched_getaffinity(0)),
        "worker_threads": 1,
        "run_seconds": spec["run_seconds"],
        "sets": SETS,
        "runs_per_set": RUNS,
        "order": "per run index, every workload in turn",
        "steady": steady,
        "workloads": results,
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print("wrote %s (steady: %s)" % (OUT, steady))


if __name__ == "__main__":
    main()
