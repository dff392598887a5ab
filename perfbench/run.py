#!/usr/bin/env python3
"""Run one workload of the pipeline benchmark, or compare two result sets.

Run (from the repository root):

    python3 perfbench/run.py --workload md-roundtrip --seed 1 --seconds 30 --trace 0

builds the harness (perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or
.bench_build), runs it in a scratch directory under .bench_run, and prints
as its last stdout line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. A per-layer metric the workload does not exercise reads 0.
`--out FILE` also appends the run (every metric, plus the machine
descriptor) to FILE as one JSON line; a file of such lines is a result set.

Compare:

    python3 perfbench/run.py --compare before.jsonl after.jsonl

prints, per workload and metric, each side's median and quartiles and a
verdict against the bound in BENCHMARK.json: better, worse, same (within
the bound) or unresolved (the runs spread wider than the bound).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def git_sha():
    """HEAD's commit from .git when the checkout has one, else "unknown"."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        with open(".git/packed-refs") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-1 over the paths and contents of the sources the harness builds."""
    h = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", BENCH_DIR):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, name)
            for d, _, names in os.walk(top) for name in names)
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def build(build_dir):
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   f"{BENCH_DIR}/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail(f"{needed} is missing: run from the repository root")
    out = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "mdsim",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
        fail("build failed")
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "synapse", "src", "apps", "mdsim"))


def run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {', '.join(names)})")
    harness, mdsim = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    work = os.path.abspath(os.path.join(
        ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.abspath(harness), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work,
           "--mdsim", os.path.abspath(mdsim),
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    try:
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("harness printed no result")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = raw["layer"] if args.trace else raw["e2e"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None and not args.trace:
            fail(f"end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": got["value"] if got else 0.0,
                              "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "result": result, "all": {**raw["e2e"], **raw["layer"]},
                  "machine": raw["machine"]}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print("machine: " + json.dumps(raw["machine"]))
    print(json.dumps(result))


# --- compare ----------------------------------------------------------------

def load_set(path):
    """workload -> metric -> [values] over every run in a result set."""
    values = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            per = values.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return values


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """better / worse / same / unresolved for B against A."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means "B is worse"
    qa, qb = quartiles(a), quartiles(b)
    if qa[1] == 0 or qb[1] == 0:
        return "unresolved"
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1])
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if all_better or -worse_by > bound:
        return "better"
    return "same"


def compare(path_a, path_b, spec):
    a_set, b_set = load_set(path_a), load_set(path_b)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    fmt = "{:<14} {:<40} {:>32} {:>32}  {}"
    print(fmt.format("workload", "metric", "A median [q1, q3]",
                     "B median [q1, q3]", "verdict"))
    for workload in sorted(set(a_set) & set(b_set)):
        for name in sorted(set(a_set[workload]) & set(b_set[workload])):
            a, b = a_set[workload][name], b_set[workload][name]
            qa, qb = quartiles(a), quartiles(b)
            if name in bounds:
                v = verdict(a, b, bounds[name]["better"], bounds[name]["bound"])
            elif name in layers:
                v = "-"  # per-layer metrics carry no bound
            else:
                continue
            cell = "{:.6g} [{:.6g}, {:.6g}]"
            print(fmt.format(workload, name,
                             cell.format(qa[1], qa[0], qa[2]),
                             cell.format(qb[1], qb[0], qb[2]), v))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append this run to a result set (JSONL)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        compare(args.compare[0], args.compare[1], spec)
        return
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    run(args, spec)


if __name__ == "__main__":
    main()
