#!/usr/bin/env python3
"""ctaver benchmark: builds the driver, runs one workload, checks it.

    python3 ctabench/run.py --workload catc-proof --seed 1 --seconds 10 --trace 0

Run from the root of a ctaver checkout. The driver (ctabench/*.cpp) is built
from source with CMake into $CARGO_TARGET_DIR (default .bench_build) as a
Release build, then run in its own process, so peak_rss_mb is per workload.
The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1). `attempted` counts checked obligation verdicts, `failed`
those that were ERROR, inconclusive, against the spec's `expect` block, or
different from ctabench/reference.json (catc-proof and catab-sweeps: verdict
line, schema, query and pivot counts). Any failure exits 1.

--update-reference rewrites reference.json from this run's verdicts.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ("catc-proof", "catab-sweeps", "cache-reverify")
REFERENCED = ("catc-proof", "catab-sweeps")
DRIVER_TIMEOUT_S = 170


def die(msg):
    print("ctabench: " + msg, file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def build(build_dir):
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(nproc())],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ctabench")


def source_id():
    """The git commit when there is one, else a digest of src/ and specs/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "specs"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def reference_failures(doc, workload, update):
    """Compares the first pass's verdicts with the committed reference.
    A mismatching obligation fails in every pass (passes are identical)."""
    fields = ("line", "nschemas", "nqueries", "npivots", "ce", "replay")
    got = [{k: o[k] for k in ("protocol", "name") + fields}
           for o in doc["obligations"]]
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            ref = json.load(f)
    if update:
        ref[workload] = got
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        return []
    want = ref.get(workload)
    if want is None:
        return ["no reference for " + workload + "; run --update-reference"]
    failures = []
    keyed = {(o["protocol"], o["name"]): o for o in want}
    for o in got:
        w = keyed.pop((o["protocol"], o["name"]), None)
        if w is None:
            failures.append("%s %s: not in the reference" % (o["protocol"], o["name"]))
            continue
        diff = [k for k in fields if o[k] != w[k]]
        if diff:
            failures.append("%s %s: %s differ from the reference" %
                            (o["protocol"], o["name"], ", ".join(diff)))
    failures += ["%s %s: missing from this run" % k for k in keyed]
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=0, help="pool width (default nproc)")
    ap.add_argument("--workers", type=int, default=0,
                    help="enumeration workers per obligation (default nproc)")
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args()

    for need in ("src/verify/pipeline.h", "specs/aby22.cta", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a ctaver checkout: %s missing under %s" % (need, ROOT))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        driver = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        die("build failed: %s" % e)

    work = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [driver, "--workload", args.workload, "--root", ROOT,
           "--work-dir", work, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build_dir, "trace-%s.json" % args.workload)]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    if args.workers:
        cmd += ["--workers", str(args.workers)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("driver exited with %d" % proc.returncode)
    doc = json.loads(lines[-1])

    failures = list(doc["failures"])
    failed = doc["failed"]
    if args.workload in REFERENCED:
        ref_fail = reference_failures(doc, args.workload, args.update_reference)
        failures += ref_fail
        failed += len(ref_fail) * doc["passes"]
    attempted = doc["attempted"]

    metrics = {}
    for m in wanted:
        if m["name"] not in doc["metrics"]:
            die("driver did not report %s" % m["name"])
        metrics[m["name"]] = {"value": doc["metrics"][m["name"]], "unit": m["unit"]}

    print(json.dumps({"stamp": doc["stamp"]}))
    for name, v in metrics.items():
        print("%-28s %16.6g %s" % (name, v["value"], v["unit"]))
    print("failed_share %.6g (%d of %d obligation verdicts, %d units)" %
          (failed / max(attempted, 1), failed, attempted, doc["passes"]))
    for f in failures:
        print("FAIL " + f)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
