#!/usr/bin/env python3
"""EdgeHD benchmark: builds the benchmark driver, runs one workload and
prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--workload <name>]

Run from the repository root. The driver (perfbench/src) is compiled together
with the library sources under src/ into .bench_build/perfbench. A run prints
a human-readable report, one "record:" line describing the run, and as its
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (the traced run also writes its spans to
.bench_build/perfbench/spans-<workload>-<seed>.json). `correct` is true when
every correctness check passed. --self-test shows that each correctness
check fails on a tampered result, that the deterministic counts agree
between 1 worker thread and the default count, and that the metric parser
rejects a record with a missing metric or unit.
"""

import argparse
import copy
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "edgehd_perfbench")
MAX_JOBS = 4


class MetricError(ValueError):
    """A run record does not carry the metrics BENCHMARK.json declares."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def required_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def parse_metrics(record, required):
    """Returns {name: {"value", "unit"}} for exactly the `required` metrics.

    Raises MetricError when a metric is missing, has no unit or another unit
    than declared, or has a value that is not a finite number.
    """
    got = record.get("metrics")
    if not isinstance(got, dict):
        raise MetricError("record has no metrics")
    out = {}
    for m in required:
        name = m["name"]
        if name not in got:
            raise MetricError(f"missing metric {name}")
        entry = got[name]
        unit = entry.get("unit") if isinstance(entry, dict) else None
        if not unit:
            raise MetricError(f"metric {name} has no unit")
        if unit != m["unit"]:
            raise MetricError(f"metric {name} has unit {unit}, expected {m['unit']}")
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise MetricError(f"metric {name} has no numeric value")
        out[name] = {"value": value, "unit": unit}
    return out


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = max(1, min(MAX_JOBS, os.cpu_count() or 1))
    steps.append([cmake, "--build", BUILD, "-j", str(jobs)])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail("build failed")


def run_driver(workload, seed, seconds, trace, threads=None, tamper=False):
    """Runs the compiled driver and returns its run record."""
    os.makedirs(BUILD, exist_ok=True)
    result = os.path.join(BUILD, f"result-{workload}-{seed}-{int(trace)}.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--result", result]
    if trace:
        cmd += ["--spans", os.path.join(BUILD, f"spans-{workload}-{seed}.json")]
    if threads:
        cmd += ["--threads", str(threads)]
    if tamper:
        cmd.append("--tamper")
    sys.stdout.flush()
    p = subprocess.run(cmd, cwd=ROOT)
    if p.returncode != 0:
        fail(f"driver exited with code {p.returncode}")
    with open(result) as f:
        return json.load(f)


def source_digest():
    """SHA-1 over the library and benchmark sources (the checkout may not be
    a git repository, so this names the code that was measured)."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 and p.stdout.strip() else "unknown"


def run(args):
    spec = load_spec()
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}")
    build()
    record = run_driver(args.workload, args.seed, args.seconds, args.trace)
    try:
        metrics = parse_metrics(record, required_metrics(spec, args.trace))
    except MetricError as e:
        fail(str(e))
    for name, m in record["metrics"].items():
        print(f"metric {name:34s} {m['value']:.6g} {m['unit']}")
    print("record: " + json.dumps({
        "workload": args.workload, "why": workloads[args.workload],
        "seed": args.seed, "trace": int(args.trace), "commit": git_commit(),
        "source_digest": source_digest(),
        "kernel_backend": record["kernel_backend"],
        "workers": record["workers"], "nproc": record["nproc"],
        "digest": record["digest"]}))
    checks = record["checks"]
    print(json.dumps({"correct": bool(checks) and all(c["passed"] for c in checks),
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


# ---- self-test ----------------------------------------------------------------

def parser_self_test(spec):
    """The parser accepts a complete record and rejects a missing metric, a
    missing unit, a wrong unit and a non-numeric value."""
    required = required_metrics(spec, False)
    good = {"metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                        for m in required}}
    parse_metrics(good, required)
    first = required[0]["name"]
    bad = []
    missing = copy.deepcopy(good)
    del missing["metrics"][first]
    bad.append(("missing metric", missing))
    no_unit = copy.deepcopy(good)
    del no_unit["metrics"][first]["unit"]
    bad.append(("missing unit", no_unit))
    wrong_unit = copy.deepcopy(good)
    wrong_unit["metrics"][first]["unit"] = "furlong"
    bad.append(("wrong unit", wrong_unit))
    no_value = copy.deepcopy(good)
    no_value["metrics"][first]["value"] = "fast"
    bad.append(("non-numeric value", no_value))
    ok = True
    for label, record in bad:
        try:
            parse_metrics(record, required)
            print(f"self-test: parser accepted a record with a {label}: FAIL")
            ok = False
        except MetricError as e:
            print(f"self-test: parser rejects a {label} ({e}): ok")
    return ok


def layer_map_self_test(spec):
    """Every per-layer metric names the end-to-end metric it should move;
    the trace layer's own cost and coverage move none."""
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    ok = True
    for m in spec["per_layer"]:
        entry = layer_map.get(m["name"])
        moves = entry.get("moves", []) if entry else []
        valid = entry is not None and (entry.get("layer") == "trace" or moves) and all(
            mv.split("@")[0] in e2e and mv.split("@")[1] in names for mv in moves)
        if not valid:
            print(f"self-test: per-layer metric {m['name']} has no valid "
                  f"entry in layer_map.json: FAIL")
            ok = False
    print(f"self-test: layer map covers {len(spec['per_layer'])} per-layer "
          f"metrics: {'ok' if ok else 'FAIL'}")
    return ok


def workload_self_test(name, seed):
    """A normal run passes every check; a tampered run on one worker thread
    fails every check; both give the same deterministic digest."""
    nproc = min(MAX_JOBS, os.cpu_count() or 1)
    normal = run_driver(name, seed, 1, False, threads=nproc)
    tampered = run_driver(name, seed, 1, False, threads=1, tamper=True)
    ok = True
    for c in normal["checks"]:
        if not c["passed"]:
            print(f"self-test: {name}: check {c['name']} failed on a clean run")
            ok = False
    passing = [c["name"] for c in tampered["checks"] if c["passed"]]
    if passing or not tampered["checks"]:
        print(f"self-test: {name}: tampered run still passes {passing}")
        ok = False
    if {c["name"] for c in normal["checks"]} != \
            {c["name"] for c in tampered["checks"]}:
        print(f"self-test: {name}: clean and tampered runs ran different checks")
        ok = False
    if normal["digest"] != tampered["digest"]:
        print(f"self-test: {name}: digest differs between {nproc} workers and "
              f"1 worker: {normal['digest']} vs {tampered['digest']}")
        ok = False
    print(f"self-test: {name}: {len(normal['checks'])} checks pass clean and fail "
          f"tampered; digest equal on 1 and {nproc} workers: "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def self_test(args):
    spec = load_spec()
    ok = parser_self_test(spec)
    ok = layer_map_self_test(spec) and ok
    build()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    for name in names:
        ok = workload_self_test(name, args.seed) and ok
    print("self-test: " + ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test(args)
    elif args.workload is None:
        fail("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
