#!/usr/bin/env python3
"""Repository benchmark: builds the library and the benchmark driver from
source, runs one workload and prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are declared in BENCHMARK.json at the repository root
(see perfbench/README.md for their definitions).  With --trace 0 the result
carries every end-to-end metric; with --trace 1 every per-layer metric (a
layer the workload leaves idle reads 0).  Everything the benchmark writes
goes under .perfbench/ at the repository root: the build, the private model
and profile cache (one per source tree, so no tree reuses another's victims or
chains), per-run detail files and scratch journals.

Exit codes: 0 with the result as the last stdout line; 1 when the build,
a self-test, a correctness gate or the workload fails (no result printed);
2 on bad arguments or when the library sources are missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(STATE, "build")
DRIVER_TIMEOUT_S = 170       # a run with a warm cache
COLD_DRIVER_TIMEOUT_S = 600  # the first run of a tree also trains every victim


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def tree_hash(root):
    """SHA-256 over the sources the benchmark builds and runs: src/ and
    perfbench/, by relative path and content (Python bytecode caches
    excluded, since running the self-tests writes them)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cache_dir(root):
    """The private cache of the tree under test: trained victims, profiles,
    the served flip plan and the chain digests of earlier runs.  Keyed by
    the tree's content, so another revision built in the same checkout
    (or an uncommitted edit) starts from a cold cache of its own."""
    return os.path.join(root, ".perfbench", "cache", tree_hash(root))


def source_revision(root):
    """`git rev-parse HEAD`, or a content hash of the sources the benchmark
    builds when the tree is not a git checkout.  Never "unknown"."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only a repository rooted here names this tree, not an enclosing one.
        if (out.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(root)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "tree-" + tree_hash(root)


def result_line(spec, detail, trace):
    """The one-line result: `correct`, `attempted`, `failed` and, by the
    spec's declared names and units, the end-to-end metrics (trace 0) or
    the per-layer ledger (trace 1).  Raises ValueError when the driver
    measured a name the spec does not declare, a unit differs, or a
    declared end-to-end metric is missing."""
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    measured = detail["metrics"]
    for name, m in measured.items():
        if name not in declared:
            raise ValueError("metric %s is not declared in BENCHMARK.json" % name)
        if m["unit"] != declared[name]:
            raise ValueError("metric %s has unit %s, BENCHMARK.json says %s"
                             % (name, m["unit"], declared[name]))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]["value"]
        elif trace:
            value = 0  # a layer this workload leaves idle
        else:
            raise ValueError("end-to-end metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted, failed = int(detail["attempted"]), int(detail["failed"])
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return json.dumps({"correct": True, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def build():
    os.makedirs(STATE, exist_ok=True)
    log = os.path.join(STATE, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_driver", "perfbench_tests"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                with open(log) as r:
                    sys.stderr.write("".join(r.readlines()[-40:]))
                fail("build failed (log: .perfbench/build.log)")


def self_test():
    if subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                      stdout=subprocess.DEVNULL).returncode != 0:
        fail("C++ self-tests failed")
    if subprocess.run([sys.executable, "-m", "unittest", "-q", "test_run"],
                      cwd=os.path.join(HERE, "tests"), stdout=subprocess.DEVNULL,
                      stderr=subprocess.DEVNULL).returncode != 0:
        fail("python self-tests failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload, 2)

    build()
    self_test()

    commit = source_revision(ROOT)
    cache = cache_dir(ROOT)
    work = os.path.join(STATE, "work", str(os.getpid()))
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache", cache, "--work", work,
           "--out", out, "--commit", commit]
    timeout = DRIVER_TIMEOUT_S if os.path.isdir(cache) else COLD_DRIVER_TIMEOUT_S
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = None
    shutil.rmtree(work, ignore_errors=True)
    if code is None:
        fail("workload exceeded %d s" % timeout)
    if code != 0:
        fail("driver exited with code %d" % code)

    with open(out) as f:
        detail = json.load(f)
    try:
        line = result_line(spec, detail, args.trace)
    except ValueError as e:
        fail(str(e))
    print("perfbench machine: " + json.dumps(detail["machine"], sort_keys=True))
    print(line)


if __name__ == "__main__":
    main()
