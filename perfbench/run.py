#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <check-corpus|serve-mix|forward> \
        --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of the checkout. The build goes to .bench_build/perfbench
(RelWithDebInfo, like the repository's default). The last line of standard
output is the benchmark's JSON result; build output goes to standard error.
Exits non-zero without a result when the sources cannot be built.
"""

import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vsd_perfbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                              stdout=sys.stderr, env=env)
        return done.returncode == 0


def run(args):
    done = subprocess.run([BINARY] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=175)
    return done.returncode, done.stdout


def last_json(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    """At a tiny size: every metric of BENCHMARK.json is printed with its
    unit, a wrong pinned verdict is counted as failed, and altered
    counterexample bytes in a daemon response are caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    tiny = ["--seed", "1", "--seconds", "1", "--size-pct", "5"]
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run(["--workload", w["name"], "--trace", trace] + tiny)
            res = last_json(out) if code == 0 else None
            where = "%s --trace %s" % (w["name"], trace)
            if res is None:
                problems.append("%s: exit %d, no result" % (where, code))
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: keys %s" % (where, sorted(res)))
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s: outputs not correct" % where)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                problems.append("%s: metrics/units differ: %s" % (
                    where, sorted(set(got.items()) ^ set(want.items()))))
    for workload, fault in (("check-corpus", "wrong-expected"),
                            ("serve-mix", "cex-bytes")):
        code, out = run(["--workload", workload, "--trace", "1",
                         "--inject", fault] + tiny)
        res = last_json(out) if code == 0 else None
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append("%s --inject %s: fault not counted" %
                            (workload, fault))
    for p in problems:
        print("self-test: " + p)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    code, out = run(sys.argv[1:])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
