#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py at toy size and
checks that:
  * BENCHMARK.json keeps the shape the benchmark relies on;
  * an untraced run prints every end-to-end metric, with its unit and a
    non-zero value, in the final JSON line, and nothing else there;
  * a traced run prints every per-layer metric with its unit;
  * a run whose output is corrupted (one reported cost falsified before
    the check) fails: it exits non-zero and prints no result.
Exits 1 listing every failed expectation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the workload definitions live there)

problems = []


def expect(ok, what):
    if not ok:
        problems.append(what)
        print("FAIL " + what, flush=True)


def bench_run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--toy"] + (["--corrupt"] if corrupt else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stderr


def check_metrics(workload, result, declared):
    label = "%s: " % workload
    expect(result is not None, label + "no JSON result line")
    if result is None:
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           label + "result keys are %s" % sorted(result))
    expect(result.get("correct") is True, label + "correct is not true")
    expect(isinstance(result.get("attempted"), int) and
           result["attempted"] >= 1, label + "attempted < 1")
    expect(isinstance(result.get("failed"), int), label + "failed not int")
    metrics = result.get("metrics", {})
    expect(set(metrics) == set(declared),
           label + "metric names differ: missing %s, extra %s" % (
               sorted(set(declared) - set(metrics)),
               sorted(set(metrics) - set(declared))))
    for name, unit in declared.items():
        m = metrics.get(name, {})
        expect(set(m) == {"value", "unit"}, label + name + " keys")
        expect(m.get("unit") == unit, label + "%s unit %r, declared %r" % (
            name, m.get("unit"), unit))
        expect(isinstance(m.get("value"), (int, float)),
               label + name + " value is not a number")


def main():
    bench = run.load_benchmark()
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in bench["workloads"]]
    expect(set(names) <= set(run.WORKLOADS),
           "BENCHMARK.json names a workload run.py does not define")
    expect(any(m["name"] == "setup_s" for m in bench["end_to_end"]),
           "setup_s is not an end-to-end metric")
    expect(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
           "an end-to-end bound is outside (0, 0.25]")
    expect(float(run.slo_limit_ms(bench)) > 0, "serve latency limit")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for workload in names:
        print("== " + workload, flush=True)
        code, result, err = bench_run(workload, 0)
        expect(code == 0, "%s: untraced run exited %d: %s" % (
            workload, code, err[-500:]))
        check_metrics(workload, result, e2e)
        if result:
            for name, m in result["metrics"].items():
                expect(m["value"] != 0, "%s: %s is 0" % (workload, name))

        code, result, err = bench_run(workload, 1)
        expect(code == 0, "%s: traced run exited %d: %s" % (
            workload, code, err[-500:]))
        check_metrics(workload + " (traced)", result, layers)

        code, result, err = bench_run(workload, 0, corrupt=True)
        expect(code != 0, "%s: corrupted output passed the check" % workload)
        expect(result is None, "%s: corrupted run printed a result" % workload)
        expect("output check" in err,
               "%s: corrupted run did not report the failed check" % workload)

    if problems:
        print("%d self-test failure(s)" % len(problems))
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
