#!/usr/bin/env python3
"""Repository benchmark: runs one named workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_runner (the workload runner, linked against the library
sources under src/) into $CARGO_TARGET_DIR (default .bench_build) on first
use, runs the workload in its own process, checks every output the
program returned, and prints a human-readable report followed, as the last
line of standard output, by one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off. With --trace 1 they are the per-layer metrics:
the run enables the obs trace recorder, adds the benchmark's own spans
around its calls into each layer's public functions, and reduces the span
tree to per-layer counts, busy time, self time and waits. A failed output
check prints no result and exits 1.

--toy shrinks every workload to a few seconds of tiny inputs and --corrupt
falsifies one reported cost before it is checked; selftest.py uses both.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The workloads. Each entry records why it was chosen, which layer it
# loads, and which optimisation it should leave unchanged (the prediction
# a change on another layer is checked against). `params` go to the
# runner as key=value; `toy` overrides them for the self-test.
WORKLOADS = {
    "campaign-grid": {
        "why": "Many small cells: the fixed per-cell costs (build, "
               "registry.create, validate, cost, record serialization, "
               "store append) carry a large share of the time.",
        "loads": "exp (campaign runner, record codec, result store), "
                 "sim.build, solver wrapper, core.validate and core.cost",
        "unchanged": "A faster evaluateCostPrefix (online only) or a faster "
                     "serve parser should leave campaign-grid flat.",
        "operation": "campaign cell",
        "params": {
            "families": "atacseq,bacass,eager,methylseq",
            "tasks": "200",
            "bacass-tasks": "60",
            "nodes-per-type": "2,4",
            "scenarios": "S1,S2,S3,S4",
            "deadline-factors": "1.0,1.5,2.0,3.0",
            "intervals": "24",
            "algos": "ASAP,slack*,press*,greenheft",
            # At most nproc runner threads; one core stays free for store
            # flushes and the rest of the system.
            "threads": "3",
            "pool": "4",
            "check-every": "16",
        },
        "toy": {"families": "atacseq,bacass", "tasks": "40",
                "bacass-tasks": "20", "nodes-per-type": "2",
                "scenarios": "S1,S3", "deadline-factors": "1.5",
                "algos": "ASAP,pressWR*,greenheft", "pool": "2",
                "check-every": "2"},
    },
    "solve-large": {
        "why": "The core kernels do more than 90 % of the work while the "
               "exp, serve and online layers are idle; the plain "
               "single-thread baseline.",
        "loads": "core.greedy, core.ls, core.context priming, "
                 "core.validate and core.cost",
        "unchanged": "A faster store append or record serializer should "
                     "leave solve-large flat; so should a faster "
                     "evaluateCostPrefix, which replay-reactive exercises.",
        "operation": "solve",
        "params": {
            "algo": "pressWR-LS",
            "families": "atacseq,methylseq",
            "scenarios": "S1,S2,S3,S4",
            "deadline-factors": "1.5,2.0",
            "tasks": "5000",
            "nodes-per-type": "2",
            "intervals": "24",
            "block-size": "3",
            "ls-radius": "10",
        },
        "toy": {"tasks": "100", "scenarios": "S1,S2",
                "deadline-factors": "1.5"},
    },
    "serve-skewed": {
        "why": "Zipf-skewed open-loop traffic at N~200 over more distinct "
               "instances than the 16-entry cache, one request in 18 a "
               "reactive replay: the only workload where parse, admission "
               "queue, cache and respond matter.",
        "loads": "serve (parser, admission queue, context cache, per-entry "
                 "lock, respond) plus sim.build on cache misses",
        "unchanged": "A faster local-search kernel moves serve only through "
                     "its solves; a faster store append should leave "
                     "serve-skewed flat.",
        "operation": "request",
        "params": {
            "algo": "pressWR-LS",
            "policy": "reactive:threshold=0.1",
            "replay-every": "18",
            "runtime-noise": "0",
            "forecast-noise": "0.3",
            "timeout-ms": "5000",
            # One pipelined connection, the protocol's natural client:
            # responses come back out of order, correlated by id.
            "connections": "1",
            "families": "atacseq,eager,methylseq,bacass",
            "scenarios": "S1,S2,S3,S4",
            "distinct": "64",
            "tasks": "200",
            "nodes-per-type": "2",
            "intervals": "24",
            "zipf-s": "1.4",
            "workers": "4",
            "queue-capacity": "64",
            "cache-capacity": "16",
            "warm-entries": "16",
            "block-size": "3",
            "ls-radius": "10",
            # 990 Poisson arrivals at 120/s: fewer than 1000 samples, so
            # the tail is p95. The listener leaves Nagle's algorithm on, so
            # a response often waits for the client's next request to carry
            # the ACK its predecessor needs; that wait, not the ~1.3 ms of
            # service, sets p50. (Evenly spaced arrivals flip between two
            # TCP delayed-ACK regimes from run to run.)
            "rate": "120",
            "requests": "990",
            "drain-s": "5",
            "ladder-base-rps": "50",
            "ladder-step": "1.05",
            "ladder-rungs": "64",
        },
        "toy": {"tasks": "40", "distinct": "8", "cache-capacity": "4",
                "warm-entries": "4", "rate": "50", "requests": "50",
                "ladder-rungs": "4", "drain-s": "2"},
    },
    "replay-reactive": {
        "why": "Online replays with forecast and runtime noise, alternating "
               "reactive and periodic policies: the online layer's "
               "per-event work dominates.",
        "loads": "online (ReplayEngine::step, policy deviation signal via "
                 "evaluateCostPrefix, residual re-solves via greedy.residual)",
        "unchanged": "A faster evaluateCostPrefix should move replay-reactive "
                     "and leave solve-large flat; a faster local search "
                     "should leave replay-reactive flat (re-solves run none).",
        "operation": "replay event",
        "params": {
            "algo": "pressWR-LS",
            "families": "atacseq,eager",
            "scenarios": "S1,S3",
            # Two reactive replays per periodic one: periodic events cost
            # about a microsecond, so a 1:1 mix would put the median in the
            # gap between the two modes.
            "policies": "reactive:threshold=0.1,periodic:every=2,"
                        "reactive:threshold=0.2",
            "tasks": "1000",
            "nodes-per-type": "2",
            "intervals": "24",
            "deadline-factor": "1.5",
            "runtime-noise": "0.2",
            "forecast-noise": "0.3",
            "block-size": "3",
            "ls-radius": "10",
        },
        "toy": {"tasks": "60"},
    },
}

# Per-layer span ownership: a layer's busy time is the self time of these
# spans (time not covered by a nested span). Names with a layer prefix
# (sim., core., solver., exp., serve.parse, online.) and bench.op are the
# benchmark's own spans around its calls; the rest are spans the program
# records itself. Layers timed whole (store append, replay events,
# re-solves, planning) use their spans' total duration in per_layer().
LAYER_SPANS = {
    "sim.build": ["sim.build", "campaign.build"],
    "core.context.prime": ["core.context.prime", "context.prime",
                           "context.refine", "context.budget_tree",
                           "context.score_order"],
    "core.greedy": ["greedy", "greedy.residual"],
    "core.ls": ["ls", "ls.restart", "ls.climb", "ls.round"],
    "core.validate": ["core.validate"],
    "core.cost": ["core.cost", "core.bound_hash"],
    "solver.create": ["solver.create"],
    "exp.record": ["exp.record"],
    "serve.parse": ["serve.parse"],
    "serve.respond": ["serve.respond"],
    "unattributed": ["bench.op"],
}

TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def slo_limit_ms(bench):
    """The serve latency limit is fixed in BENCHMARK.json's serve-skewed
    `why` ("... N ms latency limit ...")."""
    for w in bench["workloads"]:
        if w["name"] == "serve-skewed":
            m = re.search(r"(\d+(?:\.\d+)?) ms latency limit", w["why"])
            if m:
                return m.group(1)
    fail("BENCHMARK.json states no 'N ms latency limit' for serve-skewed")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build():
    out = os.path.join(build_dir(), "perfbench")
    runner = os.path.join(out, "perfbench_runner")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return runner


def percentile(sorted_values, q):
    n = len(sorted_values)
    return sorted_values[min(n - 1, int(q * n))]


def tail(sorted_values):
    """The highest ladder percentile with at least ten samples beyond it."""
    n = len(sorted_values)
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n - 1 - min(n - 1, int(q * n)) >= 10:
            chosen = q
    return chosen, percentile(sorted_values, chosen)


def reduce_spans(trace_path):
    """Per span name: count, total and self time (ms) from the Chrome
    trace's complete events, nesting by containment on each thread; plus
    the context-cache misses (instance builds) seen by serve."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    lanes = {}
    for e in events:
        if e.get("ph") == "X":
            lanes.setdefault(e["tid"], []).append(e)
    stats = {}
    misses = {"count": 0, "ms": 0.0}

    def close(frame):
        name, dur, child = frame[1], frame[2], frame[3]
        s = stats.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        s["count"] += 1
        s["total_ms"] += dur / 1000.0
        s["self_ms"] += max(0.0, dur - child) / 1000.0

    for lane in lanes.values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # frames: [end_us, name, dur_us, child_us]
        for e in lane:
            start, dur = e["ts"], e["dur"]
            while stack and start >= stack[-1][0] - 1e-3:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([start + dur, e["name"], dur, 0.0])
            if e["name"] == "serve.cache_acquire" and \
                    e.get("args", {}).get("hit") == 0:
                misses["count"] += 1
                misses["ms"] += dur / 1000.0
        while stack:
            close(stack.pop())
    return stats, misses


def per_layer(raw, trace_path, bench):
    stats, misses = reduce_spans(trace_path)
    counters = raw["counters"]

    def total(*names):
        return sum(stats.get(n, {}).get("total_ms", 0.0) for n in names)

    def count(*names):
        return sum(stats.get(n, {}).get("count", 0) for n in names)

    def busy(layer):
        return sum(stats.get(n, {}).get("self_ms", 0.0)
                   for n in LAYER_SPANS[layer])

    # Solver stats carry the rounds where the benchmark sees the result;
    # replay plans are solved inside the engine, so count their spans.
    rounds = counters.get("core.ls.rounds", count("ls.round"))
    moves = counters.get("core.ls.moves", 0.0)
    m = {
        "sim.build.calls": count("sim.build", "campaign.build") + misses["count"],
        "sim.build.busy_ms": busy("sim.build") + misses["ms"],
        "core.context.prime_ms": busy("core.context.prime"),
        "core.greedy.calls": count("greedy", "greedy.residual"),
        "core.greedy.busy_ms": busy("core.greedy"),
        "core.ls.busy_ms": busy("core.ls"),
        "core.ls.rounds": rounds,
        "core.ls.moves": moves,
        "core.ls.moves_per_round": moves / rounds if rounds else 0.0,
        "core.validate.busy_ms": busy("core.validate"),
        "core.cost.busy_ms": busy("core.cost"),
        "solver.create.busy_ms": busy("solver.create"),
        "solver.wrapper_ms": counters.get("solver.wrapper_ms", 0.0),
        "exp.record.busy_ms": busy("exp.record"),
        "exp.store.append_ms": total("exp.store.append"),
        "exp.store.fsyncs": counters.get("exp.store.fsyncs", 0.0),
        "exp.store.bytes": counters.get("exp.store.bytes", 0.0),
        "exp.campaign.worker_busy_frac":
            counters.get("exp.campaign.worker_busy_frac", 0.0),
        "serve.parse.busy_ms": busy("serve.parse"),
        "serve.respond.busy_ms": busy("serve.respond"),
        "serve.queue_wait_p50_ms": counters.get("serve.queue_wait_p50_ms", 0.0),
        "serve.queue_wait_tail_ms": counters.get("serve.queue_wait_tail_ms", 0.0),
        "serve.entry_wait_ms": stats.get("serve.handle", {}).get("self_ms", 0.0),
        "serve.cache.hit_ratio": counters.get("serve.cache.hit_ratio", 0.0),
        "serve.cache.evictions": counters.get("serve.cache.evictions", 0.0),
        "serve.hot_share": counters.get("serve.hot_share", 0.0),
        "serve.rejected": counters.get("serve.rejected", 0.0),
        "serve.timeouts": counters.get("serve.timeouts", 0.0),
        "serve.generator_late_p99_ms":
            raw["extra"].get("generator_late_p99_ms", 0.0),
        # ReplayEngine::step records one replay.event span per call, in the
        # replay workload (inside the benchmark's online.step span) and in
        # serve replays alike; its re-solves are the replay.resolve spans.
        "online.step.calls": count("replay.event"),
        "online.step.self_ms": total("replay.event") - total("replay.resolve"),
        "online.resolve.calls": count("replay.resolve"),
        "online.resolve.busy_ms": total("replay.resolve"),
        "online.resolve.accept_ratio":
            counters.get("online.resolve.accept_ratio", 0.0),
        "online.plan.busy_ms": total("online.plan"),
        "unattributed_ms": counters.get("unattributed_ms", busy("unattributed")),
        "obs.trace_overhead_frac": counters.get("obs.trace_overhead_frac", 0.0),
    }
    units = {x["name"]: x["unit"] for x in bench["per_layer"]}
    missing = set(units) - set(m)
    if missing:
        fail("no measurement for per-layer metrics: " + ", ".join(sorted(missing)))
    print("span rollup (traced pass): name  count  total_ms  self_ms")
    for name in sorted(stats):
        s = stats[name]
        print("  %-22s %8d %12.3f %12.3f" % (name, s["count"], s["total_ms"],
                                            s["self_ms"]))
    return {name: {"value": m[name], "unit": units[name]} for name in units}


def end_to_end(raw, bench, workload):
    lat = sorted(raw["latencies_ms"])
    if not lat or raw["measured_s"] <= 0:
        fail("the run completed no operation")
    q, tail_ms = tail(lat)
    m = {
        "ops_per_s": raw["ops"] / raw["measured_s"],
        "latency_p50_ms": percentile(lat, 0.5),
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "carbon_ratio": raw["heuristic_cost"] / raw["asap_cost"],
    }
    failed_frac = raw["failed"] / raw["attempted"]
    print("workload %s: %d operations (%s), %d latency samples" % (
        workload, raw["ops"], WORKLOADS[workload]["operation"], len(lat)))
    print("  latency_tail_ms is p%g (%d samples beyond it)" % (
        100 * q, len(lat) - 1 - min(len(lat) - 1, int(q * len(lat)))))
    print("  failed_frac = %d / %d = %.6f ratio" % (
        raw["failed"], raw["attempted"], failed_frac))
    if "slo_rate_rps" in raw["extra"]:
        print("  slo_rate_rps = %.3f 1/s (tail <= %s ms, no failure, backlog "
              "drained)" % (raw["extra"]["slo_rate_rps"],
                            raw["extra"]["slo_limit_ms"]))
    for key in sorted(raw["extra"]):
        if key not in ("slo_rate_rps", "slo_limit_ms"):
            print("  %s = %.6g" % (key, raw["extra"][key]))
    units = {x["name"]: x["unit"] for x in bench["end_to_end"]}
    missing = set(units) - set(m)
    if missing:
        fail("no measurement for end-to-end metrics: " + ", ".join(sorted(missing)))
    for name in units:
        if not math.isfinite(m[name]):
            fail("metric %s is not a finite number" % name)
    return {name: {"value": m[name], "unit": units[name]} for name in units}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    bench = load_benchmark()
    runner = build()
    spec = WORKLOADS[args.workload]
    params = dict(spec["params"])
    if args.toy:
        params.update(spec["toy"])
    if args.workload == "serve-skewed":
        params["slo-limit-ms"] = slo_limit_ms(bench)

    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "result.json")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corrupt", "1" if args.corrupt else "0", "--work-dir", work,
           "--out", out] + ["%s=%s" % kv for kv in sorted(params.items())]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=170)
        if done.returncode != 0:
            fail("workload runner exited with %d" % done.returncode)
        with open(out) as f:
            raw = json.load(f)
        if raw["check_errors"]:
            for e in raw["check_errors"][:20]:
                print("output check failed: " + e, file=sys.stderr)
            fail("%d output check(s) failed" % len(raw["check_errors"]))
        if raw["attempted"] < 1:
            fail("the run attempted no operation")
        if args.trace:
            metrics = per_layer(raw, os.path.join(work, "trace.json"), bench)
        else:
            metrics = end_to_end(raw, bench, args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, v in metrics.items():
        print("  %-32s %16.6f %s" % (name, v["value"], v["unit"]))
    print(json.dumps({"correct": True, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
