#!/usr/bin/env python3
"""Benchmark of the IO-Lite reproduction.

Run from the repository root:

    python3 iolbench/run.py --workload web-mem --seed 1 --seconds 35 --trace 0

It builds iolbench/bench.exe (dune, release profile), runs it at the
given seed in rounds of two repeats at once (one per CPU, each pinned to
its own), at least two rounds and as many as fit in --seconds, checks
every repeat's outputs, and prints a table of every metric with its unit
and clock, then one JSON object as the last line. With --trace 0 the JSON carries
the end-to-end metrics; with --trace 1 it carries the per-layer metrics
of one untraced repeat plus one traced repeat, and a Chrome trace is
written to iolbench/out/<workload>.trace.json.

Two clocks: "virtual" numbers are the simulated 1999 machine's and are
a pure function of the seed (repeats must agree byte for byte); "host"
numbers are the simulator's own cost on the machine running it.

Repeats of one seed replay identical work, so a repeat that took longer
on the host clock was slowed by the machine, not by the program. On a
shared machine each CPU's speed dips for seconds at a time, so
host_us_per_op takes each quarter-simulated-second step of Engine.run at
its fastest over all repeats on both CPUs and sums those steps; host
numbers are thus the simulator's cost with both CPUs running it.
bench.exe runs with glibc's malloc on transparent huge pages, which makes
its host times vary less from process to process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = "_iolbench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "iolbench", "bench.exe")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("web-mem", "web-disk", "file-rw")
MIN_REPEATS = 4
# Repeats run this many at a time, one per CPU, each pinned to its own.
PARALLEL = 2
# Each run must end well inside 180 s; stop repeating before this.
RUN_BUDGET_S = 150.0
REPEAT_TIMEOUT_S = 120.0

# name: (clock, unit, better, meaning)
END_TO_END = {
    "sim_mbps": ("virtual", "Mb/s", "higher",
                 "payload the IO-Lite path delivers per simulated second"),
    "sim_p50_ms": ("virtual", "ms", "lower",
                   "median IO-Lite operation latency, send to last byte"),
    "sim_p99_ms": ("virtual", "ms", "lower", "p99 of the same samples"),
    "sim_speedup": ("virtual", "ratio", "higher",
                    "IO-Lite sim_mbps / conventional sim_mbps, same input"),
    "host_us_per_op": ("host", "us", "lower",
                       "wall time inside Engine.run per operation, both paths;"
                       " each 0.25 s step at its fastest over the repeats"),
    "setup_s": ("host", "s", "lower",
                "wall time before the first simulated operation"),
    "host_heap_mb": ("host", "MB", "lower", "peak OCaml major heap"),
}
# Printed with the end-to-end table; 0 by requirement, so it travels in
# the "failed"/"attempted" fields rather than as a bounded metric.
ERROR_RATE = ("virtual", "fraction", "lower",
              "failed operations / attempted, all repeats")

# Per-layer metrics of the IO-Lite leg over the measured window (the
# traced slice for attrib.*, span.*, trace.*).
PER_LAYER = {
    "error_rate": ERROR_RATE,
    "sim.run_host_s": ("host", "s", "lower", "Engine.run wall time, both paths"),
    "sim.alloc_words_per_op": ("host", "words/op", "lower",
                               "OCaml words allocated in Engine.run per op"),
    "setup.trace_s": ("host", "s", "lower", "trace synthesis and request log"),
    "setup.warm_s": ("host", "s", "lower", "warm start, both paths"),
    "setup.warm_fill_mb": ("virtual", "MB", "lower", "bytes the warm start inserted"),
    "setup.warm_resident_mb": ("virtual", "MB", "higher",
                               "bytes cached after the warm start"),
    "cpu.util": ("virtual", "ratio", "lower", "CPU busy / window"),
    "cpu.us_per_op": ("virtual", "us/op", "lower", "CPU busy per operation"),
    "cpu.switches_per_op": ("virtual", "count/op", "lower", "context switches per op"),
    "net.cksum_scanned_ratio": ("virtual", "ratio", "lower",
                                "checksum bytes scanned / bytes checksummed"),
    "link.util": ("virtual", "ratio", "higher", "link busy / window"),
    "transfer.warm_ratio": ("virtual", "ratio", "higher",
                            "transfers decided by the grant epoch alone"),
    "bytes.copied_per_op": ("virtual", "bytes/op", "lower", "data copies per op"),
    "pool.fresh": ("virtual", "count", "lower", "fresh pool chunks"),
    "cache.hit_ratio": ("virtual", "ratio", "higher",
                        "file reads whose whole file was cached when sent"),
    "cache.eviction_per_op": ("virtual", "count/op", "lower", "cache evictions per op"),
    "cache.fill_coalesced": ("virtual", "count", "higher",
                             "misses that joined an in-flight fill"),
    "cache.readahead_hit_ratio": ("virtual", "ratio", "higher",
                                  "readahead extents later read"),
    "vm.pageout_pages": ("virtual", "count", "lower", "pages reclaimed by pageout"),
    "vm.pageout_entry_evictions": ("virtual", "count", "lower",
                                   "cache entries evicted by pageout"),
    "vm.page_fault": ("virtual", "count", "lower", "page faults"),
    "disk.reads": ("virtual", "count", "lower", "disk read requests"),
    "disk.writes": ("virtual", "count", "lower", "disk write requests"),
    "disk.util": ("virtual", "ratio", "lower", "disk busy / window"),
    "disk.batched_ratio": ("virtual", "ratio", "higher",
                           "requests sharing an elevator round"),
    "write.cluster_writes": ("virtual", "count", "lower", "clustered write-backs"),
    "write.extents_per_cluster": ("virtual", "count", "higher",
                                  "4 KB extents per cluster write"),
    "write.flushes": ("virtual", "count", "lower", "flush rounds with work"),
    "write.superseded": ("virtual", "count", "higher",
                         "dirty bytes replaced before write-back"),
    "write.throttled": ("virtual", "count", "lower", "writes blocked at the dirty limit"),
    "lat.read_p99_ms": ("virtual", "ms", "lower", "p99 whole-file read"),
    "lat.write_p99_ms": ("virtual", "ms", "lower", "p99 4 KB write call"),
    "lat.fsync_p99_ms": ("virtual", "ms", "lower", "p99 fsync"),
    "cgi.served": ("virtual", "count", "higher", "FastCGI documents served via pipe"),
    "lat.static_p99_ms": ("virtual", "ms", "lower", "p99 static request"),
    "lat.cgi_p99_ms": ("virtual", "ms", "lower", "p99 FastCGI request"),
    "lat.samples": ("virtual", "count", "higher", "latency samples in the window"),
    "conv.sim_mbps": ("virtual", "Mb/s", "higher", "conventional path sim_mbps"),
    "attrib.queue_share": ("virtual", "ratio", "lower", "request wall in queues"),
    "attrib.disk_service_share": ("virtual", "ratio", "lower",
                                  "request wall in disk service"),
    "attrib.coalesced_wait_share": ("virtual", "ratio", "lower",
                                    "request wall waiting on another's fill"),
    "attrib.vm_stall_share": ("virtual", "ratio", "lower",
                              "request wall in pageout and swap-in"),
    "attrib.cpu_share": ("virtual", "ratio", "lower", "request wall on the CPU"),
    "attrib.requests": ("virtual", "count", "higher", "attributed requests"),
    "span.os.self_ms": ("virtual", "ms/op", "lower", "os span self time per op"),
    "span.net.self_ms": ("virtual", "ms/op", "lower", "net span self time per op"),
    "span.disk.self_ms": ("virtual", "ms/op", "lower", "disk span self time per op"),
    "span.wb.self_ms": ("virtual", "ms/op", "lower", "wb span self time per op"),
    "span.httpd.self_ms": ("virtual", "ms/op", "lower", "httpd span self time per op"),
    "trace.overhead": ("host", "ratio", "lower",
                       "traced / untraced host time over the traced slice"),
    "trace.events": ("virtual", "count", "lower", "trace events retained"),
    "trace.dropped": ("virtual", "count", "lower", "trace events dropped"),
}


def fail(msg):
    print("iolbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./iolbench/bench.exe"]
    # No shared dune cache: the build writes only inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(ROOT, BUILD_DIR, "cache"))
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0 or not os.path.exists(EXE):
        fail("build failed:\n" + p.stdout[-4000:])


def repeats(workload, seed, cpus, traced=None):
    """Run one repeat per CPU in [cpus] at once, each pinned to its CPU;
    return their results."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--traced", traced]
    env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")
    procs = []
    try:
        for cpu in cpus:
            procs.append(subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu})))
        deadline = time.monotonic() + REPEAT_TIMEOUT_S
        results = []
        for p in procs:
            try:
                out, err = p.communicate(
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("%s seed %d: repeat timed out" % (workload, seed))
            if p.returncode != 0:
                fail("%s seed %d: bench.exe exited %d:\n%s"
                     % (workload, seed, p.returncode, err[-4000:]))
            lines = out.strip().splitlines()
            if not lines:
                fail("%s seed %d: no output" % (workload, seed))
            results.append(json.loads(lines[-1]))
        return results
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def fmt(v):
    return "%.6g" % v


def print_table(title, values, spec):
    print(title)
    for name, v in values.items():
        clock, unit, better, meaning = spec[name]
        print("  %-28s %14s %-9s %-8s %-7s %s"
              % (name, fmt(v), unit, clock, better, meaning))


def checks(reps):
    """Output checks over repeats of one seed: no failed operation, and
    byte-identical virtual results in every repeat."""
    problems = []
    for r in reps:
        problems += r["errors"]
    first = json.dumps(reps[0]["virtual"], sort_keys=True)
    if any(json.dumps(r["virtual"], sort_keys=True) != first for r in reps[1:]):
        problems.append("virtual metrics differ between same-seed repeats")
    if any(len(r["steps"]) != len(reps[0]["steps"]) for r in reps[1:]):
        problems.append("Engine.run steps differ between same-seed repeats")
    if reps[0]["virtual"]["lat.samples"] < 1000:
        problems.append("fewer than 10 latency samples beyond the p99")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cpus = sorted(os.sched_getaffinity(0))[:PARALLEL]
    start = time.monotonic()
    reps = []
    if args.trace == 0:
        # Start another round of repeats only while it is expected to
        # end within --seconds (and, for the minimum count, within the
        # budget).
        longest = 0.0
        while True:
            t0 = time.monotonic()
            reps += repeats(args.workload, args.seed, cpus)
            longest = max(longest, time.monotonic() - t0)
            ends = time.monotonic() - start + longest
            if len(reps) >= MIN_REPEATS and ends > args.seconds:
                break
            if ends > RUN_BUDGET_S:
                break
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_file = os.path.join(OUT_DIR, args.workload + ".trace.json")
        reps += repeats(args.workload, args.seed, cpus[:1])
        traced = repeats(args.workload, args.seed, cpus[:1],
                         traced=trace_file)[0]

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = checks(reps)
    if args.trace == 1:
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["errors"]
    virt = reps[0]["virtual"]
    error_rate = failed / attempted if attempted else 1.0

    if args.trace == 0:
        med = lambda f: statistics.median(f(r["host"]) for r in reps)
        metrics = {
            "sim_mbps": virt["sim_mbps"],
            "sim_p50_ms": virt["sim_p50_ms"],
            "sim_p99_ms": virt["sim_p99_ms"],
            "sim_speedup": virt["sim_speedup"],
            "host_us_per_op": 1e6 * sum(map(min, zip(*(r["steps"] for r in reps))))
                              / reps[0]["host"]["ops"],
            "setup_s": med(lambda h: h["setup_s"]),
            "host_heap_mb": med(lambda h: h["heap_mb"]),
        }
        print_table("%s seed %d: %d repeats, %d latency samples per repeat"
                    % (args.workload, args.seed, len(reps), virt["lat.samples"]),
                    dict(metrics, error_rate=error_rate),
                    dict(END_TO_END, error_rate=ERROR_RATE))
        spec = END_TO_END
    else:
        host = reps[0]["host"]
        metrics = {name: virt[name] for name in PER_LAYER if name in virt}
        metrics.update(traced["traced"])
        untraced_slice = host["slice_s"]
        metrics.update({
            "error_rate": error_rate,
            "sim.run_host_s": host["run_s"],
            "sim.alloc_words_per_op": host["alloc_words"] / host["ops"],
            "setup.trace_s": host["setup.trace_s"],
            "setup.warm_s": host["setup.warm_s"],
            "trace.overhead": (traced["host"]["slice_s"] / untraced_slice
                               if untraced_slice > 0 else 0.0),
        })
        metrics = {name: metrics[name] for name in PER_LAYER}
        print_table("%s seed %d: per-layer, IO-Lite path (trace: %s)"
                    % (args.workload, args.seed,
                       os.path.relpath(trace_file, ROOT)),
                    metrics, PER_LAYER)
        spec = PER_LAYER

    for p in problems[:10]:
        print("CHECK FAILED: " + p)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec[name][1]}
                    for name in spec if name in metrics},
    }))


if __name__ == "__main__":
    main()
