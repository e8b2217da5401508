#!/usr/bin/env python3
"""The tgroom benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 tgbench/run.py --workload groom_hot --seed 1 --seconds 8 --trace 0

It builds `tgroom` and the benchmark client from source into
`.bench_build/`, starts real `tgroom serve` (and, for routed_hot,
`tgroom route`) processes, drives the workload from one client process
(4 connections, one thread each), checks every answer, and prints the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`)
as the last line of stdout.  See tgbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
TGROOM = os.path.join(BUILD, "tgroom", "examples", "tgroom")
TGBENCH = os.path.join(BUILD, "tgbench")

# Set-ups per run; setup_s is their median.  The last one is measured.
SETUP_REPS = 3
# The measurement is suspect, and run.py says so on stderr and in the
# context line, when the open-loop generator ran this late at p99 or the
# client thread used this share of a core.  Neither is a wrong answer,
# so neither makes a run "correct": false.
LATE_P99_LIMIT_MS = 10.0
CPU_SHARE_LIMIT = 0.85
MIN_OPEN_SAMPLES = 1000

# A traced run's closed loop takes CLOSED_SHARE of --seconds and its open
# loop the rest; an untraced run spends all of --seconds in the closed
# loop, which yields every gated metric.  Open-loop rates sit at a fifth
# to a third of what the seed sustains in the closed loop on a 4-CPU host
# (README: host steal).  Besides deployment flags (port, cache size, data
# dir, fsync, snapshot cadence), `workers` is the only flag passed to
# `serve`; `route` runs at its defaults.  Workers are few so that a run
# keeps few threads runnable on the shared host.
CLOSED_SHARE = 0.6
WORKLOADS = {
    "groom_cold": dict(workers=1, cache=None, store=False, shards=0,
                       rate=300, window=4, warm_closed=600, warm_open=300),
    "groom_hot": dict(workers=0, cache=4096, store=False, shards=0,
                      rate=5000, window=16, warm_closed=100000,
                      warm_open=5000),
    "routed_hot": dict(workers=0, cache=4096, store=False, shards=2,
                       rate=5000, window=16, warm_closed=100000,
                       warm_open=5000),
    "held_churn": dict(workers=1, cache=None, store=True, shards=0,
                       rate=150, window=2, warm_closed=300, warm_open=150),
}
SNAPSHOT_EVERY = 256  # held_churn: several snapshot + compaction cycles a run
# The router hop is measured on the hot stream, direct and through the
# router at the same rate: the traced runs of groom_cold (the gated
# workload that carries the cluster layer, since neither hot workload is
# gated) and of the two hot workloads measure whichever of the pair they
# are not.  Their replays also send this many requests through the
# router's calls.
HOP_PAIR = ("groom_hot", "routed_hot")
ROUTED_TRACE_REQUESTS = {"groom_cold": 600, "groom_hot": 5000}
TRACE_REQUESTS = {"groom_cold": 600, "groom_hot": 20000,
                  "routed_hot": 20000, "held_churn": 1000}

# The whole run, after the build, ends within this many seconds.
RUN_LIMIT_S = 160


def log(msg):
    print(f"tgbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("tgbench: run from the root of a tgroom checkout "
                         "(no CMakeLists.txt or src/ here)")
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
              "--target", "tgbench", "tgroom_tool"]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit(f"tgbench: build step failed: {' '.join(step)}")


class Daemons:
    """Every process a run starts; stop() reaps them all on any exit path."""

    def __init__(self):
        self.procs = []  # (role, Popen)

    def spawn(self, role, where, name, args):
        port_file = os.path.join(where, name + ".port")
        logf = open(os.path.join(where, name + ".log"), "w")
        proc = subprocess.Popen([TGROOM] + args +
                                ["--port", "0", "--port-file", port_file],
                                stdin=subprocess.DEVNULL, stdout=logf,
                                stderr=subprocess.STDOUT)
        logf.close()
        self.procs.append((role, proc))
        deadline = time.monotonic() + 30
        while not os.path.exists(port_file):
            if proc.poll() is not None:
                raise RuntimeError(f"{name} exited with {proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"{name} wrote no port file")
            time.sleep(0.001)
        with open(port_file) as f:
            return proc.pid, int(f.read().strip())

    def stop(self):
        # Routers first, so they never fail over to a stopping node.
        for role, proc in sorted(self.procs, key=lambda rp: rp[0] != "router"):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self.procs = []


def node_args(cfg, data_dir=None):
    args = ["serve", "--workers", str(cfg["workers"])]
    if cfg["cache"]:
        args += ["--cache", str(cfg["cache"])]
    if data_dir:
        os.makedirs(data_dir, exist_ok=True)
        args += ["--data-dir", data_dir, "--fsync", "batch",
                 "--snapshot-every", str(SNAPSHOT_EVERY)]
    return args


def start_topology(daemons, cfg, rep_dir, direct=False):
    """Starts the workload's processes; returns (port, pids, node_ports,
    router_ports)."""
    pids, node_ports = [], []
    shards = 0 if direct else cfg["shards"]
    for i in range(max(1, shards)):
        data_dir = os.path.join(rep_dir, f"data{i}") if cfg["store"] else None
        pid, port = daemons.spawn("node", rep_dir, f"node{i}", node_args(cfg, data_dir))
        pids.append(f"node:{pid}")
        node_ports.append(port)
    if shards == 0:
        return node_ports[0], pids, node_ports, []
    spec = ";".join(f"127.0.0.1:{p}" for p in node_ports)
    pid, port = daemons.spawn("router", rep_dir, "router", ["route", "--shards", spec])
    pids.append(f"router:{pid}")
    return port, pids, node_ports, [port]


def cpu_times():
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def run_client(workload, seed, cfg, seconds, port, extra, trace):
    closed_share = CLOSED_SHARE if trace else 1.0
    cmd = [TGBENCH, "client", "--workload", workload, "--seed", str(seed),
           "--port", str(port), "--rate", str(cfg["rate"]),
           "--window", str(cfg["window"]),
           "--warm-closed", str(cfg["warm_closed"]),
           "--warm-open", str(cfg["warm_open"]),
           "--closed-s", str(seconds * closed_share),
           "--open-s", str(seconds * (1 - closed_share))] + extra
    before = cpu_times()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    after = cpu_times()
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # /proc/stat's 8th field is steal: time the host ran something else.
    total = sum(after) - sum(before)
    result["host_steal_share"] = (after[7] - before[7]) / total if total else 0.0
    if done.returncode != 0 or result.get("errors_total"):
        raise RuntimeError(f"client reported errors: {result.get('errors')}")
    return result


def measure(workload, seed, seconds, run_dir, daemons, reps, trace):
    """Set up `reps` times (setup_s is their median), measure on the last
    set-up, then answer the verification set.  Returns the client result
    with "setup_s" and the verification answers path."""
    cfg = WORKLOADS[workload]
    setups = []
    for rep in range(reps):
        rep_dir = os.path.join(run_dir, f"rep{rep}")
        os.makedirs(rep_dir)
        last = rep == reps - 1
        t0 = time.monotonic()
        port, pids, node_ports, router_ports = start_topology(daemons, cfg, rep_dir)
        answers = os.path.join(rep_dir, "answers.ndjson")
        extra = ["--setup-only", "0" if last else "1",
                 "--pids", ",".join(pids),
                 "--stats-ports", ",".join(map(str, node_ports)),
                 "--router-port", ",".join(map(str, router_ports)),
                 "--answers", answers]
        result = run_client(workload, seed, cfg, seconds, port, extra, trace)
        setups.append(result["setup_end_mono"] - t0)
        if not last:
            daemons.stop()
    result["setup_s"] = statistics.median(setups)
    result["setups"] = setups
    result["answers"] = answers
    return result


def direct_check(workload, seed, seconds, run_dir, daemons, routed):
    """routed_hot: the same requests through a direct node must get
    byte-identical answers.  Returns the direct node's answers path."""
    cfg = WORKLOADS[workload]
    direct_dir = os.path.join(run_dir, "direct")
    os.makedirs(direct_dir)
    port, _, _, _ = start_topology(daemons, cfg, direct_dir, direct=True)
    answers = os.path.join(direct_dir, "answers.ndjson")
    run_client(workload, seed, cfg, seconds, port,
               ["--verify-only", "1", "--answers", answers], False)
    check_same_answers(answers, routed["answers"])
    return answers


def check_same_answers(direct_path, routed_path):
    with open(direct_path, "rb") as a, open(routed_path, "rb") as b:
        if a.read() != b.read():
            raise RuntimeError("routed answers differ from direct answers")


def end_to_end(result):
    c, o = result["closed"], result["open"]
    attempted = c["sent"] + o["sent"]
    ok = c["ok"] + o["ok"]
    v = result["verify"]
    return attempted, attempted - ok, {
        "server_cpu_ms_per_req": cpu_ms_per_req(result, "node"),
        "ok_ratio": ok / attempted,
        "setup_s": result["setup_s"],
        "sadm_ratio": v["sadms"] / v["lower_bound"],
    }


def validity(result, trace):
    """Reasons the measurement itself is suspect (not wrong answers)."""
    o = result["open"]
    problems = []
    if trace and o["samples"] < MIN_OPEN_SAMPLES:
        problems.append(f"only {o['samples']} open-loop samples")
    if o["late_p99_ms"] > LATE_P99_LIMIT_MS:
        problems.append(f"generator late p99 {o['late_p99_ms']:.3f} ms")
    share = max(result["closed"]["cpu_share"], o["cpu_share"])
    if share > CPU_SHARE_LIMIT:
        problems.append(f"client thread used {share:.2f} of a core")
    return problems


def cpu_ms_per_req(result, role):
    """Daemon CPU (utime + stime) over the closed loop per ok answer."""
    t0 = {p["pid"]: p["cpu_s"] for p in result["proc_before"] if p["role"] == role}
    used = sum(p["cpu_s"] - t0[p["pid"]] for p in result["proc_after"]
               if p["role"] == role)
    return 1000 * used / max(1, result["closed"]["ok"])


def per_layer(result, routed, trace, hop_ms):
    """`routed` is the run through the router: `result` itself for
    routed_hot, the paired run for groom_cold and groom_hot, None for
    held_churn."""
    before, after = result["stats_before"], result["stats_after"]

    def delta(key):
        return after[key] - before[key]

    lookups = delta("cache_hits") + delta("cache_misses")

    p50_us = result["open"]["p50_ms"] * 1000
    traced = trace["metrics"].pop("traced_us_per_request")
    m = dict(trace["metrics"])
    m.update({
        "client.throughput_rps": result["closed"]["rps"],
        "client.latency_p50_ms": result["open"]["p50_ms"],
        "client.latency_p99_ms": result["open"]["p99_ms"],
        "service.cache_hit_ratio": delta("cache_hits") / lookups if lookups else 0.0,
        "service.allocs_per_req": (delta("alloc_total") / delta("alloc_requests")
                                   if delta("alloc_requests") else 0.0),
        "service.pipelined_share": (delta("pipelined") / delta("received")
                                    if delta("received") else 0.0),
        "cluster.hop_p50_ms": hop_ms,
        "cluster.forward_retries": (routed["router_stats"]["forward_retries"]
                                    if routed else 0),
        "router.cpu_ms_per_req": cpu_ms_per_req(routed, "router") if routed else 0.0,
        "node.rss_peak_mb": max(p["hwm_mb"] for p in result["proc_after"]
                                if p["role"] == "node"),
        "trace.coverage": traced / p50_us,
        "trace.residual_us": p50_us - traced,
        "gen.late_p99_ms": result["open"]["late_p99_ms"],
        "gen.cpu_share": max(result["closed"]["cpu_share"],
                             result["open"]["cpu_share"]),
    })
    return m


def units():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    unit_of = units()
    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    daemons = Daemons()
    # A SIGTERM, or running past RUN_LIMIT_S, still reaps every daemon
    # (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    signal.signal(signal.SIGALRM, lambda *_: sys.exit(1))
    signal.alarm(RUN_LIMIT_S)
    problems = []  # wrong answers: the run is "correct": false
    try:
        reps = 1 if args.trace else SETUP_REPS
        result = measure(args.workload, args.seed, args.seconds, run_dir,
                         daemons, reps, args.trace)
        warnings = validity(result, args.trace)
        context = {"cpus": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
                   "setups_s": result["setups"],
                   "host_steal_share": result["host_steal_share"],
                   "warnings": warnings,
                   "processes": result["proc_after"]}
        if args.workload == "routed_hot":
            direct_answers = direct_check(args.workload, args.seed,
                                          args.seconds, run_dir, daemons, result)
        daemons.stop()
        attempted, failed, e2e = end_to_end(result)
        if args.trace:
            hop_ms, routed = 0.0, None
            if args.workload != "held_churn":
                # The same stream at the same rate, direct and through the
                # router: the difference in p50 is the router hop.
                runs = {args.workload: result}
                for name in HOP_PAIR:
                    if name not in runs:
                        runs[name] = measure(name, args.seed, args.seconds,
                                             os.path.join(run_dir, name),
                                             daemons, 1, args.trace)
                        daemons.stop()
                direct, routed = (runs[name] for name in HOP_PAIR)
                check_same_answers(direct["answers"], routed["answers"])
                hop_ms = routed["open"]["p50_ms"] - direct["open"]["p50_ms"]
            store_dir = os.path.join(run_dir, "replay-store")
            cmd = [TGBENCH, "trace", "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--requests", str(TRACE_REQUESTS[args.workload]),
                   "--answers", direct_answers if args.workload == "routed_hot"
                   else result["answers"],
                   "--store-dir", store_dir,
                   "--snapshot-every", str(SNAPSHOT_EVERY),
                   "--routed-requests",
                   str(ROUTED_TRACE_REQUESTS.get(args.workload, 0)),
                   "--spans", os.path.join(OUT, f"spans-{args.workload}.jsonl")]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=120)
            trace = json.loads(done.stdout.strip().splitlines()[-1])
            if not trace["correct"]:
                problems.append(trace["failure"])
            values = per_layer(result, routed, trace, hop_ms)
        else:
            values = e2e
        print(json.dumps({"context": context}))
    except (RuntimeError, subprocess.SubprocessError, KeyError, ValueError) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        daemons.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    for w in warnings:
        log(f"warning: {w}")
    for p in problems:
        log(p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
