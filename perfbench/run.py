#!/usr/bin/env python3
"""CUDAAdvisor benchmark: what a profile costs, end to end and layer by layer.

One run of one workload, as the benchmark contract defines it:

    python3 perfbench/run.py --workload profile-exact --seed 1 \
        --seconds 20 --trace 0

builds the project from source into .bench_build/, runs the workload,
checks every output against its oracle, prints one line per metric and,
as the last line, the result object {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones from a traced in-process replay. The exit status is
nonzero when any operation fails its oracle.

Steadiness mode runs every workload ten times in fresh processes and
prints, per metric, the median, the quartiles and the interquartile
range as a share of the median; --write-spec then writes BENCHMARK.json
with bounds derived from those spreads:

    python3 perfbench/run.py --steadiness --write-spec

See perfbench/README.md for the workloads, metrics and first numbers.
"""

import argparse
import itertools
import json
import math
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_ROOT = os.path.join(ROOT, ".bench_run")
HARNESS = os.path.join(BUILD_DIR, "perfbench-harness")
CUADVISOR = os.path.join(BUILD_DIR, "cuadv_tools", "cuadvisor")
CUADVISORD = os.path.join(BUILD_DIR, "cuadv_tools", "cuadvisord")
BASELINE = os.path.join(ROOT, "bench", "baselines", "workloads.json")
PINS = os.path.join(HERE, "pins", "simulate.json")

DEFAULT_SEED = 1
# Later performance claims must also hold on this seed, which was not
# used while the benchmark was tuned.
HELD_OUT_SEED = 7919

# The ten paper apps (Table 2), in registry order.
APPS = ["backprop", "bfs", "hotspot", "lavaMD", "nn", "nw", "srad_v2",
        "bicg", "syrk", "syr2k"]
ARCH = "kepler16"
# What-if re-simulation settings: 128 B (kepler16) and 32 B (pascal)
# L1 lines, each with every warp using L1 (-1) and with one warp per CTA
# using it (maximal horizontal bypass).
SIM_CONFIGS = ["kepler16:-1", "kepler16:1", "pascal:-1", "pascal:1"]
SIM_JOBS = 4
# Daemon requests: each app exact and sampled. The cold pass submits
# them costliest first, so its two-worker schedule does not depend on
# the seed.
DAEMON_APPS = ["srad_v2", "bfs", "bicg", "backprop", "nw"]
DAEMON_SAMPLE = "warp:32"
DAEMON_WORKERS = 2
DAEMON_CLIENTS = 2
WARM_ROUNDS = 100

WORKLOADS = {
    "profile-exact": "one cuadvisor --mode profile --jobs 1 process per "
                     "paper app: the user's main path, analysis and hooked "
                     "simulation, no parallel schedule",
    "simulate-jobs4": "uninstrumented simulation of every app at Jobs=4 on "
                      "kepler16 and pascal with and without L1 bypass: the "
                      "interpreter and the per-SM schedule alone",
    "daemon-mixed": "cuadvisord with 2 workers and 2 closed-loop clients: "
                    "a cold pass of misses (exact and warp:32) then warm "
                    "cache hits",
}
# A run makes round(seconds / nominal) passes (at least one), so the
# number of samples per run is fixed by --seconds, not by how fast the
# machine happens to be. At --seconds 30 that is 8 simulate-jobs4
# passes (about 27 s on a 4-core host) and 11 daemon-mixed passes (about
# 30 s). With 11 passes the daemon's tail (the 11th slowest job) is the
# fastest of the eleven copies of the costliest miss, not a noisy rank
# inside a cluster of copies.
NOMINAL_PASS_S = {"profile-exact": 14.0, "simulate-jobs4": 3.75,
                  "daemon-mixed": 2.7}
# profile-exact makes at least 3 passes, about 42 s, and so runs past
# --seconds 30: with 2 passes its tail (the 10th slowest of 20 CLI runs)
# is the slower of two bfs runs and spread 29% between runs.
MIN_PASSES = {"profile-exact": 3}
# Set-up repetitions per burst. A burst runs before every pass (and, on
# profile-exact, once more after the last) so the samples spread over
# the run: the host's load moves through slower and faster phases that
# last seconds, and the first ten to thirty repetitions of a process run
# up to twice as slow. setup_s sums each app's fastest repetition.
SETUP_REPS = 15
DAEMON_SETUP_SAMPLES = 8
# Largest allowed |sum of self times - op wall| / op wall in a trace.
CONSERVATION_TOL = 0.01

# name, unit, better; the bounds live in BENCHMARK.json.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_ms.p50", "ms", "lower"),
    ("job_ms.tail", "ms", "lower"),
]
PER_LAYER = (
    [("frontend.parse_ms", "ms", "lower"),
     ("instrument.ms", "ms", "lower"),
     ("instrument.sites", "count", "lower"),
     ("gpusim.decode_ms", "ms", "lower"),
     ("gpusim.simulate_ms", "ms", "lower"),
     ("gpusim.warp_insts", "count", "lower"),
     ("gpusim.winst_per_s", "1/s", "higher"),
     ("gpusim.launches", "count", "lower"),
     ("gpusim.hook_events", "count", "lower"),
     ("gpusim.sim_cycles", "count", "lower")]
    + [("gpusim.parallel.speedup." + a, "x", "higher") for a in APPS]
    + [("gpusim.parallel.apps_below_1x", "count", "lower"),
       ("profiler.events_retained", "count", "lower"),
       ("profiler.sampled_in_frac", "ratio", "lower"),
       ("analysis.build_ms", "ms", "lower"),
       ("analysis.share", "ratio", "lower")]
    + [("analysis.%s_ms" % p, "ms", "lower")
       for p in ("rd", "md", "bd", "bank", "bypass", "heat", "cycle",
                 "inspect", "sampling")]
    + [("artifact.serialize_ms", "ms", "lower"),
       ("artifact.bytes", "B", "lower"),
       ("artifact.metrics", "count", "higher"),
       ("artifact.diff_ms", "ms", "lower"),
       ("server.hit_ms.p50", "ms", "lower"),
       ("server.miss_ms.p50", "ms", "lower"),
       ("server.cache_key_ms", "ms", "lower"),
       ("server.cache_lookup_ms", "ms", "lower"),
       ("server.cache_store_ms", "ms", "lower"),
       ("server.hit_ratio", "ratio", "higher"),
       ("server.retry_later", "count", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.unattributed_frac", "ratio", "lower")])
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


class BenchError(Exception):
    """A failure of the benchmark itself (build, crash, bad output)."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def plan(workload, seed):
    """The seeded inputs of one run. The seed sets order and draw only:
    every seed yields the same operations with the same sizes."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "profile-exact":
        apps = list(APPS)
        rng.shuffle(apps)
        return {"apps": apps}
    if workload == "simulate-jobs4":
        apps, configs = list(APPS), list(SIM_CONFIGS)
        rng.shuffle(apps)
        rng.shuffle(configs)
        return {"apps": apps, "configs": configs}
    if workload == "daemon-mixed":
        requests = []
        for app in DAEMON_APPS:
            requests += [app + "@exact", app + "@" + DAEMON_SAMPLE]
        warm = []
        for _ in range(WARM_ROUNDS):
            order = list(range(len(requests)))
            rng.shuffle(order)
            warm += order
        return {"requests": requests, "cold": list(range(len(requests))),
                "warm": warm}
    raise BenchError("unknown workload '%s'" % workload)


def pass_count(workload, seconds):
    return max(MIN_PASSES.get(workload, 1),
               int(round(seconds / NOMINAL_PASS_S[workload])))


# --------------------------------------------------------------------------
# Build and processes
# --------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("project sources not found under %s" % ROOT)
    if not shutil.which("cmake"):
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        _checked(cmd)
    _checked(["cmake", "--build", BUILD_DIR, "--parallel",
              str(os.cpu_count() or 1), "--target", "cuadvisor",
              "cuadvisord", "perfbench-harness"])


def _checked(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if r.returncode != 0:
        raise BenchError("command failed (%d): %s" % (r.returncode,
                                                     " ".join(cmd)))


# Per-run scratch directory inside the checkout; main() creates it and
# removes it when the run ends.
RUN_DIR = os.path.join(RUN_ROOT, str(os.getpid()))
_LOGS = itertools.count()


def spawn(cmd, stdout=subprocess.DEVNULL):
    """Starts cmd with stderr going to a file (a pipe nobody drains
    could stall a chatty daemon)."""
    err = open(os.path.join(RUN_DIR, "stderr-%d.log" % next(_LOGS)), "w+b")
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=err, cwd=ROOT)
    proc.err_file = err
    return proc


def reap(proc):
    """Waits for proc; returns (exit status, peak RSS in MB, stderr)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.err_file.seek(0)
    err = proc.err_file.read().decode("utf-8", "replace")
    proc.err_file.close()
    return proc.returncode, usage.ru_maxrss / 1024.0, err


def harness(*args):
    """Runs a harness subcommand; returns (document, peak RSS in MB)."""
    proc = spawn([HARNESS] + [str(a) for a in args], stdout=subprocess.PIPE)
    out = proc.stdout.read()
    code, rss, err = reap(proc)
    if code != 0:
        raise BenchError("harness %s failed (%d): %s" % (args[0], code,
                                                        err.strip()))
    return json.loads(out), rss


# --------------------------------------------------------------------------
# Results
# --------------------------------------------------------------------------

class Result:
    """Metrics plus operation accounting of one run."""

    def __init__(self):
        self.metrics = {}
        self.notes = {}
        self.attempted = 0
        self.failures = []

    def put(self, name, value, note=""):
        self.metrics[name] = float(value)
        if note:
            self.notes[name] = note

    def op(self, failure, what):
        self.attempted += 1
        if failure:
            self.failures.append("%s: %s" % (what, failure))

    def put_latencies(self, ms_values, seconds):
        self.put("jobs_per_s", stats.ratio(len(ms_values), seconds),
                 "%d ops / %.6g s" % (len(ms_values), seconds))
        self.put("job_ms.p50", stats.median(ms_values),
                 "n=%d" % len(ms_values))
        value, pct, beyond, n = stats.tail(ms_values)
        self.put("job_ms.tail", value,
                 "p%.4g, %d samples beyond, n=%d" % (pct, beyond, n))


# --------------------------------------------------------------------------
# profile-exact
# --------------------------------------------------------------------------

def check_artifacts(paths, baseline=BASELINE):
    """The profile oracle: zero-tolerance deterministic diff against the
    pinned baselines. Returns {path: (failure, unchanged, diff_ms)}."""
    doc, _ = harness("check", "--baseline", baseline, "--artifacts",
                     ",".join(paths))
    return {a["path"]: (a["failure"], a["unchanged"], a["diff_ms"])
            for a in doc["artifacts"]}


def put_setup(res, app_ms, what):
    """setup_s from per-app set-up repetitions: each app's fastest."""
    reps = min(len(v) for v in app_ms.values())
    res.put("setup_s", sum(min(v) for v in app_ms.values()) / 1000.0,
            "sum over %d apps of the fastest of %d %s set-ups" % (
                len(app_ms), reps, what))


def run_profile_exact(p, seconds, run_dir, res):
    setup_ms = {}

    def setup_burst():
        doc, _ = harness("setup", "--apps", ",".join(p["apps"]), "--reps",
                         SETUP_REPS)
        for app, ms in doc["setup_ms"].items():
            setup_ms.setdefault(app, []).extend(ms)

    pass_s, op_ms, peak = [], [], 0.0
    ops = []
    for n in range(pass_count("profile-exact", seconds)):
        setup_burst()
        out_dir = os.path.join(run_dir, "pass%d" % n)
        os.makedirs(out_dir)
        t0 = time.perf_counter()
        for app in p["apps"]:
            artifact = os.path.join(out_dir, app + ".json")
            s0 = time.perf_counter()
            code, rss, err = reap(spawn(
                [CUADVISOR, app, "--arch", ARCH, "--mode", "profile",
                 "--jobs", "1", "--profile-out", artifact]))
            op_ms.append((time.perf_counter() - s0) * 1000.0)
            peak = max(peak, rss)
            ops.append((app, artifact, code, err))
        pass_s.append(time.perf_counter() - t0)
    setup_burst()
    put_setup(res, setup_ms, "compile+instrument+decode")
    checked = check_artifacts([a for _, a, code, _ in ops if code == 0])
    unchanged = 0
    for app, artifact, code, err in ops:
        failure = ""
        if code != 0:
            failure = "exit %d: %s" % (code, err.strip()[-200:])
        else:
            failure, n_same, _ = checked[artifact]
            unchanged += n_same
        res.op(failure, "cuadvisor " + app)
    res.put("wall_s", stats.median(pass_s),
            "median of %d passes of %d apps: %s" % (
                len(pass_s), len(p["apps"]),
                " ".join("%.3f" % x for x in pass_s)))
    res.put("peak_rss_mb", peak, "largest cuadvisor child")
    res.put_latencies(op_ms, sum(pass_s))
    res.notes["oracle"] = "%d deterministic metrics unchanged" % unchanged


# --------------------------------------------------------------------------
# simulate-jobs4
# --------------------------------------------------------------------------

def simulate(p, passes, spans="", pins=PINS):
    args = ["simulate", "--apps", ",".join(p["apps"]), "--configs",
            ",".join(p["configs"]), "--jobs", SIM_JOBS, "--passes", passes,
            "--setup-reps", 1 if spans else SETUP_REPS, "--pins", pins]
    if spans:
        args += ["--spans", spans]
    return harness(*args)


def run_simulate_jobs4(p, seconds, run_dir, res, pins=PINS):
    doc, rss = simulate(p, pass_count("simulate-jobs4", seconds), pins=pins)
    put_setup(res, doc["setup_ms"], "compile+decode")
    for op in doc["ops"]:
        res.op(op["failure"], "simulate %s %s" % (op["app"], op["config"]))
    res.put("wall_s", stats.median(doc["pass_s"]),
            "median of %d passes of %d simulations" % (
                len(doc["pass_s"]), len(doc["ops"]) // len(doc["pass_s"])))
    res.put("peak_rss_mb", rss, "benchmark harness process")
    res.put_latencies([op["ms"] for op in doc["ops"]], sum(doc["pass_s"]))


# --------------------------------------------------------------------------
# daemon-mixed
# --------------------------------------------------------------------------

PING = json.dumps({"schema": "cuadv-job-request-1", "kind": "ping"}).encode()


def ping(path, proc, deadline):
    while time.perf_counter() < deadline and proc.poll() is None:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            s.sendall(PING)
            s.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
            if json.loads(data).get("status") == "ok":
                return
        except (FileNotFoundError, ConnectionRefusedError):
            time.sleep(0.0005)
        finally:
            s.close()
    raise BenchError("cuadvisord did not answer a ping")


class Daemon:
    """One cuadvisord with a fresh cache directory; stopped on exit."""

    def __init__(self, run_dir, index):
        self.dir = os.path.join(run_dir, "d%d" % index)
        os.makedirs(self.dir)
        # Relative to the checkout root: unix socket paths are short.
        self.sock = os.path.relpath(os.path.join(self.dir, "s"), ROOT)
        self.proc = None
        self.setup_s = 0.0
        self.rss = 0.0

    def __enter__(self):
        t0 = time.perf_counter()
        self.proc = spawn([CUADVISORD, "--socket", self.sock, "--cache-dir",
                           os.path.join(self.dir, "cache"), "--workers",
                           str(DAEMON_WORKERS)])
        try:
            ping(self.sock, self.proc, t0 + 30)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0
        return self

    def stop(self):
        if self.proc and self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            code, self.rss, err = reap(self.proc)
            if code != 0:
                raise BenchError("cuadvisord exited %d: %s" % (code, err))

    def __exit__(self, *exc):
        self.stop()


def loadgen(d, p):
    doc, _ = harness("loadgen", "--socket", d.sock, "--requests",
                     ",".join(p["requests"]), "--clients", DAEMON_CLIENTS,
                     "--cold", ",".join(map(str, p["cold"])), "--warm",
                     ",".join(map(str, p["warm"])))
    return doc


def run_daemon_mixed(p, seconds, run_dir, res):
    passes = pass_count("daemon-mixed", seconds)
    setups, walls, op_ms, peak = [], [], [], 0.0
    for n in range(max(passes, DAEMON_SETUP_SAMPLES)):
        with Daemon(run_dir, n) as d:
            setups.append(d.setup_s)
            if n < passes:
                doc = loadgen(d, p)
                walls.append(doc["cold_s"] + doc["warm_s"])
                for op in doc["ops"]:
                    op_ms.append(op["ms"])
                    res.op(op["failure"], "daemon job " + op["request"])
        peak = max(peak, d.rss)
    res.put("setup_s", stats.median(setups),
            "median of %d daemon spawns to first ping" % len(setups))
    res.put("wall_s", stats.median(walls),
            "median of %d passes: %d misses + %d hits" % (
                len(walls), len(p["cold"]), len(p["warm"])))
    res.put("peak_rss_mb", peak, "cuadvisord")
    res.put_latencies(op_ms, sum(walls))


# --------------------------------------------------------------------------
# Traced runs
# --------------------------------------------------------------------------

def replay(requests, run_dir, as_daemon=False):
    """In-process replay of the operations, each run untraced, traced and
    untraced again. Returns (ops by variant, spans)."""
    spans_path = os.path.join(run_dir, "spans.json")
    args = ["replay", "--requests", ",".join(requests), "--arch", ARCH,
            "--out-dir", os.path.join(run_dir, "replay"), "--spans",
            spans_path]
    if as_daemon:
        args += ["--as", "daemon"]
    doc, _ = harness(*args)
    with open(spans_path) as f:
        spans = json.load(f)
    ops = {}
    for op in doc["ops"]:
        ops.setdefault(op["variant"], []).append(op)
    return ops, spans


def put_overhead(res, traced, before, after):
    """Traced wall minus the mean of the two untraced runs that bracket
    it; their difference is printed as the figure's spread."""
    res.put("trace.overhead_s", traced - (before + after) / 2,
            "traced %.6g s - mean(untraced before %.6g s, after %.6g s); "
            "untraced runs differ by %.3g s" % (traced, before, after,
                                               abs(before - after)))


def put_replay_overhead(res, ops):
    wall = {v: sum(op["ms"] for op in o) / 1000.0 for v, o in ops.items()}
    put_overhead(res, wall["traced"], wall["untraced-a"], wall["untraced-b"])


def self_ms_by_name(spans):
    selfs = stats.self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + selfs[s["id"]] / 1000.0
    return out


def trace_checks(spans, ops, res):
    """Conservation and unattributed share of the traced operations.

    Each op's wall time is taken on the thread that opens its root span,
    and its spans nest on that thread, so conservation is a consistency
    check of the span tree and the self-time arithmetic (a span left
    open, a child outside its parent, a double-subtracted overlap), not
    an independent clock. trace.unattributed_frac says how much of an
    op no layer span covers."""
    walls = {op["op"]: op["ms"] * 1000.0 for op in ops}
    worst, failing = stats.conservation(spans, walls, CONSERVATION_TOL)
    for op in failing:
        res.op("self times do not sum to the op's wall time", "trace op %d" % op)
    res.notes["conservation"] = "worst |sum(self) - wall| / wall = %.3g " \
                                "(tolerance %g)" % (worst, CONSERVATION_TOL)
    selfs = stats.self_times(spans)
    roots = [s for s in spans if s["parent"] == -1 and s["op"] in walls]
    root_self = sum(selfs[s["id"]] for s in roots)
    root_all = sum(s["end_us"] - s["start_us"] for s in roots)
    res.put("trace.unattributed_frac", stats.ratio(root_self, root_all),
            stats.ratio_text(root_self / 1000, root_all / 1000,
                             "op self ms", "op ms"))


def put_replay_layers(ops, spans, res):
    by_name = self_ms_by_name(spans)
    for metric, span in (("frontend.parse_ms", "frontend.parse"),
                         ("instrument.ms", "instrument"),
                         ("gpusim.decode_ms", "gpusim.decode"),
                         ("gpusim.simulate_ms", "gpusim.simulate"),
                         ("analysis.build_ms", "analysis.build"),
                         ("artifact.serialize_ms", "artifact.serialize")):
        res.put(metric, by_name.get(span, 0.0), "sum of span self times")
    counts = {}
    for op in ops:
        for k, v in op["counts"].items():
            counts[k] = counts.get(k, 0) + v
    res.put("instrument.sites", counts["sites"])
    res.put("gpusim.warp_insts", counts["warp_insts"])
    res.put("gpusim.launches", counts["launches"])
    res.put("gpusim.hook_events", counts["hook_events"])
    res.put("gpusim.sim_cycles", counts["sim_cycles"])
    sim_ms = by_name.get("gpusim.simulate", 0.0)
    res.put("gpusim.winst_per_s",
            stats.ratio(counts["warp_insts"], sim_ms / 1000.0),
            stats.ratio_text(counts["warp_insts"], sim_ms / 1000.0,
                             "warp insts", "simulate s"))
    res.put("profiler.events_retained", counts["events_retained"])
    sampled = counts["sampled_in"] + counts["sampled_out"]
    res.put("profiler.sampled_in_frac",
            stats.ratio(counts["sampled_in"], sampled) if sampled else 1.0,
            stats.ratio_text(counts["sampled_in"], sampled, "sampled-in",
                             "sampling decisions") if sampled else
            "no sampled launch: every hook event retained")
    build_ms = by_name.get("analysis.build", 0.0)
    res.put("analysis.share", stats.ratio(build_ms, build_ms + sim_ms),
            stats.ratio_text(build_ms, build_ms + sim_ms, "build ms",
                             "build+simulate ms"))
    res.put("artifact.bytes", counts["artifact_bytes"])
    res.put("artifact.metrics", counts["artifact_metrics"])
    for name in ("rd", "md", "bd", "bank", "bypass", "heat", "cycle",
                 "inspect", "sampling"):
        res.put("analysis.%s_ms" % name,
                sum(op.get("passes", {}).get(name + "_ms", 0.0)
                    for op in ops),
                "standalone pass, outside the conservation sum")


def zero_layers(res, names):
    for name in names:
        res.put(name, 0.0, "layer does not run on this workload")


PARALLEL = ["gpusim.parallel.speedup." + a for a in APPS] + [
    "gpusim.parallel.apps_below_1x"]
SERVER = ["server.hit_ms.p50", "server.miss_ms.p50", "server.cache_key_ms",
          "server.cache_lookup_ms", "server.cache_store_ms",
          "server.hit_ratio", "server.retry_later"]


def trace_profile_exact(p, seconds, run_dir, res):
    ops, spans = replay([a + "@exact" for a in p["apps"]], run_dir)
    put_replay_overhead(res, ops)
    every = [op for o in ops.values() for op in o]
    on = ops["traced"]
    checked = check_artifacts([op["artifact"] for op in every])
    for op in every:
        res.op(op["failure"] or checked[op["artifact"]][0],
               "replay " + op["request"])
    trace_checks(spans, on, res)
    put_replay_layers(on, spans, res)
    diff_ms = [checked[op["artifact"]][2] for op in on]
    res.put("artifact.diff_ms", sum(diff_ms),
            "diffArtifacts over %d artifacts" % len(diff_ms))
    zero_layers(res, PARALLEL + SERVER)


def trace_simulate_jobs4(p, seconds, run_dir, res, pins=PINS):
    # Two untraced passes, the first a warm-up, then the traced one and
    # one more untraced.
    spans_path = os.path.join(run_dir, "spans.json")
    doc, _ = simulate(p, 2, spans=spans_path, pins=pins)
    with open(spans_path) as f:
        spans = json.load(f)
    put_overhead(res, doc["traced_pass_s"], doc["pass_s"][-1],
                 doc["after_pass_s"])
    ops = doc["traced_ops"]
    for op in doc["ops"] + ops + doc["after_ops"] + doc["serial_ops"]:
        res.op(op["failure"], "simulate %s %s" % (op["app"], op["config"]))
    trace_checks(spans, ops, res)
    by_name = self_ms_by_name(spans)
    res.put("frontend.parse_ms", by_name.get("frontend.parse", 0.0))
    res.put("gpusim.decode_ms", by_name.get("gpusim.decode", 0.0))
    sim_ms = by_name.get("gpusim.simulate", 0.0)
    res.put("gpusim.simulate_ms", sim_ms, "sum of span self times")
    winst = sum(op["warp_insts"] for op in ops)
    res.put("gpusim.warp_insts", winst)
    res.put("gpusim.winst_per_s", stats.ratio(winst, sim_ms / 1000.0),
            stats.ratio_text(winst, sim_ms / 1000.0, "warp insts",
                             "simulate s"))
    res.put("gpusim.launches", sum(op["launches"] for op in ops))
    res.put("gpusim.sim_cycles", sum(op["cycles"] for op in ops))
    serial, parallel = {}, {}
    for op in doc["serial_ops"]:
        serial[op["app"]] = serial.get(op["app"], 0.0) + op["ms"]
    for op in doc["ops"][-len(ops):]:
        parallel[op["app"]] = parallel.get(op["app"], 0.0) + op["ms"]
    below = 0
    for app in APPS:
        speedup = stats.ratio(serial[app], parallel[app])
        below += speedup < 1.0
        res.put("gpusim.parallel.speedup." + app, speedup,
                stats.ratio_text(serial[app], parallel[app], "jobs=1 ms",
                                 "jobs=%d ms" % SIM_JOBS))
    res.put("gpusim.parallel.apps_below_1x", below)
    zero_layers(res, ["instrument.ms", "instrument.sites",
                      "gpusim.hook_events", "profiler.events_retained",
                      "profiler.sampled_in_frac", "analysis.build_ms",
                      "analysis.share", "artifact.serialize_ms",
                      "artifact.bytes", "artifact.metrics",
                      "artifact.diff_ms"] + SERVER +
                ["analysis.%s_ms" % n for n in
                 ("rd", "md", "bd", "bank", "bypass", "heat", "cycle",
                  "inspect", "sampling")])


def trace_daemon_mixed(p, seconds, run_dir, res):
    with Daemon(run_dir, 0) as d:
        doc = loadgen(d, p)
    hits = [op["ms"] for op in doc["ops"] if op["hit"]]
    misses = [op["ms"] for op in doc["ops"] if not op["hit"]]
    for op in doc["ops"]:
        res.op(op["failure"], "daemon job " + op["request"])
    res.put("server.hit_ms.p50", stats.median(hits), "n=%d" % len(hits))
    res.put("server.miss_ms.p50", stats.median(misses), "n=%d" % len(misses))
    res.put("server.hit_ratio", stats.ratio(len(hits), len(doc["ops"])),
            stats.ratio_text(len(hits), len(doc["ops"]), "hits", "lookups"))
    res.put("server.retry_later", sum(op["retries"] for op in doc["ops"]))
    res.put("artifact.diff_ms", doc["bounds_ms"],
            "checkSamplingBounds over %d estimates" % doc["bounds_checked"])

    ops, spans = replay(p["requests"], run_dir, as_daemon=True)
    put_replay_overhead(res, ops)
    on = ops["traced"]
    for op in (op for o in ops.values() for op in o):
        res.op(op["failure"], "replay " + op["request"])
    trace_checks(spans, on, res)
    put_replay_layers(on, spans, res)
    # Per-operation medians of the cache layer's spans.
    per_op = {}
    for s in spans:
        key = (s["op"], s["name"])
        per_op[key] = per_op.get(key, 0.0) + (s["end_us"] - s["start_us"])

    def op_median(names):
        vals = [sum(per_op.get((op["op"], n), 0.0) for n in names) / 1000.0
                for op in on]
        return stats.median(vals)

    res.put("server.cache_key_ms",
            op_median(["frontend.parse", "server.cache_key"]),
            "compile + IR print + cacheKeyFor, median per job")
    res.put("server.cache_lookup_ms", op_median(["server.cache_lookup"]),
            "median per job")
    stores = [per_op[(op["op"], "server.cache_store")] / 1000.0
              for op in on if (op["op"], "server.cache_store") in per_op]
    res.put("server.cache_store_ms", stats.median(stores),
            "median per miss, n=%d" % len(stores))
    zero_layers(res, PARALLEL)


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------

RUNNERS = {
    ("profile-exact", 0): run_profile_exact,
    ("simulate-jobs4", 0): run_simulate_jobs4,
    ("daemon-mixed", 0): run_daemon_mixed,
    ("profile-exact", 1): trace_profile_exact,
    ("simulate-jobs4", 1): trace_simulate_jobs4,
    ("daemon-mixed", 1): trace_daemon_mixed,
}


def run_once(workload, seed, seconds, trace):
    res = Result()
    RUNNERS[(workload, trace)](plan(workload, seed), seconds, RUN_DIR, res)
    return res


def report(workload, res, trace):
    names = [n for n, _, _ in (PER_LAYER if trace else END_TO_END)]
    missing = [n for n in names if n not in res.metrics]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    print("workload %s (%s)" % (workload, "traced" if trace else "untraced"))
    for name in names:
        print("  %-34s %14.6g %-6s %s" % (name, res.metrics[name],
                                         UNITS[name],
                                         res.notes.get(name, "")))
    failed = len(res.failures)
    print("  %-34s %14.6g %-6s %s" % (
        "failed_frac", stats.ratio(failed, res.attempted), "ratio",
        "%d failed / %d attempted" % (failed, res.attempted)))
    for key in ("oracle", "conservation"):
        if key in res.notes:
            print("  %s: %s" % (key, res.notes[key]))
    for f in res.failures[:20]:
        print("  FAILED " + f)
    result = {"correct": failed == 0, "attempted": res.attempted,
              "failed": failed,
              "metrics": {n: {"value": res.metrics[n], "unit": UNITS[n]}
                          for n in names}}
    print(json.dumps(result), flush=True)
    return failed == 0


# --------------------------------------------------------------------------
# Steadiness mode
# --------------------------------------------------------------------------

# Runs per workload in steadiness mode; bounds_from's rule assumes ten.
STEADINESS_RUNS = 10


def run_subprocess(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       cwd=ROOT, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise BenchError("run failed: " + " ".join(cmd))
    return json.loads(lines[-1])


def steadiness(first_seed, seconds, out):
    runs = STEADINESS_RUNS
    table = {}
    for w in WORKLOADS:
        values = {}
        for i in range(runs):
            doc = run_subprocess(w, first_seed + i, seconds, 0)
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log("%s seed %d: wall_s %.4f" % (w, first_seed + i,
                                             doc["metrics"]["wall_s"]["value"]))
        table[w] = values
    lines = ["steadiness: %d runs per workload, seeds %d..%d, --seconds %d" % (
        runs, first_seed, first_seed + runs - 1, seconds),
        "%-16s %-12s %-5s %12s %12s %12s %9s" % (
            "workload", "metric", "unit", "q1", "median", "q3", "iqr/med")]
    for w, values in table.items():
        for name, _, _ in END_TO_END:
            q1, q2, q3 = stats.quartiles(values[name])
            lines.append("%-16s %-12s %-5s %12.6g %12.6g %12.6g %9.4f" % (
                w, name, UNITS[name], q1, q2, q3, stats.spread(values[name])))
    text = "\n".join(lines)
    print(text)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    return table


def bounds_from(table):
    """Bound per metric: four times the widest spread seen on any
    workload, at least 5%, at most the contract's 25%. setup_s always
    gets the largest bound."""
    bounds = {}
    for name, _, _ in END_TO_END:
        worst = max(stats.spread(v[name]) for v in table.values())
        bounds[name] = min(0.25, max(0.05, math.ceil(400 * worst) / 100))
    bounds["setup_s"] = 0.25
    return bounds


def write_spec(bounds, seconds):
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": seconds,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bounds[n]}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")


def write_pins():
    doc, _ = harness("pin", "--apps", ",".join(APPS), "--configs",
                     ",".join(SIM_CONFIGS))
    os.makedirs(os.path.dirname(PINS), exist_ok=True)
    with open(PINS, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


# --------------------------------------------------------------------------

def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed (default %d; held-out seed %d)" % (
                        DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true",
                    help="run every workload %d times and print spreads" %
                    STEADINESS_RUNS)
    ap.add_argument("--out", default="", help="also write the table here")
    ap.add_argument("--write-spec", action="store_true",
                    help="with --steadiness: write BENCHMARK.json")
    ap.add_argument("--pin", action="store_true",
                    help="regenerate the pinned Jobs=1 simulation counts")
    args = ap.parse_args(argv)
    # Sockets and scratch paths are relative to the checkout root.
    os.chdir(ROOT)
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    try:
        build()
        if args.pin:
            write_pins()
            return 0
        if args.steadiness:
            table = steadiness(args.seed, args.seconds, args.out)
            if args.write_spec:
                write_spec(bounds_from(table), args.seconds)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        res = run_once(args.workload, args.seed, args.seconds, args.trace)
        return 0 if report(args.workload, res, args.trace) else 1
    except BenchError as e:
        log(str(e))
        return 2
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
