#!/usr/bin/env python3
"""The repository benchmark: one-shot compiles and TCP serving of `dlcirc`.

    python3 perfbench/run.py --workload compile|serve-eval|serve-lanes \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke          # the benchmark's own test

Run from the repository root. The first run builds `dlcirc` and the
in-process probe from source into .bench_build/ (perfbench/probe); inputs
and traces go to .bench_out/. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md for
the workloads, every metric, and what each per-layer metric should move.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import select
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import gen  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
DLCIRC = os.path.join(BUILD, "dlcirc", "dlcirc")
PROBE = os.path.join(BUILD, "perfbench_probe")
CALIB = os.path.join(BUILD, "perfbench_calib")

# BENCHMARK.json gates compile and serve-lanes; serve-eval runs inside every
# traced run (and alone on request), see README.md for why.
WORKLOADS = ["compile", "serve-eval", "serve-lanes"]
CONNS = 4                 # client connections (and at most 4 client threads)
SETUP_REPS = 5            # server spawns per run; setup_s is their median
WARMUP_ROUNDS = 4         # compile: untimed rounds; setup_s is their median
# perfbench_calib's median wall time on the reference host, and its output.
# Timed figures are divided by the run's host factors: the median calib wall
# (CPU) time over CALIB_REF_MS for wall (CPU) times (README.md, "Steadiness").
CALIB_REF_MS = 30.0
CALIB_SUM = "38311838617"
# Serving: the fixed offered rate (well under capacity on a 4-core x86 box:
# one unbatched serve-eval sweep takes ~2 ms, serve-lanes peaks ~2.7k rps)
# and the p99 latency limit that defines slo_rps.
FIXED_RPS = {"serve-eval": 250.0, "serve-lanes": 700.0}
LATENCY_LIMIT_MS = {"serve-eval": 20.0, "serve-lanes": 20.0}
# slo_rps: open-loop levels at these multiples of the fixed rate (a level
# whose p99 passes 4x the limit ends the ladder); log p99 is fitted against
# log rate over the fixed phase and the levels, and slo_rps is the rate where
# the fit meets the limit, kept within the measured range.
LADDER_LEVELS = (1.5, 2.0, 2.5, 3.0)
P99_WINDOWS = 3           # fixed phase windows; p99_ms is their median p99
WARMUP_BURST = 256        # pipelined at once: the widest batch, pre-faulted
COMPILE_SHARE = 0.5       # serve runs: share of --seconds on the compile rotation
FIXED_SHARE = 0.5         # traced ladder runs: share spent at the fixed rate
TRACED_SERVE_SHARE = 0.45  # traced run: --seconds share of each serve part
DRAIN_S = 15.0            # max wait for outstanding responses after a phase
STARTUP_TIMEOUT_S = 60.0  # max wait for a server's banner and first ping
# `dlcirc serve` answers pings before it installs its SIGINT handler, so a
# SIGINT right after the first ping can kill it instead of draining it.
# Server.stop() therefore waits this long after the ping.
SIGNAL_GRACE_S = 0.25

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "cpu_ms_per_op": "ms",
    **{"run_ms.%s" % f: "ms" for f in gen.FAMILIES},
}
COMPILE_LAYER = [
    ("datalog.load_ms", "ms"), ("datalog.ground_ms", "ms"),
    ("pipeline.plan_ms", "ms"), ("pipeline.compile_ms", "ms"),
    ("constructions.construct_ms", "ms"), ("eval.passes_ms", "ms"),
    ("eval.plan_build_ms", "ms"), ("eval.passes_removed_frac", "fraction"),
    ("circuit.slots", "count"), ("circuit.layers", "count"),
    ("pipeline.est_size_ratio", "ratio"), ("eval.sweep_ms", "ms"),
    ("cli.overhead_ms", "ms"),
]
SERVE_EVAL_LAYER = [
    ("p50_ms", "ms"), ("p99_ms", "ms"), ("slo_rps", "1/s"),
    ("eval.sweep_ms.p50", "ms"), ("eval.sweep_ns_per_slot_lane", "ns"),
    ("eval.value_buffer_mb", "MB"), ("serve.batch_size.p50", "count"),
    ("serve.queue_wait_us.p50", "us"), ("serve.queue_wait_us.p99", "us"),
    ("serve.net.request_us.p50", "us"), ("cli.frontend_us", "us"),
    ("serve.wire.parse_us", "us"), ("trace.overhead_frac", "fraction"),
    ("gen.lateness_ms.p99", "ms"),
]
SERVE_LANES_LAYER = [
    ("p50_ms", "ms"), ("p99_ms", "ms"), ("slo_rps", "1/s"),
    ("cli.frontend_us", "us"), ("serve.wire.parse_us", "us"),
    ("serve.net.request_us.p50", "us"), ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"), ("serve.lane_wait_us.p99", "us"),
    ("eval.delta.update_us.p50", "us"), ("eval.delta.recomputed.mean", "count"),
    ("eval.delta.fallback_frac", "fraction"), ("explain.us.p50", "us"),
    ("trace.overhead_frac", "fraction"), ("gen.lateness_ms.p99", "ms"),
]


def per_layer_units():
    units = {"error_rate": "fraction"}
    for name, unit in COMPILE_LAYER:
        for f in gen.FAMILIES:
            units["%s.%s" % (name, f)] = unit
    for name, unit in SERVE_EVAL_LAYER:
        units["%s.serve-eval" % name] = unit
    for name, unit in SERVE_LANES_LAYER:
        units["%s.serve-lanes" % name] = unit
    return units


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ processes

def child_env():
    env = dict(os.environ)
    env.pop("DLCIRC_THREADS", None)  # CLI default: one evaluator thread
    return env


LIVE = []  # every spawned process not yet reaped; killed on every exit path


def spawn(cmd, **kw):
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, **kw)
    LIVE.append(proc)
    return proc


def reap(proc, timeout=20.0):
    """Waits (killing after `timeout` s) and returns the child's peak RSS in
    MB, from wait4's rusage (ru_maxrss). Sets proc.cpu_s to the child's
    user + system CPU time (s), from the same rusage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.cpu_s = usage.ru_utime + usage.ru_stime
    LIVE.remove(proc)
    return usage.ru_maxrss / 1024.0


def kill_all():
    for proc in list(LIVE):
        try:
            proc.kill()
        except OSError:
            pass
        reap(proc)


def run_child(cmd, timeout=170.0):
    """Runs `cmd` to completion: (exit code, stdout, stderr, wall s, RSS MB,
    CPU s).
    stdout and stderr go through files so a chatty child cannot block."""
    t0 = time.perf_counter()
    with open(os.devnull, "rb") as devnull, tempfile.TemporaryFile() as out, \
            tempfile.TemporaryFile() as err:
        proc = spawn(cmd, stdin=devnull, stdout=out, stderr=err)
        rss = reap(proc, timeout)
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(), wall, rss,
                proc.cpu_s)


# ------------------------------------------------------------------ build

def build():
    """Configures and builds dlcirc + perfbench_probe; quiet on success."""
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(HERE, "probe"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "dlcirc_cli", "perfbench_probe", "perfbench_calib"])
    with open(logf, "w") as logh:
        for cmd in steps:
            if subprocess.call(cmd, stdout=logh, stderr=subprocess.STDOUT,
                               env=child_env()) != 0:
                with open(logf) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for fp in files:
            if "__pycache__" in fp:
                continue
            h.update(os.path.relpath(fp, ROOT).encode())
            with open(fp, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(seed):
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            pass
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    build_type = cache_value("CMAKE_BUILD_TYPE")
    return {
        "hardware_concurrency": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "build_type": build_type,
        "build_type_flag": "" if build_type == "Release" else "NOT-RELEASE",
        "compiler": version or compiler,
        "commit": commit,
        "source_digest": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
    }


# ------------------------------------------------------------------ spans

class Spans:
    """The benchmark's own spans, kept in memory and written at the end:
    one per client request or public-function call (name, start, end,
    parent, request id; times in seconds on the perf_counter clock)."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.items = []

    def add(self, name, start, end, parent=None, rid=None):
        if not self.enabled:
            return None
        self.items.append({"id": len(self.items), "name": name, "start": start,
                           "end": end, "parent": parent, "rid": rid})
        return len(self.items) - 1

    def write(self, path):
        if self.enabled:
            with open(path, "w") as f:
                json.dump(self.items, f)


# ------------------------------------------------------------------ helpers

def pct(values, q):
    """Nearest-rank percentile (q in [0, 100])."""
    if not values:
        return float("nan")
    s = sorted(values)
    k = max(0, min(len(s) - 1, math.ceil(q / 100.0 * len(s)) - 1))
    return s[k]


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def oracle(instance_args, mode, lines, workdir, tag):
    """Reference values via the probe: one list of strings per input line."""
    path = os.path.join(workdir, "oracle-%s.tsv" % tag)
    write(path, "".join(lines))
    rc, out, err, *_ = run_child([PROBE, "oracle"] + instance_args +
                                 ["--mode", mode, "--in", path], timeout=170)
    if rc != 0:
        raise BenchError("oracle failed: " + err[-500:])
    rows = [l.split("\t") for l in out.splitlines()]
    if len(rows) != len(lines):
        raise BenchError("oracle returned %d rows for %d lines" % (len(rows), len(lines)))
    return rows


def oracle_line(tags, queries):
    return ",".join(tags) + "\t" + "\t".join(queries) + "\n"


# ------------------------------------------------------------------ compile

def family_files(seed, sizes, workdir):
    """Writes every family instance; returns per-family dicts with paths."""
    out = {}
    for fam in gen.FAMILIES:
        inst = gen.family_instance(fam, seed, sizes)
        d = os.path.join(workdir, fam)
        os.makedirs(d, exist_ok=True)
        for name, text in inst["files"].items():
            write(os.path.join(d, name), text)
        inst["args"] = ["--program", os.path.join(d, "program.dl"),
                        inst["edb_flag"], os.path.join(d, inst["edb_file"]),
                        "--semiring", inst["semiring"]]
        inst["tags_path"] = os.path.join(d, "tags.csv")
        out[fam] = inst
    return out


def family_oracle(inst, workdir):
    mode = "fw" if inst["family"] in ("tc", "tc-nonlinear") else "seminaive"
    lines = [l + "\t" + "\t".join(inst["queries"]) + "\n"
             for l in inst["files"]["tags.csv"].splitlines()]
    return oracle(inst["args"], mode, lines, workdir, inst["family"])


def run_cmd(inst):
    cmd = [DLCIRC, "run"] + inst["args"] + ["--construction", "auto",
                                            "--batch", inst["tags_path"], "--format", "json"]
    for q in inst["queries"]:
        cmd += ["--query", q]
    return cmd


def one_shot(inst, expected):
    """One `dlcirc run`: (wall ms, CPU ms, RSS MB, ok, parsed output or None)."""
    rc, out, _, wall, rss, cpu = run_child(run_cmd(inst))
    if rc != 0:
        return wall * 1e3, cpu * 1e3, rss, False, None
    try:
        j = json.loads(out)
        got = [[r["values"][lane] for r in j["results"]] for lane in range(j["lanes"])]
        facts = [r["fact"] for r in j["results"]]
    except (ValueError, KeyError, IndexError):
        return wall * 1e3, cpu * 1e3, rss, False, None
    return wall * 1e3, cpu * 1e3, rss, got == expected and facts == inst["queries"], j


def calib_run():
    """One perfbench_calib run (fixed reference work): (wall ms, CPU ms)."""
    rc, out, err, wall, _, cpu = run_child([CALIB])
    if rc != 0 or out.strip() != CALIB_SUM:
        raise BenchError("perfbench_calib failed (exit %d, printed %r): %s"
                         % (rc, out[:40], err[-300:]))
    return wall * 1e3, cpu * 1e3


class Rotation:
    """The compile rotation's samples: per family, the wall and CPU times
    (ms) of its one-shot runs, and each one's ratios to the wall and CPU
    times of the calib run right before it; every calib (wall, CPU) ms;
    counts, peak child RSS and planner picks."""

    def __init__(self, calib=None):
        self.wall = {f: [] for f in gen.FAMILIES}
        self.cpu = {f: [] for f in gen.FAMILIES}
        self.wall_ratio = {f: [] for f in gen.FAMILIES}
        self.cpu_ratio = {f: [] for f in gen.FAMILIES}
        self.calib = calib if calib is not None else []
        self.attempted = self.failed = 0
        self.rss = 0.0
        self.picks = {}

    def round(self, insts, expected):
        """One run per family, in FAMILIES order, each right after a calib
        run; returns the round's summed one-shot wall time (s)."""
        total = 0.0
        for f in gen.FAMILIES:
            calib_wall, calib_cpu = calib_run()
            self.calib.append((calib_wall, calib_cpu))
            ms, cpu, rss, ok, j = one_shot(insts[f], expected[f])
            self.wall[f].append(ms)
            self.cpu[f].append(cpu)
            self.wall_ratio[f].append(ms / calib_wall)
            self.cpu_ratio[f].append(cpu / max(calib_cpu, 1e-3))
            total += ms / 1e3
            self.attempted += 1
            self.failed += not ok
            self.rss = max(self.rss, rss)
            if j:
                self.picks[f] = {"construction": j["construction"],
                                 "slots": j["plan"]["slots"], "layers": j["plan"]["layers"]}
        return total

    def run(self, insts, expected, seconds):
        """Whole rounds until `seconds` have passed (at least one)."""
        t_end = time.perf_counter() + seconds
        self.round(insts, expected)
        while time.perf_counter() < t_end:
            self.round(insts, expected)

    def factors(self):
        """Host factors (wall, CPU): the calib runs' median wall and CPU
        times over CALIB_REF_MS."""
        return (statistics.median(c[0] for c in self.calib) / CALIB_REF_MS,
                statistics.median(c[1] for c in self.calib) / CALIB_REF_MS)

    def metrics(self):
        """run_ms.<f>: CALIB_REF_MS times the family's median ratio of wall
        time to the calib run before it. cpu_ms_per_op: the same with CPU
        times, over the runs of all families."""
        m = {"run_ms.%s" % f: statistics.median(self.wall_ratio[f]) * CALIB_REF_MS
             for f in gen.FAMILIES}
        m["cpu_ms_per_op"] = statistics.median(
            x for f in gen.FAMILIES for x in self.cpu_ratio[f]) * CALIB_REF_MS
        return m

    def report(self):
        wall_f, cpu_f = self.factors()
        return {"picks": self.picks, "samples": {f: len(v) for f, v in self.wall.items()},
                "host_factor_wall": wall_f, "host_factor_cpu": cpu_f,
                "raw_run_ms": {f: statistics.median(v) for f, v in self.wall.items()},
                "raw_cpu_ms": {f: statistics.median(v) for f, v in self.cpu.items()}}


def compile_inputs(seed, sizes, workdir):
    insts = family_files(seed, sizes, workdir)
    return insts, {f: family_oracle(insts[f], workdir) for f in gen.FAMILIES}


def compile_workload(seed, seconds, sizes, workdir, report):
    insts, expected = compile_inputs(seed, sizes, workdir)
    warm_rot = Rotation()
    warm = [warm_rot.round(insts, expected) for _ in range(WARMUP_ROUNDS)]
    # The warm-up's calib runs count toward the host factor too.
    rot = Rotation(calib=warm_rot.calib)
    rot.run(insts, expected, seconds)
    metrics = rot.metrics()
    metrics["setup_s"] = statistics.median(warm) / rot.factors()[0]
    metrics["peak_rss_mb"] = max(warm_rot.rss, rot.rss)
    report["compile"] = dict(rot.report(), warmup_rounds_s=warm)
    return warm_rot.attempted + rot.attempted, warm_rot.failed + rot.failed, metrics


# ------------------------------------------------------------------ serving

class Server:
    """A `dlcirc serve --listen 127.0.0.1:0` child; ready once ping answers."""

    def __init__(self, args, trace_out=None):
        cmd = [DLCIRC, "serve"] + args + ["--construction", "auto",
                                          "--listen", "127.0.0.1:0", "--quiet"]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        t0 = time.perf_counter()
        self.proc = spawn(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
        if not select.select([self.proc.stderr], [], [], STARTUP_TIMEOUT_S)[0]:
            raise BenchError("server printed no banner in %.0f s" % STARTUP_TIMEOUT_S)
        banner = self.proc.stderr.readline().decode()
        if "listening on" not in banner:
            raise BenchError("server did not start: " + banner +
                             self.proc.stderr.read(2000).decode())
        self.port = int(banner.strip().rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=STARTUP_TIMEOUT_S) as sock:
            sock.sendall(b'{"id":"ready","op":"ping"}\n')
            reply = sock.makefile("rb").readline()
        self.ready_at = time.perf_counter()
        self.setup_s = self.ready_at - t0
        if b'"ok": true' not in reply:
            raise BenchError("ping failed: %r" % reply)

    def stop(self):
        """SIGINT (graceful drain); returns the server's peak RSS in MB and
        sets cpu_s to its user + system CPU time (s)."""
        time.sleep(max(0.0, self.ready_at + SIGNAL_GRACE_S - time.perf_counter()))
        self.proc.send_signal(signal.SIGINT)
        rss = reap(self.proc)
        self.cpu_s = self.proc.cpu_s
        self.proc.stderr.close()
        if self.proc.returncode != 0:
            raise BenchError("server exited with %d" % self.proc.returncode)
        return rss


class Client:
    """CONNS persistent pipelined connections driven from one thread."""

    def __init__(self, port):
        self.sel = selectors.DefaultSelector()
        self.socks = []
        for c in range(CONNS):
            s = socket.create_connection(("127.0.0.1", port))
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.setblocking(False)
            self.socks.append(s)
            self.sel.register(s, selectors.EVENT_READ, c)
        self.inbuf = [b""] * CONNS
        self.outbuf = [b""] * CONNS
        self.pending = [[] for _ in range(CONNS)]  # FIFO of request records

    def close(self):
        for s in self.socks:
            self.sel.unregister(s)
            s.close()
        self.sel.close()

    def _flush(self, c):
        if self.outbuf[c]:
            try:
                n = self.socks[c].send(self.outbuf[c])
                self.outbuf[c] = self.outbuf[c][n:]
            except BlockingIOError:
                pass

    def _read(self, c, now, done):
        try:
            chunk = self.socks[c].recv(1 << 20)
        except BlockingIOError:
            return
        if not chunk:
            raise BenchError("server closed connection %d" % c)
        buf = self.inbuf[c] + chunk
        *lines, rest = buf.split(b"\n")
        self.inbuf[c] = rest
        for line in lines:
            if not self.pending[c]:
                raise BenchError("unrequested response on connection %d: %r" % (c, line))
            rec = self.pending[c].pop(0)
            rec["recv"] = now
            rec["resp"] = line
            done.append(rec)

    def outstanding(self):
        return sum(len(p) for p in self.pending)

    def run(self, recs, rate):
        """Open loop: request k is due at t0 + k / rate on connection
        recs[k]["conn"]; each record gets send/recv times and the response
        line, and the call returns (t0, completed records) once every
        response is in. The collector is paused so
        its pauses do not land in the latencies."""
        gc.disable()
        try:
            return self._run(recs, rate)
        finally:
            gc.enable()

    def _run(self, recs, rate):
        done = []
        t0 = time.perf_counter() + 0.001
        k = 0
        while k < len(recs) or self.outstanding():
            now = time.perf_counter()
            while k < len(recs) and t0 + k / rate <= now:
                rec = recs[k]
                rec["due"] = t0 + k / rate
                rec["send"] = now
                c = rec["conn"]
                self.outbuf[c] += rec["line"]
                self.pending[c].append(rec)
                self._flush(c)
                k += 1
            if k < len(recs):
                timeout = max(0.0, t0 + k / rate - time.perf_counter())
            else:
                timeout = 0.05
                if now - (t0 + len(recs) / rate) > DRAIN_S:
                    raise BenchError("%d responses missing %.0f s after the last request"
                                     % (self.outstanding(), DRAIN_S))
            for c in range(CONNS):
                self._flush(c)
            for key, _ in self.sel.select(timeout):
                self._read(key.data, time.perf_counter(), done)
        return t0, done

    def call(self, c, line):
        """One closed-loop request on connection c; returns the response."""
        rec = {"conn": c, "line": line}
        _, done = self.run([rec], 1e9)
        return done[0]["resp"] if done else b""


def check_response(rec):
    """True iff the response is ok, matches the request id, and every value
    (and epoch, explain top-1 weight) matches the oracle."""
    try:
        r = json.loads(rec["resp"])
    except (ValueError, KeyError):
        return False
    if r.get("ok") is not True or r.get("id") != rec["id"]:
        return False
    results = r.get("results")
    exp = rec.get("expected")
    if exp is None or results is None:
        return exp is None
    if [x.get("fact") for x in results] != rec["query"]:
        return False
    if [x.get("value") for x in results] != exp:
        return False
    if "epoch" in rec and r.get("epoch") != rec["epoch"]:
        return False
    if rec["op"] == "explain":
        ex = r.get("explain") or {}
        proofs = ex.get("proofs") or []
        if ex.get("value") != exp[0] or not proofs or proofs[0].get("weight") != exp[0]:
            return False
    return True


def parse_prometheus(text):
    """Prometheus text exposition -> {series (name plus labels): value}."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, val = line.rpartition(" ")
        try:
            out[key] = float(val)
        except ValueError:
            pass
    return out


def quantile(prom, name, q):
    return prom.get('%s{quantile="%s"}' % (name, q), float("nan"))


class ServeStreams:
    """Request records for one serve workload, generated from the seed, with
    oracle answers filled in lazily for the prefix actually sent."""

    def __init__(self, workload, seed, inst, count):
        self.workload = workload
        self.inst = inst
        self.records = []
        if workload == "serve-eval":
            for req in gen.eval_stream(seed, inst, count):
                self.records.append(self._rec(req, req["tags"]))
            self.setup = []
        else:
            lanes = {}
            self.setup = []
            # lane_setup lists each connection's lanes together, in order.
            for k, req in enumerate(gen.lane_setup(seed, inst, CONNS)):
                lanes[req["lane"]] = {"tags": list(req["tags"]), "epoch": 1}
                rec = self._rec(req, req["tags"], epoch=1)
                rec["conn"] = k // gen.LANES_PER_CONN
                self.setup.append(rec)
            for req in gen.lanes_stream(seed, inst, CONNS, count):
                lane = lanes[req["lane"]]
                if req["op"] == "update":
                    for var, value in req["set"]:
                        lane["tags"][int(var[1:])] = value
                    lane["epoch"] += 1
                self.records.append(self._rec(req, list(lane["tags"]), epoch=lane["epoch"]))
        for k, rec in enumerate(self.records):
            rec["conn"] = k % CONNS
        self.next = 0

    @staticmethod
    def _rec(req, tags, epoch=None):
        rec = {"id": req["id"], "op": req["op"], "query": req["query"],
               "line": gen.encode(req), "tags": tags}
        if epoch is not None:
            rec["epoch"] = epoch
        return rec

    def take(self, count):
        out = self.records[self.next:self.next + count]
        self.next += len(out)
        if len(out) < count:
            raise BenchError("request stream exhausted")
        return out

    def fill_oracle(self, recs, instance_args, workdir):
        lines = [oracle_line(r["tags"], r["query"]) for r in recs]
        for rec, row in zip(recs, oracle(instance_args, "fw", lines, workdir, self.workload)):
            rec["expected"] = row


def phase_stats(recs, rate, windows=1):
    """Latency (from each request's due time) and generator lateness, ms."""
    lat = [(r["recv"] - r["due"]) * 1e3 for r in recs if "recv" in r]
    late = [(r["send"] - r["due"]) * 1e3 for r in recs if "send" in r]
    q = max(1, len(lat) // 4)
    w = max(1, len(lat) // windows)
    return {
        "rate": rate, "sent": len(recs), "completed": len(lat),
        "p50_ms": statistics.median(lat) if lat else float("inf"),
        "p99_ms": statistics.median(pct(lat[i * w:(i + 1) * w], 99) for i in range(windows))
        if len(lat) >= windows else float("inf"),
        "first_q_p50": statistics.median(lat[:q]) if lat else float("inf"),
        "last_q_p50": statistics.median(lat[-q:]) if lat else float("inf"),
        "lateness_p99_ms": pct(late, 99) if late else 0.0,
    }


def serve_setup(workload, seed, smoke, workdir, reps, trace_out=None):
    inst = gen.serve_instance(seed, smoke)
    write(os.path.join(workdir, "serve.dl"), inst["program"])
    write(os.path.join(workdir, "serve.graph.csv"), inst["graph_csv"])
    args = ["--program", os.path.join(workdir, "serve.dl"),
            "--graph", os.path.join(workdir, "serve.graph.csv"), "--semiring", "tropical"]
    setups, setup_cpu = [], []
    server = None
    for i in range(reps):
        server = Server(args, trace_out if i == reps - 1 else None)
        setups.append(server.setup_s)
        if i < reps - 1:
            server.stop()
            setup_cpu.append(server.cpu_s)
    return inst, args, server, setups, setup_cpu


def warm_up(client, streams, burst):
    """Lane materialization (serve-lanes), then, with `burst`, WARMUP_BURST
    requests pipelined at once, twice: the server coalesces its widest
    batches and faults in their buffers before anything is timed. Traced
    servers skip the bursts, which would dominate the scraped histograms."""
    recs = list(streams.setup)
    client.run(recs, 1e9)
    for _ in range(2 if burst else 0):
        recs += streams.take(WARMUP_BURST)
        client.run(recs[-WARMUP_BURST:], 1e9)
    return recs


def slo_fit(points, limit, lo, hi):
    """Rate where the least-squares fit of log p99 on log rate meets `limit`
    (points: (rate, p99_ms)), clamped to [lo, hi]. A flat or falling fit
    means no level approached the limit: the answer is `hi`."""
    xs = [math.log(r) for r, _ in points]
    ys = [math.log(max(p, 1e-3)) for _, p in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0
    if slope <= 0:
        return hi
    return min(hi, max(lo, math.exp(mx + (math.log(limit) - my) / slope)))


def serve_phase(client, streams, rate, seconds):
    recs = streams.take(max(1, int(rate * seconds)))
    t0, _ = client.run(recs, rate)
    return t0, recs


def serve_workload(workload, seed, seconds, smoke, workdir, report, spans,
                   trace_out=None, ladder=False, between=None):
    """One server lifetime: setup (SETUP_REPS spawns), warm-up, the fixed-
    rate phase in P99_WINDOWS windows (each after a call to `between`, if
    given), then, with `ladder`, the slo_rps ladder. Returns a dict:
    attempted, failed, metrics, fixed (phase stats), scrape (stats and
    metrics ops at the end), streams and args (the served instance)."""
    reps = SETUP_REPS if not trace_out else 1
    inst, args, server, setups, setup_cpu = serve_setup(workload, seed, smoke, workdir, reps,
                                                        trace_out)
    rate = FIXED_RPS[workload] / (8.0 if smoke else 1.0)
    limit = LATENCY_LIMIT_MS[workload] * (4.0 if smoke else 1.0)
    window_s = seconds * (FIXED_SHARE if ladder else 1.0) / P99_WINDOWS
    step_s = seconds * (1 - FIXED_SHARE) / len(LADDER_LEVELS)
    budget = (rate * window_s * P99_WINDOWS + 2 * WARMUP_BURST +
              sum(rate * k * step_s for k in LADDER_LEVELS))
    streams = ServeStreams(workload, seed, inst, int(budget) + 16)
    client = Client(server.port)
    checked = []
    try:
        checked += warm_up(client, streams, burst=not trace_out)
        fixed_recs = []
        for _ in range(P99_WINDOWS):
            if between:
                between()
            t0, recs = serve_phase(client, streams, rate, window_s)
            fixed_recs += recs
            phase_span = spans.add("phase.fixed." + workload, t0, time.perf_counter())
            for r in recs:
                if "recv" in r:
                    spans.add("client." + r["op"], r["due"], r["recv"], phase_span, r["id"])
        checked += fixed_recs
        fixed = phase_stats(fixed_recs, rate, P99_WINDOWS)
        steps = []
        for level in LADDER_LEVELS if ladder else ():
            _, recs = serve_phase(client, streams, rate * level, step_s)
            checked += recs
            steps.append(phase_stats(recs, rate * level))
            if steps[-1]["p99_ms"] > 4 * limit:
                break
        stats_line = client.call(0, b'{"id":"stats","op":"stats"}\n')
        metrics_line = client.call(0, b'{"id":"metrics","op":"metrics"}\n')
    finally:
        client.close()
    rss = server.stop()
    # Oracle answers for everything sent, then the checks — all off the
    # timed path.
    streams.fill_oracle(checked, args, workdir)
    failed = sum(1 for r in checked if not check_response(r))
    scrape = {"stats": json.loads(stats_line)["stats"],
              "prom": parse_prometheus(json.loads(metrics_line)["metrics"])}
    points = [(rate, fixed["p99_ms"])] + [(st["rate"], st["p99_ms"]) for st in steps]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "p50_ms": fixed["p50_ms"],
        "p99_ms": fixed["p99_ms"],
    }
    if setup_cpu:
        # Serving CPU: the server's user + system time (all threads) minus
        # what a server that only starts and stops takes, per request sent.
        metrics["cpu_ms_per_op"] = ((server.cpu_s - statistics.median(setup_cpu)) * 1e3 /
                                    len(checked))
    if ladder:
        metrics["slo_rps"] = slo_fit(points, limit, rate, rate * LADDER_LEVELS[-1])
    report[workload] = {"fixed": fixed, "ladder": steps, "limit_ms": limit,
                        "setups_s": setups, "checked": len(checked),
                        "setup_cpu_s": setup_cpu, "server_cpu_s": server.cpu_s,
                        "stats": scrape["stats"]}
    return {"attempted": len(checked), "failed": failed, "metrics": metrics,
            "fixed": fixed, "scrape": scrape, "streams": streams, "args": args}


def serve_run(workload, seed, seconds, smoke, sizes, workdir, report, spans):
    """An untraced serve run. Every run prints every end-to-end metric, so it
    spends COMPILE_SHARE of its time on the compile rotation, in blocks
    before each fixed-rate window while the server idles. The rotation gives
    run_ms and the host factors; setup_s and the server's cpu_ms_per_op are
    divided by them."""
    insts, expected = compile_inputs(seed, sizes, workdir)
    rot = Rotation()

    def compile_block():
        rot.run(insts, expected, seconds * COMPILE_SHARE / P99_WINDOWS)

    served = serve_workload(workload, seed, seconds * (1 - COMPILE_SHARE), smoke, workdir,
                            report, spans, between=compile_block)
    metrics = dict(served["metrics"])
    metrics.update({k: v for k, v in rot.metrics().items() if k.startswith("run_ms.")})
    wall_f, cpu_f = rot.factors()
    metrics["setup_s"] /= wall_f
    metrics["cpu_ms_per_op"] /= cpu_f
    report[workload]["compile"] = rot.report()
    return rot.attempted + served["attempted"], rot.failed + served["failed"], metrics


# ------------------------------------------------------------------ traced run

def traced_compile(seed, sizes, workdir, spans, reps):
    """Per family, `reps` alternating pairs of in-process stage timings (a
    fresh probe process each, cold like the CLI) and one-shot `dlcirc run`
    wall times; medians of each."""
    insts, expected = compile_inputs(seed, sizes, workdir)
    stages = ("load", "ground", "plan", "compile", "sweep")
    m = {}
    attempted = failed = 0
    info = {}
    for f in gen.FAMILIES:
        inst = insts[f]
        probes, walls = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            rc, out, err, *_ = run_child([PROBE, "compile"] + inst["args"] +
                                         ["--batch", inst["tags_path"]])
            parent = spans.add("probe.compile." + f, t0, time.perf_counter())
            if rc != 0:
                raise BenchError("probe compile failed: " + err[-500:])
            probes.append(json.loads(out))
            # Stage spans are laid end to end from the probe's launch: their
            # durations are the probe's, their offsets approximate.
            cursor = t0
            for stage in stages:
                end = cursor + probes[-1][stage + "_ms"] / 1e3
                spans.add("pipeline.%s.%s" % (stage, f), cursor, end, parent)
                cursor = end
            ms, _, _, ok, _ = one_shot(inst, expected[f])
            t1 = time.perf_counter()
            spans.add("cli.run." + f, t1 - ms / 1e3, t1)
            walls.append(ms)
            attempted += 1
            failed += not ok
        p = {k: statistics.median(x[k] for x in probes) for k in probes[0]
             if isinstance(probes[0][k], (int, float))}
        p["construction"] = probes[0]["construction"]
        in_process = sum(p[k + "_ms"] for k in stages)
        m["datalog.load_ms." + f] = p["load_ms"]
        m["datalog.ground_ms." + f] = p["ground_ms"]
        m["pipeline.plan_ms." + f] = p["plan_ms"]
        m["pipeline.compile_ms." + f] = p["compile_ms"]
        m["constructions.construct_ms." + f] = p["construct_ms"]
        m["eval.passes_ms." + f] = p["passes_ms"]
        m["eval.plan_build_ms." + f] = p["plan_build_ms"]
        m["eval.passes_removed_frac." + f] = (
            (p["gates_in"] - p["gates_out"]) / p["gates_in"] if p["gates_in"] else 0.0)
        m["circuit.slots." + f] = p["slots"]
        m["circuit.layers." + f] = p["layers"]
        m["pipeline.est_size_ratio." + f] = p["slots"] / p["est_size"] if p["est_size"] else 0.0
        m["eval.sweep_ms." + f] = p["sweep_ms"]
        m["cli.overhead_ms." + f] = statistics.median(walls) - in_process
        stage_sum = p["construct_ms"] + p["passes_ms"] + p["plan_build_ms"]
        info[f] = {"construction": p["construction"], "est_size": p["est_size"],
                   "slots": p["slots"], "layers": p["layers"],
                   "stage_sum_over_compile": stage_sum / p["compile_ms"]}
    return attempted, failed, m, info


def traced_serve(workload, seed, seconds, smoke, workdir, report, spans):
    """An untraced and a traced (--trace-out) server at the fixed rate; the
    traced one is scraped through stats/metrics, and the probe measures the
    in-process layer costs on this workload's own requests."""
    sub = {}
    plain = serve_workload(workload, seed, seconds, smoke, workdir, sub, Spans(False),
                           ladder=True)
    trace_out = os.path.join(workdir, "server-trace-%s.json" % workload)
    traced = serve_workload(workload, seed, seconds * FIXED_SHARE, smoke, workdir, sub,
                            spans, trace_out=trace_out)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    streams, fixed = traced["streams"], traced["fixed"]
    prom = traced["scrape"]["prom"]
    chans = traced["scrape"]["stats"].get("channels") or [{}]
    width = max(1, int(round(chans[0].get("batch_p50", 1))))
    sent = streams.records[:streams.next]
    lines_path = os.path.join(workdir, "lines-%s.ndjson" % workload)
    write(lines_path, "".join(r["line"].decode() for r in sent))
    cmd = [PROBE, "serve"] + traced["args"] + ["--width", str(width), "--lines", lines_path]
    if workload == "serve-lanes":
        lanes_path = os.path.join(workdir, "lanes.tsv")
        upd_path = os.path.join(workdir, "updates.tsv")
        write(lanes_path, "".join("%s\t%s\n" % (json.loads(r["line"])["lane"], ",".join(r["tags"]))
                                  for r in streams.setup))
        upd = []
        for r in sent:
            if r["op"] == "update":
                req = json.loads(r["line"])
                upd.append("%s\t%s\n" % (req["lane"], ",".join(
                    "%s=%s" % (v[1:], x) for v, x in req["set"])))
        write(upd_path, "".join(upd))
        cmd += ["--lanes", lanes_path, "--updates", upd_path]
    t0 = time.perf_counter()
    rc, out, err, *_ = run_child(cmd)
    spans.add("probe.serve." + workload, t0, time.perf_counter())
    if rc != 0:
        raise BenchError("probe serve failed: " + err[-500:])
    p = json.loads(out)
    req_p50_us = quantile(prom, "dlcirc_serve_request_ns", "0.5") / 1e3
    w = "." + workload
    m = {
        "p50_ms" + w: plain["metrics"]["p50_ms"],
        "p99_ms" + w: plain["metrics"]["p99_ms"],
        "slo_rps" + w: plain["metrics"]["slo_rps"],
        "cli.frontend_us" + w: fixed["p50_ms"] * 1e3 - req_p50_us,
        "serve.wire.parse_us" + w: p["parse_us"],
        "serve.net.request_us.p50" + w: quantile(prom, "dlcirc_net_request_ns", "0.5") / 1e3,
        "serve.queue_wait_us.p50" + w: quantile(prom, "dlcirc_serve_queue_wait_ns", "0.5") / 1e3,
        "serve.queue_wait_us.p99" + w: quantile(prom, "dlcirc_serve_queue_wait_ns", "0.99") / 1e3,
        "trace.overhead_frac" + w: fixed["p50_ms"] / plain["fixed"]["p50_ms"] - 1,
        "gen.lateness_ms.p99" + w: fixed["lateness_p99_ms"],
    }
    if workload == "serve-eval":
        m["eval.sweep_ms.p50" + w] = quantile(prom, "dlcirc_eval_sweep_ns", "0.5") / 1e6
        m["eval.sweep_ns_per_slot_lane" + w] = p["sweep_ns_per_slot_lane"]
        m["eval.value_buffer_mb" + w] = p["slots"] * width * 8 / 1e6
        m["serve.batch_size.p50" + w] = chans[0].get("batch_p50", float("nan"))
    else:
        m["serve.lane_wait_us.p99" + w] = quantile(prom, "dlcirc_serve_lane_wait_ns", "0.99") / 1e3
        m["eval.delta.update_us.p50" + w] = p.get("update_us", 0.0)
        m["eval.delta.recomputed.mean" + w] = p.get("recomputed_mean", 0.0)
        m["eval.delta.fallback_frac" + w] = p.get("fallback_frac", 0.0)
        m["explain.us.p50" + w] = quantile(prom, "dlcirc_serve_explain_ns", "0.5") / 1e3
    report["traced-" + workload] = {"plain": sub.get(workload), "batch_width": width,
                                    "probe": p}
    return attempted, failed, m


# ------------------------------------------------------------------ main

def run(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns the result object (the last stdout line)."""
    workdir = os.path.join(OUT, "%s%s-%d-%d" % ("smoke-" if smoke else "", workload, seed, trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    sizes = gen.SMOKE_SIZES if smoke else gen.FULL_SIZES
    report = {"provenance": provenance(seed), "workload": workload, "trace": trace}
    spans = Spans(bool(trace))
    if not trace:
        if workload == "compile":
            attempted, failed, metrics = compile_workload(seed, seconds, sizes, workdir, report)
        else:
            attempted, failed, metrics = serve_run(workload, seed, seconds, smoke, sizes,
                                                   workdir, report, spans)
        units = END_TO_END
    else:
        # The traced run measures every layer of all three parts, whichever
        # workload names it, with shorter serve phases.
        reps = 1 if smoke else 5
        a1, f1, metrics, info = traced_compile(seed, sizes, workdir, spans, reps)
        report["compile-instances"] = info
        a2, f2, m2 = traced_serve("serve-eval", seed, seconds * TRACED_SERVE_SHARE, smoke,
                                  workdir, report, spans)
        a3, f3, m3 = traced_serve("serve-lanes", seed, seconds * TRACED_SERVE_SHARE, smoke,
                                  workdir, report, spans)
        metrics.update(m2)
        metrics.update(m3)
        attempted, failed = a1 + a2 + a3, f1 + f2 + f3
        metrics["error_rate"] = failed / attempted
        units = per_layer_units()
    spans.write(os.path.join(workdir, "spans.json"))
    with open(os.path.join(workdir, "report.json"), "w") as f:
        json.dump(report, f, indent=1, default=str)
    log("report: " + os.path.relpath(os.path.join(workdir, "report.json"), ROOT))
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }, report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="the benchmark's own test: tiny sizes, all workloads")
    a = ap.parse_args()
    if not a.smoke and not a.workload:
        ap.error("--workload is required (or --smoke)")

    def on_term(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_term)
    # Temporary files (the compiler's, ours, the children's) stay inside
    # the checkout.
    tempfile.tempdir = os.path.join(BUILD, "tmp")
    os.makedirs(tempfile.tempdir, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir
    try:
        build()
        if a.smoke:
            import smoke
            return smoke.main(run)
        result, _ = run(a.workload, a.seed, a.seconds, a.trace)
    except BenchError as e:
        log("error: %s" % e)
        return 1
    finally:
        kill_all()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
