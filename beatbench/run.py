#!/usr/bin/env python3
"""Beatnik-RS benchmark: step time and job latency on four workloads.

Run from the repository root:

    python3 beatbench/run.py --workload low-thread --seed 1 --seconds 10 --trace 0

It builds the worker package in this directory (cargo, release profile),
runs the workload for about ``--seconds`` seconds, checks every result
against ``reference.json``, prints each metric with its unit, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics from untraced runs;
``--trace 1`` reports the per-layer metrics from traced runs, with the
wall-clock figures of the untraced runs beside them. See README.md in
this directory for the metric list and the layer table.

The bounded end-to-end metrics are CPU times. On a shared host the
wall-clock step time drifts with the CPU time other tenants take (by
half or more between two sets of runs), far beyond any bound a change
could be held to; CPU time leaves that out. Wall-clock step and job
latencies are still measured and printed on every run.

Every solver run and every service run is a worker process of its own,
so an abort or a hang costs one attempt (counted in ``failed``) rather
than the benchmark.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
REFERENCE = os.path.join(BENCH, "reference.json")

# Relative tolerance on final diagnostics against the 1-rank reference.
# Rank count only changes reduction order, which moves these by ~1e-14.
DIAG_RTOL = 1e-9
DIAG_KEYS = ("amplitude", "enstrophy", "z_min", "z_max")
# Traced-run self-test: phase self times (summed over ranks) must add up
# to the benchmark's own step timings within this share.
SELFTEST_RTOL = 0.01
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
P90_MIN_SAMPLES = 100
# Hard ceiling on one benchmark invocation, below the 180 s budget.
MAX_WALL_S = 150.0
SEGMENT_TIMEOUT_S = 90.0
# Service-level objective on job latency (from due time), serve-open.
SLO_LATENCY_S = 0.5

RANKS = 2
SOLVE_STEPS = 20
SOLVE_SETUP_REPS = 3
# The first step of every solver run pays lazy set-up (first-touch pages,
# plan and buffer warm-up) that a long simulation pays once. It is timed
# and checked but left out of the step statistics.
WARMUP_STEPS = 1

WORKLOADS = {
    "low-thread": dict(case="low", n=256, transport="thread", ref="low-256",
                       why="FFT all-to-all: dfft redistribute + butterflies, working set above L2"),
    "low-tcp": dict(case="low", n=256, transport="tcp", ref="low-256", bitwise="low-256-thread2",
                    why="same dfft calls over the TCP loopback wire: framing, CRC, copies, acks"),
    "cutoff-single": dict(case="cutoff", n=96, transport="thread", ref="cutoff-96",
                          why="load imbalance: br-cutoff pair kernel + irregular migration"),
    "serve-open": dict(why="open-loop Poisson job arrivals on a 2-rank beatnik-serve pool"),
}

# serve-open: a fixed mix of small jobs, drawn in equal shares; priority
# is uniform in 0..9 so that high-priority 2-rank jobs preempt.
SERVE_TYPES = {
    "low-2r": dict(deck="multimode", order="low", mesh_n=32, steps=6, ranks=2, min_ranks=1),
    "low-1r": dict(deck="multimode", order="low", mesh_n=32, steps=6, ranks=1, min_ranks=1),
    "cut-2r": dict(deck="singlemode", order="high", mesh_n=32, steps=4, ranks=2, min_ranks=1),
    "cut-1r": dict(deck="singlemode", order="high", mesh_n=32, steps=3, ranks=1, min_ranks=1),
}
# Offered load: a stated fraction of the pool's capacity as measured on
# the host the benchmark was defined on (README.md, "Sizing").
SERVE_CAPACITY_JOBS_PER_S = 190.0
SERVE_LOAD_FRACTION = 0.1
SERVE_SETUP_REPS = 31
SERVE_CHUNKS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- statistics

def percentile(xs, q):
    """Linear-interpolated percentile (q in [0, 1]) of a non-empty list."""
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(xs):
    return percentile(xs, 0.5)


def tail_ok(n, q):
    """Whether ``n`` samples leave at least TAIL_SAMPLES beyond quantile q."""
    return round(n * (1.0 - q), 9) >= TAIL_SAMPLES


# ------------------------------------------------------------- correctness

def finite(x):
    return isinstance(x, (int, float)) and x == x and abs(x) != float("inf")


def check_diag(diag, ref):
    """Problems with one run's final diagnostics against its reference.

    A diverged run shows up here as non-finite (null) values or as a
    relative error far beyond DIAG_RTOL; an empty list means it passed.
    """
    if not isinstance(diag, dict):
        return ["no diagnostics"]
    problems = []
    if diag.get("points") != ref["points"]:
        problems.append("points %s != %s" % (diag.get("points"), ref["points"]))
    for k in DIAG_KEYS:
        got, want = diag.get(k), ref[k]
        if not finite(got):
            problems.append("%s not finite (%s)" % (k, got))
        elif abs(got - want) > DIAG_RTOL * max(abs(want), 1e-300):
            problems.append("%s %.17g differs from reference %.17g" % (k, got, want))
    return problems


def check_bits(diag, bits):
    """Problems with a run that must match a thread run bit for bit."""
    got = (diag or {}).get("bits", {})
    return ["%s bits %s != %s" % (k, got.get(k), v) for k, v in bits.items() if got.get(k) != v]


def check_layers(layers):
    """Traced-run self-test: spans account for the timed steps, none dropped."""
    problems = []
    timed, spans = layers["rank_step_s"], layers["phase_self_s"]
    if abs(spans - timed) > SELFTEST_RTOL * timed:
        problems.append("phase self times %.6f s vs timed steps %.6f s" % (spans, timed))
    dropped = layers["metrics"]["telemetry.dropped_spans"]
    if dropped:
        problems.append("%d spans dropped" % dropped)
    return problems


# ----------------------------------------------------------------- plumbing

def build():
    """Build the worker; return the path of its executable."""
    cmd = ["cargo", "build", "--release", "--offline", "--message-format=json",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if out.returncode != 0:
        raise SystemExit("beatbench: worker build failed (cargo exit %d)" % out.returncode)
    exe = None
    for line in out.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg.get("target", {}).get("name") == "beatbench":
            exe = msg["executable"]
    if not exe:
        raise SystemExit("beatbench: cargo reported no beatbench executable")
    return exe


def run_worker(cmd, stdin=None, timeout=SEGMENT_TIMEOUT_S):
    """Run one worker process; return (result dict or None, failure text)."""
    try:
        out = subprocess.run(cmd, input=stdin, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout
    if out.returncode != 0:
        tail = out.stderr.strip().splitlines()[-1:] or [""]
        return None, "exit code %d: %s" % (out.returncode, tail[0][:200])
    try:
        return json.loads(out.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparsable worker output"


def solve_cmd(exe, w, ranks=RANKS, steps=SOLVE_STEPS, reps=SOLVE_SETUP_REPS, traced=False, transport=None):
    return [exe, "solve", "--case", w["case"], "--n", str(w["n"]),
            "--transport", transport or w["transport"], "--ranks", str(ranks),
            "--steps", str(steps), "--setup-reps", str(reps), "--trace", "1" if traced else "0"]


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def host_facts():
    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    rev = cmd_out(["git", "rev-parse", "HEAD"])
    return {
        "nproc": nproc,
        "ranks": RANKS,
        "ranks_per_core": RANKS / nproc,
        "cpu_model": cpu,
        "rustc": cmd_out(["rustc", "--version"]),
        "git_rev": rev if len(rev) == 40 else "unknown (not a git checkout)",
    }


def working_set(w):
    """Computed per-rank bytes of the solver's node state, for the header.

    Position (3) and vorticity (2) doubles per node, times the three
    copies the RK3 integrator holds; a lower bound that ignores FFT and
    halo buffers (peak_rss_mib is the measured upper bound).
    """
    nodes = w["n"] * w["n"] / RANKS
    return int(nodes * 5 * 8 * 3)


# ------------------------------------------------------------ solver runs

def run_solve(exe, name, w, seconds, trace, ref):
    """Segments of SOLVE_STEPS steps until ``seconds`` pass (at least two
    untraced segments, and one traced with ``trace``)."""
    deck = ref["decks"][w["ref"]]
    bits = ref["decks"][w["bitwise"]]["bits"] if "bitwise" in w else None
    start = time.monotonic()
    plain, traced, failures, problems = [], [], [], []
    attempted = 0
    while True:
        use_trace = bool(trace) and len(plain) > len(traced)
        data, err = run_worker(solve_cmd(exe, w, traced=use_trace))
        attempted += 1
        if data is not None:
            bad = check_diag(data["diag"], deck["diag"])
            if bits is not None:
                bad += check_bits(data["diag"], bits)
            if use_trace:
                problems += check_layers(data["layers"])
            err = "; ".join(bad) or None
        if err:
            failures.append(err)
            log("%s: segment %d failed: %s" % (name, attempted, err))
        else:
            (traced if use_trace else plain).append(data)
        elapsed = time.monotonic() - start
        enough = len(plain) >= 2 and (not trace or traced)
        # Past --seconds, keep going only to reach the segment minimum,
        # and not at all once a run has failed.
        if elapsed >= seconds and (enough or failures):
            break
        if elapsed + 2 * elapsed / attempted >= MAX_WALL_S:
            break
    return plain, traced, attempted, failures, problems


def steady(segment, key="step_s"):
    """A per-step series (wall-clock step times by default) of one solver
    run after its warm-up steps."""
    return segment[key][WARMUP_STEPS:]


def solve_e2e(plain):
    """Bounded end-to-end metrics of untraced solver runs (CPU time)."""
    setups = [x for d in plain for x in d["setup_cpu_s"]]
    # On a solver workload one step is the unit of work a caller waits for.
    cpu = [x for d in plain for x in steady(d, "proc_cpu_s")]
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "cpu_s_per_job": (median(cpu), "s", len(cpu)),
        "peak_rss_mib": (median([d["peak_rss_kib"] / 1024.0 for d in plain]), "MiB", len(plain)),
    }


def solve_wall(plain):
    """Wall-clock figures of untraced solver runs, and the busiest rank's
    CPU time per step (which, unlike process CPU, shows load imbalance)."""
    steps = [x for d in plain for x in steady(d)]
    busiest = [x for d in plain for x in steady(d, "busiest_cpu_s")]
    setups = [x for d in plain for x in d["setup_s"]]
    node_steps = sum(d["nodes"] * len(steady(d)) for d in plain)
    return {
        "wall.setup_s": (median(setups), "s", len(setups)),
        "wall.step_s.p50": (median(steps), "s", len(steps)),
        "wall.step_s.p90": (percentile(steps, 0.9), "s", len(steps)),
        "wall.node_steps_per_s": (node_steps / sum(steps), "1/s", len(plain)),
        "core.step.busiest_cpu_s.p50": (median(busiest), "s", len(busiest)),
        "core.step.busiest_cpu_s.p90": (percentile(busiest, 0.9), "s", len(busiest)),
    }


def solve_layers(plain, traced):
    """Per-layer metrics: medians over traced segments, plus overhead."""
    out = {}
    for key in traced[0]["layers"]["metrics"]:
        vals = [d["layers"]["metrics"][key] for d in traced]
        out[key] = (median(vals), LAYER_UNITS[key], len(vals))
    untraced = median([x for d in plain for x in steady(d, "proc_cpu_s")])
    with_spans = median([x for d in traced for x in steady(d, "proc_cpu_s")])
    out["telemetry.overhead_frac"] = (with_spans / untraced - 1.0, "ratio", len(traced))
    return out


# ------------------------------------------------------------ service runs

def serve_schedule(seed, seconds, profile=False):
    """Seeded open-loop schedule over ``seconds``: Poisson arrivals at the
    offered rate, each job type and each priority 0..9 in equal shares.

    The arrival count is fixed at rate x seconds and the arrival times
    are that many uniform draws, sorted: a Poisson process conditioned
    on its count, so the offered load is the same on every seed.
    """
    rng = random.Random(seed)
    rate = SERVE_CAPACITY_JOBS_PER_S * SERVE_LOAD_FRACTION
    n = max(P90_MIN_SAMPLES, int(round(rate * seconds)))
    window = n / rate
    names = sorted(SERVE_TYPES)
    kinds = [names[i % len(names)] for i in range(n)]
    priorities = [i % 10 for i in range(n)]
    rng.shuffle(kinds)
    rng.shuffle(priorities)
    due = sorted(rng.uniform(0.0, window) for _ in range(n))
    out = [{"due_s": round(t - due[0], 6),
            "spec": dict(SERVE_TYPES[kind], name=kind, priority=prio, profile=profile)}
           for t, kind, prio in zip(due, kinds, priorities)]
    return out, rate


def run_serve(exe, seconds, schedule):
    work = os.path.join(BENCH, ".work", "serve-%d" % os.getpid())
    cmd = [exe, "serve", "--pool-ranks", str(RANKS), "--setup-reps", str(SERVE_SETUP_REPS),
           "--work-dir", work]
    stdin = "".join(json.dumps(x) + "\n" for x in schedule)
    # The worker waits up to 60 s for the last jobs to drain.
    return run_worker(cmd, stdin=stdin, timeout=seconds + 90)


def check_job(job, ref):
    """Problems with one served job; empty when it completed correctly."""
    if job.get("status") != 201:
        return ["refused with HTTP %s" % job.get("status")]
    if job.get("state") != "completed":
        return ["ended %s: %s" % (job.get("state"), job.get("error"))]
    res, want = job.get("result") or {}, ref
    problems = []
    for k in ("amplitude", "enstrophy"):
        if not finite(res.get(k)):
            problems.append("%s not finite" % k)
        elif abs(res[k] - want[k]) > DIAG_RTOL * max(abs(want[k]), 1e-300):
            problems.append("%s %.17g differs from reference %.17g" % (k, res[k], want[k]))
    if job.get("latency_s") is None:
        problems.append("no completion time")
    return problems


def serve_summary(data, schedule, ref):
    """Split a service run into good jobs, failures and SLO misses."""
    good, failures, slo_miss = [], [], 0
    for job, sched in zip(data["jobs"], schedule):
        bad = check_job(job, ref["decks"]["serve:" + sched["spec"]["name"]])
        if bad:
            failures.append("job %s: %s" % (sched["spec"]["name"], "; ".join(bad)))
            slo_miss += 1
        else:
            good.append(job)
            slo_miss += job["latency_s"] > SLO_LATENCY_S
    return good, failures, slo_miss


def serve_e2e(data, good):
    """Bounded end-to-end metrics of one service chunk (CPU time)."""
    return {
        "setup_s": (median(data["setup_cpu_s"]), "s", len(data["setup_cpu_s"])),
        "cpu_s_per_job": (data["cpu_s"] / len(good), "s", len(good)),
        "peak_rss_mib": (data["peak_rss_kib"] / 1024.0, "MiB", 1),
    }


def serve_wall(data, good):
    """Wall-clock figures of one service chunk."""
    lat = [j["latency_s"] for j in good]
    steps = [x for j in good for x in j["step_s"]]
    span = max(j["done_s"] for j in good)
    return {
        "wall.setup_s": (median(data["setup_s"]), "s", len(data["setup_s"])),
        "wall.step_s.p50": (median(steps), "s", len(steps)),
        "wall.step_s.p90": (percentile(steps, 0.9), "s", len(steps)),
        "wall.node_steps_per_s": (sum(j["nodes"] * j["steps"] for j in good) / span, "1/s",
                                  len(good)),
        "wall.job_latency_s.p50": (median(lat), "s", len(lat)),
        "wall.job_latency_s.p90": (percentile(lat, 0.9), "s", len(lat)),
        "wall.jobs_per_s": (len(good) / span, "1/s", len(good)),
    }


def serve_layers(data, good):
    """Service-layer figures of one chunk, from the benchmark's own records."""
    jobs = data["jobs"]
    late = [j["late_s"] for j in jobs]
    waits = [j["queue_wait_s"] for j in good]
    return {
        "serve.queue_wait_s.p50": (median(waits), "s", len(waits)),
        "serve.queue_wait_s.p90": (percentile(waits, 0.9), "s", len(waits)),
        "serve.run_s.p50": (median([j["run_s"] for j in good]), "s", len(good)),
        "serve.submit_rtt_s.p50": (median([j["submit_rtt_s"] for j in jobs]), "s", len(jobs)),
        "serve.preemptions": (sum(j["preemptions"] for j in good), "count", len(good)),
        "serve.gen_late_s.max": (max(late), "s", len(late)),
    }


def median_of(dicts):
    """Per-key median of (value, unit, n) tuples; n is summed."""
    return {k: (median([d[k][0] for d in dicts]), dicts[0][k][1], sum(d[k][2] for d in dicts))
            for k in dicts[0]}


def run_serve_workload(exe, seed, seconds, trace, ref):
    """SERVE_CHUNKS service runs of seconds/SERVE_CHUNKS each, one server
    process per chunk. With tracing, odd chunks replay the previous
    chunk's jobs with span profiling on."""
    chunk_s = max(1.0, seconds / SERVE_CHUNKS)
    chunks, failures = [], []
    attempted = slo_miss = 0
    rate = None
    for i in range(SERVE_CHUNKS):
        traced = bool(trace) and i % 2 == 1
        sched, rate = serve_schedule("%d/%d" % (seed, i // 2 if trace else i), chunk_s, traced)
        data, err = run_serve(exe, chunk_s, sched)
        attempted += len(sched)
        if err:
            failures += ["chunk %d: %s" % (i, err)] * len(sched)
            slo_miss += len(sched)
            continue
        good, bad, miss = serve_summary(data, sched, ref)
        failures += bad
        slo_miss += miss
        if good:
            chunks.append(dict(traced=traced, data=data, good=good))
    return chunks, attempted, failures, slo_miss, rate


# ----------------------------------------------------------------- metrics

# BENCHMARK.json lists these names in this order (test_run.py checks).
END_TO_END = ["setup_s", "cpu_s_per_job", "peak_rss_mib"]

LAYER_UNITS = {
    "wall.setup_s": "s",
    "wall.step_s.p50": "s",
    "wall.step_s.p90": "s",
    "wall.node_steps_per_s": "1/s",
    "wall.job_latency_s.p50": "s",
    "wall.job_latency_s.p90": "s",
    "wall.jobs_per_s": "1/s",
    "dfft.redistribute.calls_per_step": "count",
    "dfft.redistribute.self_s_per_step": "s",
    "dfft.redistribute.wait_s_per_step": "s",
    "dfft.forward.self_s_per_step": "s",
    "dfft.inverse.self_s_per_step": "s",
    "fft.flops_per_step": "flop",
    "comm.alltoallv.msgs_per_step": "count",
    "comm.alltoallv.bytes_per_step": "B",
    "comm.send.msgs_per_step": "count",
    "comm.send.bytes_per_step": "B",
    "comm.bytes_copied_per_step": "B",
    "comm.bytes_handoff_per_step": "B",
    "comm.pool.acquires_per_step": "count",
    "comm.pool.hit_ratio": "ratio",
    "comm.wait_s_per_step": "s",
    "comm.link.replayed_frames": "count",
    "comm.link.reconnects": "count",
    "mesh.halo.calls_per_step": "count",
    "mesh.halo.self_s_per_step": "s",
    "mesh.halo.wait_s_per_step": "s",
    "mesh.migrate_to_spatial.self_s_per_step": "s",
    "mesh.migrate_to_spatial.wait_s_per_step": "s",
    "mesh.halo_points.self_s_per_step": "s",
    "mesh.halo_points.wait_s_per_step": "s",
    "mesh.migrate_home.self_s_per_step": "s",
    "mesh.migrate_home.wait_s_per_step": "s",
    "mesh.migrate.bytes_per_step": "B",
    "mesh.ownership.max_over_mean": "ratio",
    "core.step.self_s_per_step": "s",
    "core.step.busiest_cpu_s.p50": "s",
    "core.step.busiest_cpu_s.p90": "s",
    "core.br_cutoff.calls_per_step": "count",
    "core.br_cutoff.self_s_per_step": "s",
    "core.step.critical_wait_frac": "ratio",
    "core.diagnostics_s": "s",
    "telemetry.overhead_frac": "ratio",
    "telemetry.dropped_spans": "count",
    "serve.queue_wait_s.p50": "s",
    "serve.queue_wait_s.p90": "s",
    "serve.run_s.p50": "s",
    "serve.submit_rtt_s.p50": "s",
    "serve.preemptions": "count",
    "serve.gen_late_s.max": "s",
    "serve.offered_jobs_per_s": "1/s",
    "error_frac": "ratio",
    "slo_miss_frac": "ratio",
}

PERCENTILE_OF = {"wall.step_s.p90": 0.9, "wall.job_latency_s.p90": 0.9,
                 "core.step.busiest_cpu_s.p90": 0.9, "serve.queue_wait_s.p90": 0.9}


def report(metrics):
    """Print one line per metric, flagging percentiles short of samples."""
    for key in sorted(metrics):
        value, unit, n = metrics[key]
        note = ""
        q = PERCENTILE_OF.get(key)
        if q and n and not tail_ok(n, q):
            note = "  (fewer than %d samples beyond p%d)" % (TAIL_SAMPLES, round(q * 100))
        print("  %-44s %16.9g %-6s n=%d%s" % (key, value, unit, n, note))


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in sorted(metrics.items())},
    })


# -------------------------------------------------------------- reference

def make_reference(exe):
    """Run every deck on 1 thread rank and write reference.json."""
    decks = {}
    for name, w in WORKLOADS.items():
        if "ref" not in w:
            continue
        data, err = run_worker(solve_cmd(exe, w, ranks=1, reps=1, transport="thread"), timeout=600)
        if err:
            raise SystemExit("reference %s failed: %s" % (w["ref"], err))
        decks[w["ref"]] = dict(case=w["case"], n=w["n"], steps=SOLVE_STEPS, ranks=1,
                               diag={k: data["diag"][k] for k in DIAG_KEYS + ("points",)})
        if "bitwise" in w:
            data, err = run_worker(solve_cmd(exe, w, reps=1, transport="thread"), timeout=600)
            if err:
                raise SystemExit("reference %s failed: %s" % (w["bitwise"], err))
            decks[w["bitwise"]] = dict(case=w["case"], n=w["n"], steps=SOLVE_STEPS, ranks=RANKS,
                                       transport="thread", bits=data["diag"]["bits"])
    # Each service job type alone, on one rank, spaced so none queue.
    schedule = [{"due_s": 0.2 * i, "spec": dict(spec, name=name, ranks=1, min_ranks=1)}
                for i, (name, spec) in enumerate(sorted(SERVE_TYPES.items()))]
    data, err = run_serve(exe, 5, schedule)
    if err:
        raise SystemExit("reference serve jobs failed: %s" % err)
    for job, sched in zip(data["jobs"], schedule):
        if job.get("state") != "completed":
            raise SystemExit("reference job %s: %s" % (sched["spec"]["name"], job))
        decks["serve:" + sched["spec"]["name"]] = dict(spec=sched["spec"], **job["result"])
    ref = {
        "command": "python3 beatbench/run.py --make-reference",
        "host": host_facts(),
        "tolerance_rel": DIAG_RTOL,
        "decks": decks,
    }
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % REFERENCE)


# -------------------------------------------------------------------- main

def header(name, seed, seconds, trace):
    facts = host_facts()
    w = WORKLOADS[name]
    print("beatbench workload=%s seed=%d seconds=%d trace=%d" % (name, seed, seconds, trace))
    print("host: " + json.dumps(facts, sort_keys=True))
    if "n" in w:
        print("mesh: %dx%d nodes, %d ranks on %s, working set >= %.1f MiB/rank (computed)"
              % (w["n"], w["n"], RANKS, w["transport"], working_set(w) / 2**20))
    print("why: " + w["why"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true",
                    help="regenerate reference.json from 1-rank thread runs")
    ap.add_argument("--host-facts", action="store_true", help="print host facts as JSON")
    args = ap.parse_args(argv)
    if args.host_facts:
        print(json.dumps(host_facts(), indent=2, sort_keys=True))
        return 0
    exe = build()
    if args.make_reference:
        make_reference(exe)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    ref = load_reference()
    name, w = args.workload, WORKLOADS[args.workload]
    header(name, args.seed, args.seconds, args.trace)

    if name == "serve-open":
        chunks, attempted, failures, slo_miss, rate = run_serve_workload(
            exe, args.seed, args.seconds, args.trace, ref)
        failed = len(failures)
        for f in failures[:10]:
            log("serve-open: " + f)
        plain = [c for c in chunks if not c["traced"]]
        traced = [c for c in chunks if c["traced"]]
        if not plain or (args.trace and not traced):
            print(result_line(False, attempted, failed, {}))
            return 0
        print("offered %.3f jobs/s (%.0f%% of %.1f jobs/s capacity), %d jobs in %d chunks, SLO %.3f s"
              % (rate, 100 * SERVE_LOAD_FRACTION, SERVE_CAPACITY_JOBS_PER_S, attempted,
                 SERVE_CHUNKS, SLO_LATENCY_S))
        e2e = median_of([serve_e2e(c["data"], c["good"]) for c in plain])
        wall = median_of([serve_wall(c["data"], c["good"]) for c in plain])
        # Set-up is the median over every boot, not a median of medians,
        # and CPU time per job pools every chunk's CPU time and jobs.
        for out, key, field in ((e2e, "setup_s", "setup_cpu_s"), (wall, "wall.setup_s", "setup_s")):
            setups = [x for c in plain for x in c["data"][field]]
            out[key] = (median(setups), "s", len(setups))
        jobs = sum(len(c["good"]) for c in plain)
        e2e["cpu_s_per_job"] = (sum(c["data"]["cpu_s"] for c in plain) / jobs, "s", jobs)
        print("achieved %.3f jobs/s; error_frac %.4f; slo_miss_frac %.4f"
              % (wall["wall.jobs_per_s"][0], failed / attempted, slo_miss / attempted))
        problems = []
        if args.trace:
            metrics = {k: (0.0, u, 0) for k, u in LAYER_UNITS.items()}
            metrics.update(wall)
            metrics.update(median_of([serve_layers(c["data"], c["good"]) for c in traced]))
            run_s = [[j["run_s"] for c in cs for j in c["good"]] for cs in (plain, traced)]
            metrics.update({
                "serve.offered_jobs_per_s": (rate, "1/s", attempted),
                # The service keeps each job's span ring to itself; the
                # benchmark's own records are never dropped.
                "telemetry.dropped_spans": (0, "count", len(traced)),
                "telemetry.overhead_frac": (median(run_s[1]) / median(run_s[0]) - 1.0, "ratio",
                                            len(run_s[1])),
                "error_frac": (failed / attempted, "ratio", attempted),
                "slo_miss_frac": (slo_miss / attempted, "ratio", attempted),
            })
        else:
            metrics = e2e
    else:
        plain, traced, attempted, failures, problems = run_solve(
            exe, name, w, args.seconds, args.trace, ref)
        failed = len(failures)
        if not plain or (args.trace and not traced):
            print(result_line(False, attempted, failed, {}))
            return 0
        e2e = solve_e2e(plain)
        wall = solve_wall(plain)
        print("error_frac %.4f (%d of %d solver runs failed)" % (failed / attempted, failed, attempted))
        if args.trace:
            metrics = {k: (0.0, u, 0) for k, u in LAYER_UNITS.items()}
            metrics.update(wall)
            metrics.update(solve_layers(plain, traced))
            metrics["error_frac"] = (failed / attempted, "ratio", attempted)
            metrics["slo_miss_frac"] = (failed / attempted, "ratio", attempted)
        else:
            metrics = e2e
    for p in problems:
        log("%s: self-test: %s" % (name, p))
    print("end-to-end (untraced, CPU time):")
    report(e2e)
    print("wall clock (untraced, unbounded):")
    report(wall)
    if args.trace:
        print("per-layer (traced):")
        report(metrics)
    print(result_line(failed == 0 and not problems, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
