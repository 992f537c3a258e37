#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the Witcher pipeline.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

Builds perfbench/witcher_perf.exe from source with dune, then:

  --trace 0  runs the workload repeatedly for about --seconds seconds, each
             repetition in a freshly exec'd process, and reports the
             end-to-end metrics (medians over repetitions);
  --trace 1  runs it once untraced and once traced, and reports the
             per-layer metrics of the traced run.

Every store run's verdict is checked against its known answer, derived
from Stores.Registry, and the sorted root-cause fingerprint must be
identical across repetitions and between the traced and untraced runs.
The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"attempted" counts store runs and "failed" those that raised, timed out or
missed their known answer, so failed/attempted is the failure ratio. The
exit code is 0 only when the result is correct.

Metric definitions, units and the layer each per-layer metric belongs to
are in perfbench/metrics.json. Scratch output goes to .bench_out/ and the
build to .bench_build/ (or $CARGO_TARGET_DIR when set).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet", "deep-gen", "stream-ycsb")
EXE_TARGET = "perfbench/witcher_perf.exe"
OUT_ROOT = ".bench_out"

# Whole-run budget: every child is killed past this, so the benchmark
# ends within its 180 s limit even if the program hangs.
DEADLINE_S = 170.0
# Repetitions of the same input per --trace 0 run. One fleet repetition
# already takes longer than a run's --seconds; the traced run repeats its
# input (untraced reference, then traced composition) instead.
MIN_REPS = {"fleet": 1, "deep-gen": 2, "stream-ycsb": 2}
SETUP_PROBES = 5
# Layer self times plus unaccounted time must match the traced
# wall-clock within this share.
COVERAGE_BOUND = 0.05

# Traced-run span name -> layer whose self time it is.
SPAN_LAYER = {
    "driver.record": "driver",
    "infer.infer": "infer",
    "perf.detect": "perf",
    "crash_gen.generate": "crash_gen",
    "equiv.create": "equiv",
    "equiv.check": "equiv",
    "equiv.flush_batch": "equiv",
    "cluster.add": "cluster",
    "cluster.root_causes": "cluster",
}


def load_metrics():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


# ---------- statistics ----------

def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def percentile(values, p):
    """Linearly interpolated p-th percentile (0 <= p <= 100); 0.0 if empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = math.ceil(k)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def ratio(num, den):
    return num / den if den else 0.0


# ---------- build and child processes ----------

def build():
    """Build the measured executable; return its path, or None on failure."""
    if shutil.which("dune") is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return None
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "./" + EXE_TARGET]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    exe = os.path.join(ROOT, build_dir, "default", EXE_TARGET)
    if r.returncode != 0 or not os.path.exists(exe):
        print("perfbench: build failed", file=sys.stderr)
        return None
    return exe


class ChildError(Exception):
    pass


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid, limit_s=5.0):
    # Campaign workers are the child's children: if it died before
    # reaping them they belong to init, so wait for the process group to
    # vanish (bounded: an init that never reaps leaves zombies behind).
    end = time.time() + limit_s
    while time.time() < end:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def spawn(argv, deadline, out_path):
    """Exec argv in its own process group and wait for it.

    Returns (t_exec, last stdout line as JSON, ru_maxrss in KB). ru_maxrss
    of a reaped child covers the child and its reaped descendants, so for
    fleet it is the largest of the orchestrator and its workers."""
    timeout = deadline - time.time()
    if timeout <= 0:
        raise ChildError("out of time budget")
    with open(out_path, "w+b") as out:
        t_exec = time.time()
        pid = os.posix_spawn(argv[0], argv, os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2,
                                            out.fileno(), 1)],
                             setpgroup=0)
        timer = threading.Timer(timeout, _kill_group, (pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(pid, 0)
        finally:
            timer.cancel()
            _kill_group(pid)
            _wait_group_gone(pid)
        out.seek(0)
        lines = out.read().decode(errors="replace").splitlines()
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not lines:
        raise ChildError("%s exited with %d" % (" ".join(argv[1:]), code))
    return t_exec, json.loads(lines[-1]), ru.ru_maxrss


# ---------- verdicts ----------

def cell_verdict(c):
    """'ok', 'miss' (no root cause where seeded bugs are expected) or a
    failure reason, for one store run."""
    if c["status"] != "ok":
        return "raised/timed out: " + c["status"]
    found = len(c["root_causes"]) > 0
    if c["expected"] == "clean":
        return "false positive" if found else "ok"
    return "ok" if found else "miss"


def store_verdict(cs):
    """Verdict of one (store, variant) over its store runs, one per seed:
    'ok', 'known-miss' (reported, not failed) or a failure reason. A store
    with seeded bugs must find one on at least one of its seeds."""
    vs = [cell_verdict(c) for c in cs]
    bad = [v for v in vs if v not in ("ok", "miss")]
    if bad:
        return bad[0]
    if "ok" in vs:
        return "ok"
    if cs[0]["expected"] == "bugs-or-miss":
        return "known-miss"
    return "missed known bug"


def fingerprint(cells):
    return sorted(r for c in cells for r in c["root_causes"])


def digest(fp):
    return hashlib.md5("\n".join(fp).encode()).hexdigest()[:12]


def root_cause_count(cells):
    return sum(len(c["root_causes"]) for c in cells if c["variant"] == "buggy")


class Checker:
    """Counts store runs and their failures, and collects what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.known_misses = []
        self.seed_misses = []

    def cells(self, cells, tag):
        stores = {}
        for c in cells:
            stores.setdefault((c["store"], c["variant"]), []).append(c)
        for (store, variant), cs in stores.items():
            self.attempted += len(cs)
            v = store_verdict(cs)
            where = "%s %s/%s seeds=%s" % (
                tag, store, variant, ",".join(str(c["seed"]) for c in cs))
            if v == "known-miss":
                self.known_misses.append(where)
            elif v != "ok":
                self.failed += sum(1 for c in cs if cell_verdict(c) != "ok")
                self.problems.append("%s: %s" % (where, v))
            else:
                self.seed_misses += [
                    "%s %s/%s seed=%d" % (tag, store, variant, c["seed"])
                    for c in cs if cell_verdict(c) == "miss"]

    def same(self, fp, ref, what):
        if fp != ref:
            self.problems.append(
                "root-cause fingerprint changed (%s): %s != %s"
                % (what, digest(fp), digest(ref)))


# ---------- runs ----------

def metric_block(names_units, values):
    return {n: {"value": values[n], "unit": u} for n, u in names_units}


def rep_argv(exe, a, out_dir, *extra):
    return [exe, "rep", a.workload, str(a.seed), out_dir] + list(extra)


def timed_run(exe, a, work, deadline, metrics_def, chk):
    setups = []
    for i in range(SETUP_PROBES):
        t_exec, res, _ = spawn(rep_argv(exe, a, os.path.join(work, "p%d" % i),
                                        "--setup-only"),
                               deadline, os.path.join(work, "probe.out"))
        setups.append(res["t_start"] - t_exec)
    reps = []
    t_begin = time.time()
    while True:
        n = len(reps)
        if n >= MIN_REPS[a.workload]:
            mean_rep = (time.time() - t_begin) / n
            if (time.time() - t_begin + mean_rep > a.seconds
                    or time.time() + mean_rep > deadline):
                break
        t_exec, res, rss_kb = spawn(
            rep_argv(exe, a, os.path.join(work, "r%d" % n)), deadline,
            os.path.join(work, "rep.out"))
        shutil.rmtree(os.path.join(work, "r%d" % n), ignore_errors=True)
        cells = res["cells"]
        chk.cells(cells, "rep %d" % (n + 1))
        wall = res["t_end"] - res["t_start"]
        images = sum(c["images_tested"] for c in cells)
        rep = {"rep": n + 1, "seed": a.seed, "wall_s": wall,
               "setup_s": res["t_start"] - t_exec,
               "images_per_s": images / wall,
               "peak_rss_mb": rss_kb / 1024.0,
               "heap_words": res["heap_words"],
               "root_causes": root_cause_count(cells),
               "images_tested": images,
               "fingerprint": fingerprint(cells)}
        setups.append(rep["setup_s"])
        if reps:
            chk.same(rep["fingerprint"], reps[0]["fingerprint"],
                     "rep %d vs rep 1" % rep["rep"])
        reps.append(rep)
        print("workload=%s seed=%d rep=%d wall_s=%.3f setup_s=%.4f "
              "images_tested=%d images_per_s=%.1f peak_rss_mb=%.1f "
              "mem.peak_heap_words=%d root_causes=%d fingerprint=%s"
              % (a.workload, a.seed, rep["rep"], wall, rep["setup_s"],
                 images, rep["images_per_s"], rep["peak_rss_mb"],
                 rep["heap_words"], rep["root_causes"],
                 digest(rep["fingerprint"])))
    walls = [r["wall_s"] for r in reps]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "images_per_s": statistics.median([r["images_per_s"] for r in reps]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
        "root_causes": reps[0]["root_causes"],
    }
    print("workload=%s seed=%d reps=%d setup_samples=%d "
          "mem.peak_heap_words=%d (median over reps) rep_wall_spread=%s"
          % (a.workload, a.seed, len(reps), len(setups),
             statistics.median([r["heap_words"] for r in reps]),
             "%.3f" % quartile_spread(walls) if len(walls) > 1 else "n/a"))
    e2e = [(m["name"], m["unit"]) for m in metrics_def["end_to_end"]]
    return metric_block(e2e, values)


def layer_values(untraced_wall, tr):
    """Per-layer metrics from one traced run (raw numbers in tr)."""
    self_by_span = tr["self"]
    counts = tr["counts"]
    layer = {}
    for span, t in self_by_span.items():
        if span in SPAN_LAYER:
            layer[SPAN_LAYER[span]] = layer.get(SPAN_LAYER[span], 0.0) + t
    c = lambda k: counts.get(k, 0)
    tested = c("crash_gen.images_tested")
    check_us = [s * 1e6 for s in tr["check_s"]]
    traced_wall = tr.get("matrix_wall", tr["t_end"] - tr["t_start"])
    v = {
        "driver.record_s": layer.get("driver", 0.0),
        "driver.trace_events": c("driver.trace_events"),
        "driver.resumes": c("driver.resumes"),
        "driver.ckpt_resumes": c("driver.ckpt_resumes"),
        "driver.ckpt_bytes": c("driver.ckpt_bytes"),
        "infer.s": layer.get("infer", 0.0),
        "infer.ord_conds": c("infer.ord_conds"),
        "infer.atom_conds": c("infer.atom_conds"),
        "perf.detect_s": layer.get("perf", 0.0),
        "crash_gen.self_s": layer.get("crash_gen", 0.0),
        "crash_gen.images_generated": c("crash_gen.images_generated"),
        "crash_gen.images_tested": tested,
        "crash_gen.tested_ratio": ratio(tested,
                                        c("crash_gen.images_generated")),
        "crash_sim.bytes_materialized": c("crash_sim.bytes_materialized"),
        "equiv.s": layer.get("equiv", 0.0),
        "equiv.check_p50_us": percentile(check_us, 50),
        "equiv.check_p99_us": percentile(check_us, 99),
        "equiv.replay_ops": c("equiv.replay_ops"),
        "equiv.replay_ops_per_image": ratio(c("equiv.replay_ops"), tested),
        "equiv.oracle_runs": c("equiv.oracle_runs"),
        "equiv.inherit_ratio": ratio(c("equiv.inherit_hits"),
                                     c("equiv.batch_images")),
        "equiv.mismatch_ratio": ratio(c("equiv.mismatches"), tested),
        "cluster.s": layer.get("cluster", 0.0),
        "cluster.clusters": c("cluster.clusters"),
        "stream.window_retirements": c("stream.window_retirements"),
        "stream.ckpt_ring_evictions": c("stream.ckpt_ring_evictions"),
        "mem.peak_heap_words": tr["heap_words"],
        "campaign.job_wall_p50_s": percentile(tr.get("job_walls", []), 50),
        "campaign.job_wall_p90_s": percentile(tr.get("job_walls", []), 90),
        "campaign.overhead_s": (
            tr["matrix_wall"] - sum(tr["job_walls"]) / tr["workers"]
            if "matrix_wall" in tr else 0.0),
        "unaccounted_s": tr["wall"] - sum(layer.values()),
        "trace_overhead_s": traced_wall - untraced_wall,
    }
    return v, layer


def traced_run(exe, a, work, deadline, metrics_def, chk):
    t_exec, ref, _ = spawn(rep_argv(exe, a, os.path.join(work, "u")),
                           deadline, os.path.join(work, "rep.out"))
    chk.cells(ref["cells"], "untraced")
    untraced_wall = ref["t_end"] - ref["t_start"]
    trace_dir = os.path.join(OUT_ROOT, "traces",
                             "%s-seed%d" % (a.workload, a.seed))
    _, tr, _ = spawn([exe, "traced", a.workload, str(a.seed), trace_dir],
                     deadline, os.path.join(work, "traced.out"))
    chk.cells(tr["cells"], "traced")
    chk.same(fingerprint(tr["cells"]), fingerprint(ref["cells"]),
             "traced composition vs untraced entry point")
    values, layer = layer_values(untraced_wall, tr)
    composed = tr["wall"]
    share = ratio(abs(values["unaccounted_s"]), composed)
    if share > COVERAGE_BOUND:
        chk.problems.append(
            "layer self times cover only %.1f%% of the traced wall-clock "
            "(bound %.0f%%)" % (100 * (1 - share), 100 * COVERAGE_BOUND))
    print("workload=%s seed=%d untraced_wall_s=%.3f composed_wall_s=%.3f "
          "unaccounted_s=%.4f (%.2f%%) trace_overhead_s=%.3f fingerprint=%s"
          % (a.workload, a.seed, untraced_wall, composed,
             values["unaccounted_s"], 100 * share, values["trace_overhead_s"],
             digest(fingerprint(tr["cells"]))))
    for name in sorted(layer):
        print("workload=%s seed=%d layer=%s self_s=%.4f share=%.1f%%"
              % (a.workload, a.seed, name, layer[name],
                 100 * ratio(layer[name], composed)))
    print("workload=%s seed=%d spans written to %s"
          % (a.workload, a.seed, os.path.join(trace_dir, "trace.json")))
    per_layer = [(m["name"], m["unit"]) for m in metrics_def["per_layer"]]
    return metric_block(per_layer, values)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if a.seed < 0:
        p.error("--seed must be non-negative")
    deadline = time.time() + DEADLINE_S
    os.chdir(ROOT)
    exe = build()
    if exe is None:
        return 2
    metrics_def = load_metrics()
    work = os.path.join(OUT_ROOT, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    chk = Checker()
    try:
        if a.trace:
            metrics = traced_run(exe, a, work, deadline, metrics_def, chk)
        else:
            metrics = timed_run(exe, a, work, deadline, metrics_def, chk)
    except ChildError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print("workload=%s seed=%d %s = %s %s"
              % (a.workload, a.seed, name, m["value"], m["unit"]))
    print("workload=%s seed=%d failed_ratio = %s ratio (%d of %d store runs)"
          % (a.workload, a.seed, ratio(chk.failed, chk.attempted), chk.failed,
             chk.attempted))
    for w in chk.known_misses:
        print("workload=%s seed=%d known miss (not failed): %s"
              % (a.workload, a.seed, w))
    for w in chk.seed_misses:
        print("workload=%s seed=%d seed miss, found on the store's other "
              "seeds (not failed): %s" % (a.workload, a.seed, w))
    for w in chk.problems:
        print("workload=%s seed=%d FAILED CHECK: %s" % (a.workload, a.seed, w))
    correct = not chk.problems
    print(json.dumps({"correct": correct, "attempted": chk.attempted,
                      "failed": chk.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
