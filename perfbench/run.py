#!/usr/bin/env python3
"""Benchmark of the wavetriads package: seeded query workloads, end-to-end
timings, and per-layer spans traced from outside the package.

Usage, from the repository root:

    python3 perfbench/run.py --workload near-scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One client in one process sends the workload's queries one after another,
each after the previous one returned (a closed loop, no worker threads).
A pass is one run through the seeded query list (workloads.py).  A run
makes one untimed first pass, whose outputs are kept and checked in full
(validate.py), then ``--seconds`` / 1.6 timed passes (made odd: nine at
15 s), each checked by digest against the first.  The fixed anchor
queries with published answers run once, after the passes.

``--trace 0`` reports the end-to-end metrics:

  setup_s       median over fresh interpreters of importing wavetriads and
                building the CLI parser, which every CLI call pays
  wall_s        time of one pass: the sum over queries of each query's
                median over passes
  query_p50_s   median time of one query, pooled over passes
  query_tail_s  highest percentile with at least 10 queries beyond it
  peak_rss_mb   peak resident memory of this process over the passes

Every time among them is in seconds at the nominal host speed: each
sample is scaled by the speed of the host measured around it with a fixed
reference computation (reference.py), because a shared host's speed
swings by up to a factor of two over minutes.  The unscaled figures are
printed as well, on the lines before the result.

``--trace 1`` alternates untraced and traced passes and reports per-layer
self times, counts and the tracing overhead (tracing.py); its passes also
run the small coverage queries, so that every layer is reached.  The
traced spans are written to perfbench/out/ at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment, the query-list digest, the output digest and the
error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = workloads.WORKLOADS

# Timed passes per run are fixed by --seconds, not by the clock, so that
# every run pools the same number of samples: a pass takes about
# NOMINAL_PASS_S on the reference machine (2 vCPUs, Xeon, Python 3.11).
# On a host so slow that the passes take TIME_CAP times --seconds, the run
# stops adding passes after MIN_PASSES, so that it still ends in time.
NOMINAL_PASS_S = 1.6
MIN_PASSES = 5
TIME_CAP = 2.0
SETUP_LAUNCHES = 9
TAIL_BEYOND = 10
SETUP_CODE = ("import time; t = time.perf_counter(); import wavetriads.cli; "
              "wavetriads.cli.build_parser(); print(time.perf_counter() - t)")

END_TO_END = {"wall_s": "s", "query_p50_s": "s", "query_tail_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
SELF_TIMES = ["search.near", "search.maxd", "search.exact", "search.bound",
              "search.ari", "classify.seeds", "classify.bridges",
              "classify.partition", "classify.cascade", "experiment.plan",
              "cli"]
INCLUSIVE_TIMES = ["report.json", "report.csv", "report.table",
                   "report.records", "dispersion.eval_frequency",
                   "dispersion.omega_grid"]
COUNTS = ["search.candidates", "search.triads_out",
          "classify.seeds.count", "classify.bridges.count",
          "classify.bridge_searches", "classify.active", "classify.passive",
          "classify.neutral", "dispersion.eval_frequency.calls",
          "dispersion.omega_grid.calls"]
PER_LAYER = {
    **{f"{n}.self_s": "s" for n in SELF_TIMES},
    **{f"{n}.s": "s" for n in INCLUSIVE_TIMES},
    **{n: "count" for n in COUNTS},
    "search.candidates_per_s": "1/s", "search.hit_ratio": "ratio",
    "search.speedup_2w": "x", "dispersion.eval_frequency.per_triad": "calls/triad",
    "report.bytes_out": "bytes", "bench.self_s": "s", "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import wavetriads from this checkout's src/ and nowhere else."""
    init = os.path.join(SRC, "wavetriads", "__init__.py")
    if not os.path.isfile(init):
        fail(f"no program source at {os.path.relpath(init, ROOT)}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import wavetriads
    if os.path.realpath(wavetriads.__file__) != os.path.realpath(init):
        fail(f"imported wavetriads from {wavetriads.__file__}, not {init}")


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    return {"git_revision": git_revision(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu_model(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def measure_setup() -> tuple:
    """(raw, scaled): in-process import + parser times of fresh
    interpreters, as measured and at the nominal host speed.  The first
    launch only fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=SRC)
    raw, scaled = [], []
    for i in range(SETUP_LAUNCHES + 1):
        before = reference.times()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        if i:
            raw.append(float(out.stdout))
            scaled.append(raw[-1] * reference.scale(before + reference.times()))
    return raw, scaled


# -- passes --------------------------------------------------------------------

class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.times: list[float] = []
        self.digests: list = []
        self.errors: list = []
        self.results: list = []
        self.bytes_out = 0
        self.layers: dict = {}
        self.scale = 1.0

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def scaled(self) -> list:
        """The query times in seconds at the nominal host speed."""
        return [t * self.scale for t in self.times]


def run_pass(plan, workdir, number, tracer=None, keep=False,
             gauge=False) -> Pass:
    """One pass over the plan.  With ``gauge``, the reference computation
    also runs before each query and after the last, untimed, and the
    median of its times sets the pass's ``scale``."""
    import execute
    p = Pass(tracer is not None)
    gauged = []
    for i, (q, call) in enumerate(plan):
        if gauge:
            gauged += reference.times(1)
        path = os.path.join(workdir, f"p{number}-q{i:02d}.{q.get('format', 'out')}")
        result, err = None, None
        if tracer is not None:
            tracer.query = f"{number}:{q['id']}"
            root = tracer.push("bench.query")
            try:
                result = call(path)
            except Exception:       # a failing query is counted, the run goes on
                err = traceback.format_exc(limit=3)
            finally:
                dur = tracer.pop(root)
        else:
            t0 = perf_counter()
            try:
                result = call(path)
            except Exception:       # a failing query is counted, the run goes on
                err = traceback.format_exc(limit=3)
            dur = perf_counter() - t0
        p.times.append(dur)
        p.errors.append(err)
        p.digests.append(execute.digest(q, result) if err is None else None)
        if q["via"] == "cli" and err is None:
            p.bytes_out += os.path.getsize(path)
            if not keep:
                os.remove(path)
        p.results.append(result if keep else None)
    if gauge:
        p.scale = reference.scale(gauged + reference.times(1))
    return p


def tail_rank(n: int) -> int:
    """Index, in n sorted samples, of the highest percentile with at least
    TAIL_BEYOND samples above it."""
    return max(0, n - TAIL_BEYOND - 1)


def layer_snapshot(tracer, p: Pass) -> dict:
    """Per-layer figures of one traced pass."""
    snap = {}
    for name in SELF_TIMES:
        snap[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    for name in INCLUSIVE_TIMES:
        snap[f"{name}.s"] = tracer.total_s.get(name, 0.0)
    for name in COUNTS:
        snap[name] = tracer.counts.get(name, 0)
    for name in ("dispersion.eval_frequency", "dispersion.omega_grid"):
        snap[f"{name}.calls"] = tracer.calls.get(name, 0)
    snap["bench.self_s"] = (tracer.self_s.get("bench.query", 0.0)
                            + tracer.self_s.get("bench.bookkeeping", 0.0))
    snap["report.bytes_out"] = p.bytes_out
    searched = sum(tracer.total_s.get(n, 0.0) for n in
                   ("search.near", "search.maxd", "search.exact", "search.ari"))
    cand, out = snap["search.candidates"], snap["search.triads_out"]
    snap["search.candidates_per_s"] = cand / searched if searched else 0.0
    snap["search.hit_ratio"] = out / cand if cand else 0.0
    snap["dispersion.eval_frequency.per_triad"] = (
        snap["dispersion.eval_frequency.calls"] / out if out else 0.0)
    # Every frame's self time, for the additivity check.
    snap["_self_sum"] = sum(tracer.self_s.values())
    snap["_self_all"] = dict(tracer.self_s)
    return snap


def speedup_probe(plan) -> tuple:
    """Time of the flagged queries as library calls with workers=1 over
    workers=2.  Functions whose signature lost ``workers`` are skipped."""
    import inspect

    import execute
    import wavetriads as W
    fns = {"near": W.find_near_triads, "maxd": W.find_max_discrepancy_triads,
           "bound": W.discrepancy_lower_bound, "plan": W.plan_experiment}
    t = {1: 0.0, 2: 0.0}
    probed = 0
    for i, (q, _) in enumerate(plan):
        fn = fns.get(q["op"])
        if not q.get("probe") or fn is None \
                or "workers" not in inspect.signature(fn).parameters:
            continue
        spec, dom = execute.spec_of(q["disp"]), execute.domain_of(q)
        if q["op"] == "near":
            args, kw = (spec, dom, q["d_max"]), {"patterns": q["patterns"],
                                                 "closure": q["closure"]}
        elif q["op"] == "maxd":
            args, kw = (spec, dom, q["d_min"]), {"patterns": q["patterns"],
                                                 "closure": q["closure"]}
        elif q["op"] == "plan":
            args, kw = (spec, dom, q["d_max"], q["d_min"], q["epsilon"]), {}
        else:
            args, kw = (spec, dom), {}
        for w in ((1, 2) if i % 2 == 0 else (2, 1)):
            t0 = perf_counter()
            fn(*args, workers=w, **kw)
            t[w] += perf_counter() - t0
        probed += 1
    if not probed:
        return 1.0, 0
    return t[1] / t[2], probed


# -- one workload ------------------------------------------------------------------

def measure(plan, workdir, seconds: float, traced: bool) -> tuple:
    """(first, passes, tracer): the untimed first pass, whose outputs are
    kept, then the timed passes; with tracing, untraced and traced passes
    alternate and each kind gets half of the passes."""
    from tracing import Tracer
    tracer = Tracer() if traced else None
    first = run_pass(plan, workdir, 0, keep=True)
    rounds = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S / (2 if traced else 1)) | 1)
    deadline = perf_counter() + TIME_CAP * seconds
    passes: list[Pass] = []
    for r in range(rounds):
        if r >= MIN_PASSES and perf_counter() > deadline:
            break
        passes.append(run_pass(plan, workdir, len(passes) + 1, gauge=True))
        if tracer is not None:
            tracer.reset_totals()
            tracer.install()
            try:
                tp = run_pass(plan, workdir, len(passes) + 1, tracer=tracer)
            finally:
                tracer.uninstall()
            tp.layers = layer_snapshot(tracer, tp)
            passes.append(tp)
    return first, passes, tracer


def check_passes(qs, passes, seed) -> tuple:
    """(attempted, failed, problems): the first pass checked in full, every
    later pass by digest against the first."""
    import validate
    attempted = failed = 0
    problems = []
    first = passes[0]
    for i, q in enumerate(qs):
        errs = [first.errors[i]] if first.errors[i] else \
            validate.check(q, first.results[i], seed)
        attempted += 1
        if errs:
            failed += 1
            problems += [f"{q['id']}: {e}" for e in errs]
        for p in passes[1:]:
            attempted += 1
            if p.errors[i] or p.digests[i] != first.digests[i]:
                failed += 1
                problems.append(f"{q['id']}: pass output differs from the first"
                                + (f"\n{p.errors[i]}" if p.errors[i] else ""))
    return attempted, failed, problems


def pass_time(per_pass: list) -> float:
    """A pass's time as the sum of each query's median over the passes: a
    burst of host noise then slows one sample, not the figure.
    ``per_pass`` holds one list of query times for each pass."""
    return sum(statistics.median(col) for col in zip(*per_pass))


def timings(per_pass: list, setup: list) -> dict:
    samples = [t for times in per_pass for t in times]
    return {"wall_s": pass_time(per_pass),
            "query_p50_s": statistics.median(samples),
            "query_tail_s": sorted(samples)[tail_rank(len(samples))],
            "setup_s": statistics.median(setup)}


def end_to_end(passes, setup, peak_rss_mb) -> tuple:
    raw_setup, scaled_setup = setup
    values = {**timings([p.scaled for p in passes], scaled_setup),
              "peak_rss_mb": peak_rss_mb}
    raw = timings([p.times for p in passes], raw_setup)
    n = len(passes) * len(passes[0].times)
    tail_pct = 100.0 * (tail_rank(n) + 1) / n
    notes = {"wall_s": f"sum of per-query medians over {len(passes)} passes",
             "query_p50_s": f"{n} queries",
             "query_tail_s": f"p{tail_pct:.1f} of {n} queries",
             "setup_s": f"{len(scaled_setup)} launches: "
                        + " ".join(f"{t:.4f}" for t in scaled_setup)}
    for k, v in raw.items():
        notes[k] += f"; unscaled {v:.6g} s"
    scales = sorted(p.scale for p in passes)
    print(f"host speed: reference {reference.NOMINAL_S / statistics.median(scales):.6f} s "
          f"(nominal {reference.NOMINAL_S} s), pass scale factors "
          f"{scales[0]:.3f} to {scales[-1]:.3f}")
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}, notes


def traced_metrics(args, qs, passes, speedup, tracer) -> dict:
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    med = statistics.median
    values = {name: med(p.layers[name] for p in traced)
              for name in traced[0].layers if not name.startswith("_")}
    values["trace.wall_s"] = pass_time([p.times for p in traced])
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - pass_time([p.times for p in untraced]))
    values["search.speedup_2w"] = speedup[0]
    worst = max(abs(p.layers["_self_sum"] - p.wall) / p.wall for p in traced)
    print(f"trace: the self times of all frames add up to the traced pass "
          f"wall within {worst:.1e} (relative); the benchmark's own share is "
          f"bench.self_s = {values['bench.self_s']:.6f} s per pass")
    print("trace: self time per pass by frame, median over traced passes")
    for n in sorted({n for p in traced for n in p.layers["_self_all"]}):
        v = med(p.layers["_self_all"].get(n, 0.0) for p in traced)
        print(f"    {n:<28} {v:.6f} s")
    print(f"trace: search.speedup_2w over {speedup[1]} probe queries")
    if tracer.missing:
        print("trace: layer functions not found: " + ", ".join(tracer.missing))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        for rec in tracer.spans_as_records():
            fh.write(json.dumps(rec) + "\n")
    print(f"trace: {len(tracer.spans)} spans written to "
          f"{os.path.relpath(path, ROOT)}")
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}


def run_workload(args) -> int:
    import_program()
    import execute

    qs = workloads.queries(args.workload, args.seed)
    if args.trace:
        qs += workloads.coverage_queries()
    anchors = workloads.anchor_queries(args.workload)
    print("env " + json.dumps(environment(args), sort_keys=True))
    qdigest = hashlib.sha256(json.dumps(qs, sort_keys=True).encode()).hexdigest()
    print(f"queries {len(qs)} per pass, digest {qdigest}")
    for q in qs:
        print("  query " + json.dumps(q, sort_keys=True))

    phases = {}
    t0 = perf_counter()
    setup = None if args.trace else measure_setup()
    phases["setup launches"] = perf_counter() - t0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        t0 = perf_counter()
        plan = [(q, execute.prepare(q)) for q in qs]
        phases["prepare"] = perf_counter() - t0
        t0 = perf_counter()
        first, passes, tracer = measure(plan, workdir, args.seconds,
                                        bool(args.trace))
        phases["passes"] = measured = perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t0 = perf_counter()
        speedup = speedup_probe(plan) if tracer is not None else None
        phases["speedup probe"] = perf_counter() - t0
        t0 = perf_counter()
        attempted, failed, problems = check_passes(qs, [first] + passes, args.seed)
        phases["checks"] = perf_counter() - t0
        # Anchors run once, after the measured passes.
        t0 = perf_counter()
        anchor_pass = run_pass([(q, execute.prepare(q)) for q in anchors],
                               workdir, "anchor", keep=True)
        phases["anchors"] = anchor_s = perf_counter() - t0
        a_attempted, a_failed, a_problems = check_passes(anchors, [anchor_pass],
                                                         args.seed)

    attempted, failed = attempted + a_attempted, failed + a_failed
    for line in (problems + a_problems)[:40]:
        print("FAIL " + line)
    untraced = [p for p in passes if not p.traced]
    for i, q in enumerate(qs):
        t = statistics.median(p.times[i] for p in untraced)
        print(f"  {q['id']} median {t:.4f} s unscaled ({q['op']} T={q['T']})")
    print(f"passes {len(untraced)} untraced"
          + (f", {len(passes) - len(untraced)} traced" if tracer else "")
          + f" in {measured:.2f} s (first pass {first.wall:.2f} s); pass walls "
          + " ".join(f"{p.wall:.4f}" for p in untraced))
    print(f"anchors {len(anchors) - a_failed}/{len(anchors)} pass ({anchor_s:.2f} s)")
    print("phases " + ", ".join(f"{k} {v:.2f} s" for k, v in phases.items()))
    out_digest = hashlib.sha256(
        "".join(d or "-" for d in first.digests).encode()).hexdigest()
    print(f"output digest {out_digest}")
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed}/{attempted} failed)")

    if tracer is None:
        metrics, notes = end_to_end(untraced, setup, peak_rss_mb)
    else:
        metrics, notes = traced_metrics(args, qs, passes, speedup, tracer), {}
    for k, m in metrics.items():
        extra = f"  ({notes[k]})" if k in notes else ""
        print(f"{k} = {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# -- all workloads -----------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    summary = {}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("  query "):
                print(f"[{w}] {line}")
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            fail(f"workload {w} exited with {proc.returncode}")
        summary[w] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
