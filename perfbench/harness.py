"""Closed-loop harness: one caller, one op at a time, every verdict checked.

``measure`` runs one workload in this process. Set-up (a fresh
interpreter importing cqapprox, input generation, file writes and a
warm-up pass) is repeated ``SETUP_REPEATS`` times and reported as its
median. The timed phase then runs whole passes of the op schedule until
``seconds`` have elapsed and at least ``MIN_PASSES`` passes are done.

Every op of the schedule thus runs once per pass. Its latency sample is
its best time over the passes: other tenants of a shared machine slow
single calls by up to half, and the best of several calls filters that
out. Throughput is ops per second of the summed samples. Results are
checked after the timed phase, so checking costs no op time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import tracer as tracing
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench")
SETUP_REPEATS = 3
# the best of this many calls per op: a call that lands entirely in a quiet
# moment of the machine is likelier the more calls there are
MIN_PASSES = 5
# every schedule has at least this many ops, so p90 has ten samples beyond it
MIN_OPS_PER_PASS = 100
# stop starting passes after this long even below MIN_PASSES, to end in time
MAX_LOOP_S = 120.0

END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "decided_share": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_rev": git_rev(),
    }


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _fresh_import_s() -> float:
    """Wall time of a new interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cqapprox, cqapprox.cli"],
                   env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def setup(name: str, seed: int, workroot: Path):
    """SETUP_REPEATS identical set-ups; returns the last schedule, the
    set-up times and whether every repeat produced the same inputs."""
    build = WORKLOADS[name][0]
    times, digests = [], []
    sched = None
    for rep in range(SETUP_REPEATS):
        workdir = workroot / f"setup{rep}"
        t0 = time.perf_counter()
        _fresh_import_s()
        workdir.mkdir(parents=True)
        sched = build(seed, workdir)
        for op in sched.warmup_ops():
            try:
                op.call()
            except Exception:  # the timed phase reports it
                pass
        times.append(time.perf_counter() - t0)
        digests.append(sched.digest)
    return sched, times, len(set(digests)) == 1


def timed_loop(ops, seconds: float, tracer=None):
    """Whole passes until `seconds` and MIN_PASSES are both reached.
    Returns (records, latency of each op in each pass)."""
    records, lat = [], []
    op_id = 0
    clock = time.perf_counter
    start = clock()
    while True:
        times = []
        for i, op in enumerate(ops):
            if tracer is not None:
                t0, t1, result, error = tracer.call_op(op_id, op.call)
            else:
                t0 = clock()
                try:
                    result, error = op.call(), None
                except Exception as exc:  # counted as a failed op
                    result, error = None, exc
                t1 = clock()
            times.append(t1 - t0)
            records.append((i, result, error))
            op_id += 1
        lat.append(times)
        elapsed = clock() - start
        if elapsed >= seconds and len(lat) >= MIN_PASSES or elapsed >= MAX_LOOP_S:
            return records, lat


def check(ops, records):
    """(failed, decided, indexes of the ops that failed) over every record."""
    failed = decided = 0
    bad: set[int] = set()
    for i, result, error in records:
        ok = dec = False
        if error is None:
            try:
                ok, dec = ops[i].check(result)
            except Exception:  # a malformed result fails its op
                ok = dec = False
        if not ok:
            failed += 1
            bad.add(i)
        decided += bool(dec)
    return failed, decided, bad


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workroot = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    try:
        sched, setup_times, deterministic = setup(name, seed, workroot)
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            records, lat = timed_loop(sched.ops, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, decided, bad = check(sched.ops, records)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    n = len(records)
    best = [min(ts) for ts in zip(*lat)]
    ops_per_s = len(best) / math.fsum(best)
    e2e = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": statistics.median(best) * 1000,
        "op_p90_ms": statistics.quantiles(best, n=10)[8] * 1000,
        "decided_share": decided / n,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "workload": name,
        "why": WORKLOADS[name][1],
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "inputs_sha256": sched.digest,
        "inputs_deterministic": deterministic,
        "sizes": sched.sizes,
        "ops_per_pass": len(sched.ops),
        "passes": len(lat),
        "pass_s": [math.fsum(ts) for ts in lat],
        "samples": len(best),
        "calls": n,
        "fail_share": failed / n,
        "failed_ops": sorted(f"{sched.ops[i].kind} {sched.ops[i].label}" for i in bad),
        "setup_runs_s": setup_times,
        "end_to_end": {k: (v, END_TO_END[k][0]) for k, v in e2e.items()},
        "per_kind": _per_kind(sched.ops, best),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()}
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, len(lat), ops_per_s)
        report["per_layer"] = {k: (v, unit) for k, (v, unit, _) in layers.items()}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit, _) in layers.items()}
    report["result"] = {
        "correct": failed == 0 and deterministic,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
    }
    return report


def _per_kind(ops, best) -> dict:
    by_kind: dict[str, list[float]] = {}
    for op, t in zip(ops, best):
        by_kind.setdefault(op.kind, []).append(t)
    return {
        kind: {"ops": len(ts), "p50_ms": statistics.median(ts) * 1000,
               "max_ms": max(ts) * 1000}
        for kind, ts in sorted(by_kind.items())
    }


# --- command line -------------------------------------------------------------


def print_report(report: dict):
    m = report["machine"]
    print(f"workload: {report['workload']} (seed {report['seed']}, "
          f"{'traced' if report['trace'] else 'untraced'}, closed loop, 1 caller)")
    print(f"  why: {report['why']}")
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"git={m['git_rev']}")
    print(f"  inputs: sha256={report['inputs_sha256'][:16]} "
          f"deterministic={report['inputs_deterministic']} sizes={json.dumps(report['sizes'])}")
    print(f"  ops: {report['samples']} per pass, {report['passes']} passes "
          f"({' '.join(f'{t:.2f}' for t in report['pass_s'])} s of op time); latency "
          f"samples are each op's best pass; fail_share={report['fail_share']:.4f} "
          f"({report['result']['failed']} of {report['calls']} calls)")
    for op in report["failed_ops"]:
        print(f"  FAILED: {op}")
    for kind, st in report["per_kind"].items():
        print(f"  kind {kind}: {st['ops']} ops, p50 {st['p50_ms']:.3f} ms, "
              f"max {st['max_ms']:.3f} ms")
    for name, (value, unit) in report["end_to_end"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit) in report.get("per_layer", {}).items():
        print(f"  {name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter
    (one at a time); prints every metric with its unit and the tracing
    overhead."""
    script = ROOT / "perfbench" / "run.py"
    results: dict = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(script), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stdout.write(proc.stderr)
                status = 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results[(name, trace)] = res
            status = status or (0 if res["correct"] else 1)
    print("summary (end-to-end from untraced runs, per-layer from traced runs):")
    for name in WORKLOADS:
        plain, traced = results.get((name, 0)), results.get((name, 1))
        if plain is None or traced is None:
            print(f"  {name}: run failed")
            continue
        print(f"  {name}: correct={plain['correct'] and traced['correct']} "
              f"fail_share={plain['failed'] / plain['attempted']:.4f} "
              f"calls={plain['attempted']}")
        for metric, v in plain["metrics"].items():
            print(f"    {metric} = {v['value']:.6g} {v['unit']}")
        fast = plain["metrics"]["ops_per_s"]["value"]
        slow = traced["metrics"]["trace.ops_per_s"]["value"]
        print(f"    tracing overhead = {fast - slow:.6g} 1/s "
              f"({(fast - slow) / fast:.1%} of untraced ops_per_s)")
        lm = traced["metrics"]
        share = lm["trace.core_game_self_share"]["value"]
        print(f"    baseline check: hom.core + pebble.wins_cover_game self time = "
              f"{share:.1%} of op time ({'holds' if share > 0.5 else 'does not hold'} "
              f"most of it); inclusive hom.core {lm['hom.core.incl_share']['value']:.1%}, "
              f"inclusive wins_cover_game "
              f"{lm['pebble.wins_cover_game.incl_share']['value']:.1%}")
        for metric, v in lm.items():
            print(f"    {metric} = {v['value']:.6g} {v['unit']}")
    return status
