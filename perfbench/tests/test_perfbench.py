"""Tests of the benchmark itself: verdict checks, tracing, determinism and
a short run of every workload.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import harness, inputs, oracle
from perfbench import tracer as tracing
from perfbench.workloads import WORKLOADS, build_cli_mix, build_doubling, build_eval_db


def first(sched, kind, label=None):
    return next(i for i, op in enumerate(sched.ops)
                if op.kind == kind and (label is None or op.label == label))


def test_flipped_library_verdicts_fail(tmp_path):
    sched = build_doubling(1, tmp_path)
    i = first(sched, "identify_overapprox/true", "n=3")
    j = first(sched, "identify_overapprox/false", "n=3")
    good = [(i, sched.ops[i].call(), None), (j, sched.ops[j].call(), None)]
    assert harness.check(sched.ops, good)[0] == 0
    flipped = [(i, not good[0][1], None), (j, not good[1][1], None)]
    failed, decided, bad = harness.check(sched.ops, flipped)
    assert failed == 2 and set(bad) == {i, j}


def test_wrong_core_and_exceptions_fail(tmp_path):
    sched = build_doubling(1, tmp_path)
    i = first(sched, "core", "n=3")
    got = sched.ops[i].call()
    smaller = got.without_atom(got.atoms[0])
    records = [(i, got, None), (i, smaller, None), (i, None, RuntimeError("boom"))]
    failed, decided, _ = harness.check(sched.ops, records)
    assert failed == 2 and decided == 2


def test_flipped_eval_db_verdicts_fail(tmp_path):
    sched = build_eval_db(1, tmp_path)
    ops = sched.ops[:40]  # the 1e2-fact database
    records = [(i, op.call(), None) for i, op in enumerate(ops)]
    assert harness.check(ops, records)[0] == 0
    flips = 0
    for i, got, _ in records:
        kind = ops[i].kind
        if kind == "find_hom":
            wrong = None if got is not None else object()
        elif kind == "evaluate":
            wrong = set(got) | {("nope",)}
        else:
            continue
        flips += 1
        assert harness.check(ops, [(i, wrong, None)])[0] == 1, ops[i].label
    assert flips > 0


def test_eval_overapprox_checks_follow_the_known_answers(tmp_path):
    sched = build_eval_db(1, tmp_path)
    ops = sched.ops
    k1 = [i for i, op in enumerate(ops) if op.kind == "eval_overapprox/k1"]
    results = {i: ops[i].call() for i in k1}
    caught = 0
    for i in k1:
        failed = harness.check(ops, [(i, not results[i], None)])[0]
        # a flip is always caught when the exact answer is true, or on an
        # acyclic query where width 1 is exact
        caught += failed
        harness.check(ops, [(i, results[i], None)])  # restore the memo
    assert caught >= len(k1) // 2


def test_flipped_cli_exit_codes_fail(tmp_path):
    sched = build_cli_mix(1, tmp_path)
    records = []
    for i, op in enumerate(sched.ops):
        if op.kind in ("greedy1", "identify-over", "width", "chase", "exists-over"):
            records.append((i, op.call(), None))
    assert harness.check(sched.ops, records)[0] == 0
    flipped = [(i, ({0: 1, 1: 0, 2: 0}[code], out), None) for i, (code, out), _ in records]
    assert harness.check(sched.ops, flipped)[0] == len(records)


def test_tracer_wraps_and_restores_every_binding():
    before = tracing.bindings()
    traced = {id(getattr(sys.modules[f"cqapprox.{m}"], f))
              for m, fs in tracing.TARGETS.items() for f in fs}
    t = tracing.Tracer()
    t.install()
    try:
        during = tracing.bindings()
        assert not any(id(v) in traced for v in during.values())
        wrapped = [k for k, v in before.items() if id(v) in traced]
        assert len(wrapped) > len(traced)  # re-exports and from-imports too
        assert all(during[k].__wrapped__ is before[k] for k in wrapped)
    finally:
        t.uninstall()
    after = tracing.bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_add_up_to_the_op_span(tmp_path):
    sched = build_doubling(1, tmp_path)
    exists = sched.ops[first(sched, "exists_overapprox", "n=2")]
    t = tracing.Tracer()
    t.install()
    try:
        t0, t1, result, error = t.call_op(7, exists.call)
    finally:
        t.uninstall()
    assert error is None and exists.check(result) == (True, True)
    spans = [s for s in t.spans if s[tracing.OP] == 7]
    names = {s[tracing.NAME] for s in spans}
    assert {"op", "approx.exists_overapprox", "pebble.unroll", "hom.core",
            "hom.find_hom"} <= names
    selfs = t.self_times()
    total = sum(selfs[i] for i, s in enumerate(t.spans) if s[tracing.OP] == 7)
    assert total == pytest.approx(t1 - t0, rel=1e-9, abs=1e-12)
    assert all(x >= -1e-9 for x in selfs)
    m = tracing.layer_metrics(t, 1, 1.0)
    assert m["approx.exists_overapprox.depth"][0] >= 1
    assert 0 < m["hom.core.retract_ratio"][0] <= 1


@pytest.mark.parametrize("build", [build_doubling, build_eval_db, build_cli_mix])
def test_same_seed_same_inputs(build, tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for d in (a, b, c):
        d.mkdir()
    one, two, other = build(5, a), build(5, b), build(6, c)
    assert one.digest == two.digest != other.digest
    assert [op.label for op in one.ops] == [op.label for op in two.ops]
    for f in a.iterdir():
        assert (b / f.name).read_bytes() == f.read_bytes()


def test_oracle_join_and_gyo():
    facts = (("E", ("a", "b")), ("E", ("b", "c")), ("E", ("c", "a")), ("P", ("b",)))
    idx = oracle.Index(facts)
    tri = ((), (("E", ("x", "y")), ("E", ("y", "z")), ("E", ("z", "x"))))
    assert oracle.holds(tri, idx, ())
    assert oracle.answers((("x",), (("E", ("x", "y")), ("P", ("y",)))), idx) == {("a",)}
    assert not oracle.query_acyclic(tri)
    assert oracle.query_acyclic(inputs.path_query(4))


@pytest.mark.parametrize("name,trace", [("doubling", True), ("eval_db", False),
                                        ("cli_mix", True)])
def test_smoke_run(name, trace, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "MIN_PASSES", 1)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 2)
    report = harness.measure(name, 1, 0.0, trace)
    res = report["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == report["ops_per_pass"]
    expected = (tracing.SPAN_NAMES if trace else harness.END_TO_END)
    if trace:
        assert all(f"{n}.calls" in res["metrics"] for n in expected)
    else:
        assert set(res["metrics"]) == set(expected)
    json.dumps(res)
    assert not list((tmp_path / ".perfbench").glob("work-*"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "doubling",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("build", [build_doubling, build_eval_db, build_cli_mix])
def test_a_pass_has_enough_ops_for_p90(build, tmp_path):
    assert len(build(1, tmp_path).ops) >= harness.MIN_OPS_PER_PASS


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == \
        harness.END_TO_END
    layers = tracing.layer_metrics(tracing.Tracer(), 1, 1.0)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {k: (unit, better) for k, (_, unit, better) in layers.items()}
