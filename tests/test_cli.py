"""Exit codes, report formats, and witness round-trips of the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqapprox import cli, width
from cqapprox.cli import main
from cqapprox.hom import equivalent, evaluate
from cqapprox.model import parse_database, parse_query
from cqapprox.width import parse_decomposition, validate_decomposition

from _support import fig1_qprime


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


@pytest.fixture
def files(tmp_path):
    """Materialize the worked examples as files once per test."""

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return {
        "fig1_q": write(
            "fig1_q.cq",
            "q() :- P_a(x,y), P_a(y,x), P_a(y,z), P_a(z,y), P_b(z,x), P_b(x,z).",
        ),
        "fig1_qp": write(
            "fig1_qp.cq",
            "q() :- P_a(x,y1), P_a(y1,x), P_a(y2,z), P_a(z,y2), P_b(z,x), P_b(x,z).",
        ),
        "triangle": write("triangle.cq", "q() :- E(x,y), E(y,z), E(z,x)."),
        "c2": write("c2.cq", "q() :- E(x,y), E(y,x)."),
        "loop": write("loop.cq", "q() :- E(x,x)."),
        "path2": write("path2.cq", "q() :- E(x,y), E(y,z)."),
        "qx": write("qx.cq", "q(x) :- E(x,y)."),
        "c2_db": write("c2.facts", "E(a,b).\nE(b,a)."),
        "loop_db": write("loop.facts", "E(c,c)."),
        "closure": write("closure.deps", "E(x,y), E(y,z) -> E(z,x)."),
        "growth": write("growth.deps", "R(x,y) -> R(y,z)."),
        "r1": write("r1.cq", "q() :- R(x,y)."),
        "r5": write(
            "r5.cq", "q() :- R(a,b), R(b,c), R(c,d), R(d,e), R(e,f)."
        ),
        "tmp": str(tmp_path),
    }


# --- exit code contract -------------------------------------------------------


def test_identify_over_positive(capsys, files):
    code, out, _ = run(
        capsys, "identify-over", "--k", "1",
        "--query", files["fig1_q"], "--candidate", files["fig1_qp"],
    )
    assert code == 0
    assert "verdict: true" in out
    assert "decomposition:" in out  # witness on by default


def test_identify_over_negative(capsys, files):
    code, out, _ = run(
        capsys, "identify-over", "--k", "1",
        "--query", files["triangle"], "--candidate", files["c2"],
    )
    assert code == 1 and "verdict: false" in out


def test_exists_over_inconclusive_on_triangle(capsys, files):
    code, out, _ = run(
        capsys, "exists-over", "--k", "1", "--cmax", "4",
        "--query", files["triangle"],
    )
    assert code == 2 and "verdict: inconclusive" in out


def test_exists_over_names_cmax_when_every_depth_ran(capsys, files):
    code, report, _ = run_json(
        capsys, "exists-over", "--k", "1", "--cmax", "4", "--query", files["triangle"]
    )
    assert code == 2 and report["verdict"] == "inconclusive"
    assert report["flags"] == ["cmax"]


def test_exists_over_names_the_budget_when_it_stops_the_search(capsys, files):
    code, report, err = run_json(
        capsys, "exists-over", "--k", "1", "--cmax", "8", "--budget", "5",
        "--query", files["triangle"],
    )
    assert code == 2 and report["verdict"] == "inconclusive"
    assert report["flags"] == ["unroll-budget"]
    assert "budget 5" in err


def test_exists_over_finds_acyclic_fixpoint(capsys, files):
    code, report, _ = run_json(
        capsys, "exists-over", "--k", "1", "--query", files["c2"]
    )
    assert code == 0
    got = parse_query(report["witness"]["query"])
    assert equivalent(got, parse_query("q() :- E(x,y), E(y,x)."))


def test_eval_over_true(capsys, files):
    code, out, _ = run(
        capsys, "eval-over", "--k", "1",
        "--query", files["triangle"], "--db", files["c2_db"],
    )
    assert code == 0 and "verdict: true" in out


def test_greedy_definitive_absence(capsys, files):
    code, _, _ = run(capsys, "greedy1", "--query", files["triangle"])
    assert code == 1


def test_greedy_output_identifies(capsys, files):
    code, report, _ = run_json(capsys, "greedy1", "--query", files["fig1_q"])
    assert code == 0
    assert equivalent(parse_query(report["witness"]["query"]), fig1_qprime)


def test_usage_error_is_exit_3(capsys, files):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--db", files["c2_db"]])  # --query missing
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 3


def test_missing_file_is_exit_3(capsys, files):
    code, out, err = run(
        capsys, "core", "--query", files["tmp"] + "/absent.cq"
    )
    assert code == 3 and "verdict: error" in out and "absent.cq" in err


def test_malformed_query_is_exit_3(capsys, files):
    code, _, err = run(capsys, "core", "--query", files["c2_db"])
    assert code == 3 and err.startswith("cqapprox: error:")


def test_arity_mismatch_is_exit_3_without_traceback(capsys, files, tmp_path):
    db = tmp_path / "short.facts"
    db.write_text("R(a).")
    code, report, err = run_json(
        capsys, "eval-over", "--query", files["r1"], "--db", str(db)
    )
    assert code == 3 and report["verdict"] == "error"
    assert err.startswith("cqapprox: error:") and "Traceback" not in err


def test_dependency_arity_clash_is_exit_3(capsys, files, tmp_path):
    fd = tmp_path / "fd.deps"
    fd.write_text("E(x,y,z), E(x,y2,z2) -> z = z2.")
    for argv in (
        ("satisfies", "--db", files["c2_db"]),
        ("chase", "--query", files["path2"]),
    ):
        code, report, err = run_json(capsys, *argv, "--deps", str(fd))
        assert code == 3 and report["verdict"] == "error"
        assert err.startswith("cqapprox: error:") and "Traceback" not in err


def test_internal_failure_is_exit_3(capsys, files, monkeypatch):
    def broken(q):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "core", broken)
    code, report, err = run_json(capsys, "core", "--query", files["c2"])
    assert code == 3 and report["verdict"] == "error"
    assert err == "cqapprox: error: KeyError: 'boom'\n"


# --- individual commands ------------------------------------------------------


def test_eval_enumerates_answers(capsys, files):
    code, report, _ = run_json(
        capsys, "eval", "--query", files["qx"], "--db", files["c2_db"]
    )
    assert code == 0
    got = {tuple(t) for t in report["witness"]["answers"]}
    q = parse_query("q(x) :- E(x,y).")
    db = parse_database("E(a,b).\nE(b,a).")
    assert got == {tuple(t.name for t in tup) for tup in evaluate(q, db)}


def test_eval_membership_with_tuple(capsys, files):
    code, report, _ = run_json(
        capsys, "eval", "--query", files["qx"], "--db", files["c2_db"],
        "--tuple", "a",
    )
    assert code == 0 and report["witness"]["mapping"]["x"] == "a"


def test_eval_bad_tuple_arity(capsys, files):
    code, _, err = run(
        capsys, "eval", "--query", files["qx"], "--db", files["c2_db"],
        "--tuple", "a,b",
    )
    assert code == 3 and "error" in err


def test_core_command(capsys, files, tmp_path):
    doubled = tmp_path / "dbl.cq"
    doubled.write_text("q() :- E(x,y), E(y,x), E(y,z), E(z,y).")
    code, report, _ = run_json(capsys, "core", "--query", str(doubled))
    assert code == 0
    assert len(parse_query(report["witness"]["query"]).atoms) == 2


def test_game_query_target_and_rounds(capsys, files):
    code, _, _ = run(
        capsys, "game", "--query", files["triangle"],
        "--candidate", files["c2"], "--k", "1",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "game", "--query", files["c2"],
        "--candidate", files["loop"], "--k", "1", "--rounds", "3",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "game", "--query", files["loop"],
        "--candidate", files["path2"], "--k", "1",
    )
    assert code == 1


def test_game_needs_exactly_one_target(capsys, files):
    code, _, err = run(capsys, "game", "--query", files["triangle"])
    assert code == 3 and "exactly one" in err
    code, _, err = run(
        capsys, "game", "--query", files["triangle"],
        "--candidate", files["c2"], "--db", files["c2_db"],
    )
    assert code == 3


def test_game_json_families_validate(capsys, files):
    code, report, _ = run_json(
        capsys, "game", "--query", files["triangle"], "--db", files["c2_db"],
        "--k", "1",
    )
    assert code == 0
    fam = report["witness"]["family"]
    assert fam["union_count"] == len(fam["members"])
    assert all(ms for ms in fam["members"])


def test_unroll_budget_flag(capsys, files):
    code, report, err = run_json(
        capsys, "unroll", "--query", files["triangle"], "--k", "1",
        "--rounds", "3", "--budget", "5",
    )
    assert code == 0
    assert report["flags"] == ["unroll-budget"]
    assert "warning" in err
    assert parse_query(report["witness"]["query"]).is_boolean


def test_chase_complete_and_capped(capsys, files):
    code, report, _ = run_json(
        capsys, "chase", "--query", files["path2"], "--deps", files["closure"]
    )
    assert code == 0 and report["witness"]["complete"] is True
    got = parse_query(report["witness"]["query"])
    assert equivalent(got, parse_query("q() :- E(x,y), E(y,z), E(z,x)."))

    code, report, _ = run_json(
        capsys, "chase", "--query", files["r1"], "--deps", files["growth"],
        "--max-depth", "2",
    )
    assert code == 2 and report["witness"]["complete"] is False


def test_satisfies_command(capsys, files):
    code, _, _ = run(
        capsys, "satisfies", "--db", files["loop_db"], "--deps", files["closure"]
    )
    assert code == 0
    code, _, _ = run(
        capsys, "satisfies", "--db", files["c2_db"], "--deps", files["closure"]
    )
    assert code == 1


def test_contains_commands(capsys, files):
    code, _, _ = run(
        capsys, "contains", "--query", files["triangle"],
        "--candidate", files["path2"],
    )
    assert code == 0
    code, _, _ = run(
        capsys, "contains", "--query", files["path2"],
        "--candidate", files["triangle"],
    )
    assert code == 1
    code, _, _ = run(
        capsys, "contains-under", "--query", files["path2"],
        "--candidate", files["triangle"], "--deps", files["closure"],
    )
    assert code == 0
    code, _, _ = run(
        capsys, "contains-under", "--query", files["r1"],
        "--candidate", files["r5"], "--deps", files["growth"],
        "--max-depth", "2",
    )
    assert code == 2


def test_identify_delta_codes(capsys, files):
    code, _, _ = run(
        capsys, "identify-delta", "--query", files["triangle"],
        "--candidate", files["c2"], "--k", "1",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "identify-delta", "--query", files["triangle"],
        "--candidate", files["loop"], "--k", "1",
    )
    assert code == 1


def test_eval_delta_comparability_flag(capsys, files):
    code, report, err = run_json(
        capsys, "eval-delta", "--query", files["triangle"],
        "--candidate", files["loop"], "--db", files["loop_db"], "--k", "1",
    )
    assert code == 0
    assert report["flags"] == ["comparability"]
    assert "warning" in err


def test_identify_over_without_cert_at_k2(capsys, files):
    code, out, err = run(
        capsys, "identify-over", "--k", "2",
        "--query", files["triangle"], "--candidate", files["triangle"],
    )
    assert code == 2 and "inconclusive" in out and "inconclusive" in err


def test_cert_round_trip(capsys, files, tmp_path):
    code, report, _ = run_json(
        capsys, "identify-over", "--k", "1",
        "--query", files["fig1_q"], "--candidate", files["fig1_qp"],
    )
    assert code == 0
    cert = tmp_path / "fig1.cert"
    cert.write_text(report["witness"]["decomposition"])
    code, out, _ = run(
        capsys, "identify-over", "--k", "1",
        "--query", files["fig1_q"], "--candidate", files["fig1_qp"],
        "--cert", str(cert),
    )
    assert code == 0 and "verdict: true" in out


def test_cert_garbage_is_exit_3(capsys, files, tmp_path):
    cert = tmp_path / "bad.cert"
    cert.write_text("not a decomposition")
    code, _, err = run(
        capsys, "identify-over", "--k", "1",
        "--query", files["fig1_q"], "--candidate", files["fig1_qp"],
        "--cert", str(cert),
    )
    assert code == 3 and "error" in err


def test_width_command(capsys, files):
    code, report, _ = run_json(capsys, "width", "--query", files["triangle"])
    assert code == 0 and report["witness"]["ghw"] == 2
    code, _, _ = run(
        capsys, "width", "--query", files["triangle"], "--k", "1"
    )
    assert code == 1
    code, report, _ = run_json(capsys, "width", "--query", files["path2"])
    assert code == 0
    assert report["witness"]["ghw"] == 1
    assert "decomposition" in report["witness"]


def test_width_guard_is_inconclusive(capsys, files, tmp_path):
    cycle = " , ".join(f"E(v{i},v{(i + 1) % 14})" for i in range(14))
    p = tmp_path / "cycle.cq"
    p.write_text(f"q() :- {cycle}.")
    code, out, err = run(capsys, "width", "--query", str(p), "--k", "2")
    assert code == 2 and "inconclusive" in err


def test_width_of_long_acyclic_query_is_decided(capsys, tmp_path):
    # the exact search's size guard does not apply to acyclic queries
    code, out, _ = run(capsys, "gen", "qprime:4")
    assert code == 0
    p = tmp_path / "qp4.cq"
    p.write_text(out)
    code, report, _ = run_json(capsys, "width", "--query", str(p))
    assert code == 0 and report["witness"]["ghw"] == 1
    td = parse_decomposition(report["witness"]["decomposition"])
    assert validate_decomposition(parse_query(out), td, 1)


@pytest.mark.parametrize("source", ["qprime:4", "triangle"])
def test_width_tests_acyclicity_once_per_op(capsys, tmp_path, monkeypatch, source):
    code, out, _ = run(capsys, "gen", source)
    p = tmp_path / "q.cq"
    p.write_text(out)
    q = parse_query(out)
    td = width.ghw1_membership(q)
    want = {"ghw": 2} if td is None else {
        "ghw": 1, "decomposition": width.serialize_decomposition(td)
    }
    calls = []
    real = width.ghw1_membership

    def counting(query):
        calls.append(query)
        return real(query)

    monkeypatch.setattr(width, "ghw1_membership", counting)
    monkeypatch.setattr(cli, "ghw1_membership", counting)
    code, report, _ = run_json(capsys, "width", "--query", str(p))
    assert len(calls) == 1
    assert (code, report["verdict"], report["flags"]) == (0, "true", [])
    assert report["witness"] == want


def test_gen_lists_and_emits(capsys, files):
    code, out, _ = run(capsys, "gen")
    assert code == 0 and "fig1_q" in out and "dagger:K" in out

    code, out, _ = run(capsys, "gen", "fig1_q")
    assert code == 0
    assert len(parse_query(out).atoms) == 6

    code, out, _ = run(capsys, "gen", "qprime:2")
    assert code == 0 and len(parse_query(out).atoms) == 6

    code, out, _ = run(capsys, "gen", "triangle_db")
    assert code == 0 and len(parse_database(out).facts) == 3

    code, out, _ = run(capsys, "gen", "dagger:3", "--dot")
    assert code == 0 and out.startswith("digraph")

    code, out, _ = run(capsys, "gen", "triangle", "--dot")
    assert code == 0 and out.startswith("graph gaifman")

    code, _, err = run(capsys, "gen", "no_such_thing")
    assert code == 3 and "unknown instance" in err


def test_json_report_schema(capsys, files):
    code, report, _ = run_json(
        capsys, "contains", "--query", files["triangle"],
        "--candidate", files["path2"],
    )
    assert code == 0
    assert set(report) == {"command", "verdict", "witness", "flags", "elapsed_ms"}
    assert report["command"] == "contains"
    assert report["verdict"] == "true"


def test_eval_over_without_tuple_names_the_flag(capsys, files):
    code, _, err = run(capsys, "eval-over", "--query", files["qx"],
                       "--db", files["c2_db"])
    assert code == 3
    assert "--tuple" in err and "1 free variable" in err
    code, _, err = run(capsys, "eval-delta", "--query", files["qx"],
                       "--candidate", files["qx"], "--db", files["c2_db"])
    assert code == 3 and "--tuple" in err
    # a Boolean query still needs none
    code, _, _ = run(capsys, "eval-over", "--query", files["c2"],
                     "--db", files["c2_db"])
    assert code == 0


# --- one parser per process ---------------------------------------------------


def _fresh_report(argv):
    """The JSON report of argv run in a new interpreter, without its time."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "cqapprox.cli", *argv, "--json"],
        capture_output=True, text=True, env=env, check=False,
    )
    report = json.loads(proc.stdout)
    del report["elapsed_ms"]
    return proc.returncode, report


def test_repeated_main_calls_match_fresh_interpreters(capsys, files):
    calls = [
        ["width", "--query", files["triangle"]],  # k defaults to 3 here
        ["identify-over", "--query", files["fig1_q"], "--candidate", files["fig1_qp"]],
        ["eval", "--query", files["qx"], "--db", files["c2_db"], "--tuple", "a"],
        ["eval", "--query", files["qx"], "--db", files["c2_db"]],  # all answers
        ["width", "--query", files["path2"], "--k", "1"],
        ["width", "--query", files["triangle"]],
    ]
    for argv in calls:
        code, report, _ = run_json(capsys, *argv)
        del report["elapsed_ms"]
        assert (code, report) == _fresh_report(argv), argv
    # the identify-over call ran at k = 1, not at width's default of 3
    assert run_json(capsys, *calls[1])[0] == 0


def test_usage_error_is_exit_3_on_every_call(capsys, files):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["core", "--query", files["triangle"], "--bogus"])
        assert exc.value.code == 3
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, _, _ = run(capsys, "core", "--query", files["triangle"])
    assert code == 0
