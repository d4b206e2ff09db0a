"""Command line surface binding every module.

One subcommand per library operation, file based I/O, and a uniform run
report in either human text or JSON. Exit codes: 0 when the verdict is
true (or the command simply succeeded), 1 for a definitive false or
absent answer, 2 when the question could not be settled within budget,
and 3 for usage, input or I/O problems, and for any internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from pathlib import Path

from cqapprox.approx import (
    ComparabilityWarning,
    certify_overapprox,
    eval_delta_filtered,
    eval_overapprox,
    exists_overapprox,
    greedy_ghw1_overapprox,
    identify_delta,
)
from cqapprox.constraints import (
    ChaseDepthWarning,
    Egd,
    chase_egds,
    chase_tgds,
    contains_under,
    eval_overapprox_under,
    parse_dependencies,
    satisfies,
)
from cqapprox.gen import corpus, gaifman_dot, gen_dagger, gen_qn, gen_qn_prime
from cqapprox.hom import contains, core, evaluate, find_hom
from cqapprox.model import (
    BudgetError,
    ConjunctiveQuery,
    CqError,
    Database,
    PreconditionUnknownError,
    parse_database,
    parse_query,
    parse_tuple,
    serialize_database,
    serialize_query,
    serialize_tuple,
)
from cqapprox.pebble import (
    UnrollBudgetWarning,
    unroll,
    wins_bounded,
    wins_cover_game,
)
from cqapprox.width import (
    _ghw,
    ghw1_membership,
    parse_decomposition,
    serialize_decomposition,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

_VERDICT_EXIT = {
    "true": EXIT_TRUE,
    "false": EXIT_FALSE,
    "inconclusive": EXIT_INCONCLUSIVE,
    "error": EXIT_ERROR,
}

_FLAG_NAMES = {
    UnrollBudgetWarning: "unroll-budget",
    ChaseDepthWarning: "chase-depth",
    ComparabilityWarning: "comparability",
}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage problems to exit 2; the contract wants 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CqError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_query(path: str) -> ConjunctiveQuery:
    return parse_query(_read(path))


def _load_db(path: str) -> Database:
    return parse_database(_read(path))


def _load_deps(path: str):
    return parse_dependencies(_read(path))


def _tuple_arg(text: str | None) -> tuple:
    return parse_tuple(text) if text else ()


def _member_arg(text: str | None, q: ConjunctiveQuery) -> tuple:
    """The --tuple asked about: optional only for a Boolean query."""
    if text is None and not q.is_boolean:
        n = len(q.free_vars)
        raise CqError(f"--tuple is required: the query has {n} free variable{'s' * (n != 1)}")
    return _tuple_arg(text)


def _family_dict(fam, full: bool) -> dict:
    d = {
        "anchors": {k.name: v.name for k, v in fam.anchors.items()},
        "union_count": len(fam.unions),
        "member_counts": [len(ms) for ms in fam.members],
    }
    if full:
        d["unions"] = [sorted(t.name for t in u.vars) for u in fam.unions]
        d["members"] = [
            [{k.name: v.name for k, v in h.items()} for h in ms]
            for ms in fam.members
        ]
    return d


def _hom_dict(h) -> dict:
    return {k.name: v.name for k, v in sorted(h.mapping.items())}


def _render_human(report: dict) -> str:
    lines = [f"command: {report['command']}", f"verdict: {report['verdict']}"]
    if report["flags"]:
        lines.append("flags: " + ", ".join(report["flags"]))
    witness = report.get("witness") or {}
    for key, val in witness.items():
        if key in ("query", "decomposition", "database", "dot"):
            lines.append(f"{key}:")
            lines.append(str(val))
        elif key == "answers":
            lines.append(f"answers ({len(val)}):")
            lines.extend("  " + ",".join(t) for t in val)
        elif key == "mapping":
            lines.append("mapping:")
            lines.extend(f"  {a} -> {b}" for a, b in sorted(val.items()))
        elif key in ("forward_family", "backward_family", "family"):
            lines.append(
                f"{key}: {val['union_count']} unions, "
                f"members {val['member_counts']}"
            )
        else:
            lines.append(f"{key}: {val}")
    lines.append(f"time: {report['elapsed_ms']:.1f}ms")
    return "\n".join(lines)


def _emit(report: dict, as_json: bool, raw: str | None = None) -> int:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    elif raw is not None:
        print(raw)
    else:
        print(_render_human(report))
    return _VERDICT_EXIT[report["verdict"]]


# add_argument keywords per flag
_FILE = {"metavar": "F"}
_FLAGS = {
    "--query": _FILE,
    "--candidate": _FILE,
    "--db": _FILE,
    "--deps": _FILE,
    "--cert": _FILE,
    "--tuple": {"metavar": "c1,c2", "default": None},
    "--k": {"type": int, "default": 1, "metavar": "N"},
    "--cmax": {"type": int, "default": 8, "metavar": "N"},
    "--rounds": {"type": int, "default": None, "metavar": "N"},
    "--max-depth": {"type": int, "default": 16, "metavar": "N"},
    "--budget": {"type": int, "default": 50_000, "metavar": "N"},
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    top = _Parser(prog="cqapprox", description=__doc__)
    subs = top.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    def add(name, help_, *flags):
        """A subcommand taking `flags`; a trailing "!" marks one required."""
        p = subs.add_parser(name, help=help_)
        for flag in flags:
            opt = flag.rstrip("!")
            p.add_argument(opt, required=flag != opt, **_FLAGS[opt])
        p.add_argument("--json", action="store_true")
        return p

    add("eval", "evaluate a query on a database", "--query!", "--db!", "--tuple")
    add("eval-over", "evaluate the width-k overapproximation",
        "--query!", "--db!", "--tuple", "--k", "--deps", "--max-depth")
    add("identify-over", "is the candidate the GHW(k)-overapproximation?",
        "--query!", "--candidate!", "--k", "--cert")
    add("exists-over", "search for a GHW(k)-overapproximation",
        "--query!", "--k", "--cmax", "--budget")
    add("greedy1", "greedy acyclic overapproximation of a binary Boolean query",
        "--query!")
    add("core", "compute the core", "--query!")
    add("game", "existential k-cover game between a query and a target",
        "--query!", "--candidate", "--db", "--tuple", "--k", "--rounds")
    add("unroll", "bounded-round unrolling of a query", "--query!", "--k",
        "--rounds", "--budget")
    add("chase", "chase a query with dependencies", "--query!", "--deps!",
        "--max-depth")
    add("satisfies", "does an instance satisfy the dependencies?", "--db!",
        "--deps!")
    add("contains", "plain containment query ⊆ candidate", "--query!",
        "--candidate!")
    add("contains-under", "containment under dependencies", "--query!",
        "--candidate!", "--deps!", "--max-depth")
    add("identify-delta", "is the candidate an incomparable Δ-approximation?",
        "--query!", "--candidate!", "--k")
    add("eval-delta", "evaluate through a Δ-approximation filter",
        "--query!", "--candidate!", "--db!", "--tuple", "--k")
    p_gen = add("gen", "emit a named corpus or family instance")
    p_gen.add_argument("name", nargs="?", default=None)
    p_gen.add_argument("--dot", action="store_true")
    p_width = add("width", "generalized hypertreewidth up to a bound",
                  "--query!", "--k")
    p_width.set_defaults(k=3)
    return top


def _gen_instance(name: str):
    if name.startswith("qn:"):
        return gen_qn(int(name.split(":", 1)[1]))
    if name.startswith("qprime:"):
        return gen_qn_prime(int(name.split(":", 1)[1]))
    if name.startswith("dagger:"):
        return gen_dagger(int(name.split(":", 1)[1]))
    named = corpus()
    if name not in named:
        raise CqError(f"unknown instance {name!r}; try `cqapprox gen` for a list")
    return named[name]


def _run(args) -> tuple[str, dict | None, str | None]:
    """Execute one subcommand; returns (verdict, witness, raw_output)."""
    cmd = args.cmd

    if cmd == "eval":
        q = _load_query(args.query)
        db = _load_db(args.db)
        if args.tuple is not None or q.is_boolean:
            tup = _tuple_arg(args.tuple)
            h = find_hom(q, q.free_vars, db, tup)
            if h is None:
                return "false", None, None
            return "true", {"mapping": _hom_dict(h)}, None
        answers = sorted(evaluate(q, db))
        witness = {"answers": [[t.name for t in tup] for tup in answers]}
        return ("true" if answers else "false"), witness, None

    if cmd == "eval-over":
        q = _load_query(args.query)
        tup = _member_arg(args.tuple, q)
        db = _load_db(args.db)
        if args.deps:
            deps = _load_deps(args.deps)
            got = eval_overapprox_under(q, deps, db, tup, args.k,
                                        max_depth=args.max_depth)
        else:
            got = eval_overapprox(q, db, tup, args.k)
        return ("true" if got else "false"), None, None

    if cmd == "identify-over":
        q = _load_query(args.query)
        cand = _load_query(args.candidate)
        cert_in = parse_decomposition(_read(args.cert)) if args.cert else None
        got = certify_overapprox(q, cand, args.k, cert_in)
        if got is None:
            return "false", None, None
        witness = {
            "k": got.k,
            "decomposition": serialize_decomposition(got.decomposition),
            "forward_family": _family_dict(got.forward_family, args.json),
            "backward_family": _family_dict(got.backward_family, args.json),
        }
        return "true", witness, None

    if cmd == "exists-over":
        q = _load_query(args.query)
        got = exists_overapprox(q, args.k, cmax=args.cmax, budget=args.budget)
        if got is None:
            return "inconclusive", None, None
        return "true", {"query": serialize_query(got)}, None

    if cmd == "greedy1":
        q = _load_query(args.query)
        got = greedy_ghw1_overapprox(q)
        if got is None:
            return "false", None, None
        return "true", {"query": serialize_query(got)}, None

    if cmd == "core":
        q = _load_query(args.query)
        return "true", {"query": serialize_query(core(q))}, None

    if cmd == "game":
        q = _load_query(args.query)
        if (args.candidate is None) == (args.db is None):
            raise CqError("game needs exactly one of --candidate or --db")
        if args.candidate:
            tgt = _load_query(args.candidate)
            tgt_tuple = _tuple_arg(args.tuple) or tgt.free_vars
        else:
            tgt = _load_db(args.db)
            tgt_tuple = _tuple_arg(args.tuple)
        if args.rounds is not None:
            got = wins_bounded(q, q.free_vars, tgt, tgt_tuple, args.k,
                               args.rounds)
            return ("true" if got else "false"), None, None
        got, fam = wins_cover_game(q, q.free_vars, tgt, tgt_tuple, args.k)
        if not got:
            return "false", None, None
        return "true", {"family": _family_dict(fam, args.json)}, None

    if cmd == "unroll":
        q = _load_query(args.query)
        rounds = 1 if args.rounds is None else args.rounds
        got = unroll(q, args.k, rounds, budget=args.budget)
        return "true", {"query": serialize_query(got)}, None

    if cmd == "chase":
        q = _load_query(args.query)
        deps = _load_deps(args.deps)
        if deps and all(isinstance(d, Egd) for d in deps):
            res = chase_egds(q, deps)
        else:
            res = chase_tgds(q, deps, max_depth=args.max_depth)
        witness = {
            "query": serialize_query(res.query),
            "mapping": _hom_dict(res.hom_to_result),
            "complete": res.complete,
        }
        return ("true" if res.complete else "inconclusive"), witness, None

    if cmd == "satisfies":
        db = _load_db(args.db)
        deps = _load_deps(args.deps)
        return ("true" if satisfies(db, deps) else "false"), None, None

    if cmd == "contains":
        q = _load_query(args.query)
        cand = _load_query(args.candidate)
        return ("true" if contains(q, cand) else "false"), None, None

    if cmd == "contains-under":
        q = _load_query(args.query)
        cand = _load_query(args.candidate)
        deps = _load_deps(args.deps)
        got = contains_under(q, cand, deps, max_depth=args.max_depth)
        if got is None:
            return "inconclusive", None, None
        return ("true" if got else "false"), None, None

    if cmd == "identify-delta":
        q = _load_query(args.query)
        cand = _load_query(args.candidate)
        got = identify_delta(q, cand, args.k)
        return ("true" if got else "false"), None, None

    if cmd == "eval-delta":
        q = _load_query(args.query)
        tup = _member_arg(args.tuple, q)
        filt = _load_query(args.candidate)
        db = _load_db(args.db)
        got = eval_delta_filtered(q, filt, db, tup, args.k)
        return ("true" if got else "false"), None, None

    if cmd == "gen":
        if args.name is None:
            names = sorted(corpus()) + ["qn:N", "qprime:N", "dagger:K"]
            return "true", {"available": names}, "\n".join(names)
        thing = _gen_instance(args.name)
        if args.dot:
            text = thing.to_dot() if hasattr(thing, "to_dot") else gaifman_dot(thing)
        elif isinstance(thing, Database):
            text = serialize_database(thing)
        elif isinstance(thing, ConjunctiveQuery):
            text = serialize_query(thing)
        else:
            text = serialize_query(thing.to_query())
        return "true", {"content": text}, text

    if cmd == "width":
        q = _load_query(args.query)
        td = ghw1_membership(q)
        got = _ghw(q, args.k, td)
        if got is None:
            return "false", {"bound": args.k}, None
        witness = {"ghw": got}
        if td is not None:
            witness["decomposition"] = serialize_decomposition(td)
        return "true", witness, None

    raise CqError(f"unhandled command {cmd}")  # pragma: no cover


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    flags: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verdict, witness, raw = _run(args)
        for w in caught:
            flags.append(_FLAG_NAMES.get(w.category, w.category.__name__))
            print(f"cqapprox: warning: {w.message}", file=sys.stderr)
        if args.cmd == "exists-over" and verdict == "inconclusive" and not flags:
            flags.append("cmax")  # no budget warning: every depth up to --cmax ran
    except (PreconditionUnknownError, BudgetError) as exc:
        print(f"cqapprox: inconclusive: {exc}", file=sys.stderr)
        verdict, witness, raw = "inconclusive", None, None
    except CqError as exc:
        print(f"cqapprox: error: {exc}", file=sys.stderr)
        verdict, witness, raw = "error", None, None
    except Exception as exc:  # a defect must not read as a verdict (exit 1)
        print(f"cqapprox: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        verdict, witness, raw = "error", None, None
    report = {
        "command": args.cmd,
        "verdict": verdict,
        "witness": witness,
        "flags": sorted(set(flags)),
        "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
    }
    return _emit(report, args.json, raw)


if __name__ == "__main__":
    raise SystemExit(main())
