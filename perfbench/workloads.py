"""The three workloads: their inputs, their op schedules and verdict checks.

A workload's build function takes the seed and a scratch directory inside the
checkout and returns a ``Schedule``: the ops of one pass, in order, and a
digest of every generated input. Each op calls one public entry point
(looked up on the module at call time, so the tracer's bindings are
seen) and carries a check that judges the result without calling the
code under measurement.

Checks return ``(correct, decided)``. ``decided`` is False for an
inconclusive outcome that was expected: ``exists_overapprox`` giving up, a
depth-capped chase, CLI exit 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import cqapprox as cq
import cqapprox.cli as cq_cli
from cqapprox import Atom, ConjunctiveQuery, Const, Database, Var

from perfbench import inputs, oracle


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, bool]]


@dataclass
class Schedule:
    ops: list[Op]
    sizes: dict
    digest: str = ""
    _hash: object = field(default_factory=hashlib.sha256, repr=False)

    def record(self, *texts: str):
        for text in texts:
            self._hash.update(text.encode())
            self._hash.update(b"\0")
        self.digest = self._hash.hexdigest()

    def warmup_ops(self) -> list[Op]:
        """The first op of each kind; build functions list small inputs first."""
        seen: dict[str, Op] = {}
        for op in self.ops:
            seen.setdefault(op.kind, op)
        return list(seen.values())


# --- plain data <-> cqapprox values ------------------------------------------


def to_cq(query) -> ConjunctiveQuery:
    head, atoms = query
    return ConjunctiveQuery(
        tuple(Var(v) for v in head),
        tuple(Atom(rel, tuple(Var(t) for t in args)) for rel, args in atoms),
    )


def to_db(facts) -> Database:
    return Database(tuple(Atom(rel, tuple(Const(c) for c in args)) for rel, args in facts))


def plain(q: ConjunctiveQuery):
    return (
        tuple(v.name for v in q.free_vars),
        tuple((a.relation, tuple(t.name for t in a.args)) for a in q.atoms),
    )


def maps_into(src, tgt) -> bool:
    """Is there a homomorphism src -> tgt fixing the head positionwise?
    The target's variables are read as constants."""
    binding = oracle.anchor(src[0], tgt[0])
    return binding is not None and oracle.exists_hom(list(src[1]), oracle.Index(tgt[1]),
                                                     binding)


def is_core(query) -> bool:
    """No homomorphism into the query minus any one atom."""
    head, atoms = query
    return not any(
        maps_into(query, (head, atoms[:i] + atoms[i + 1 :])) for i in range(len(atoms))
    )


_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\(([^()]*)\)")


def parse_plain(text: str):
    """Read a serialized query back into plain data (independent parser)."""
    head_text, _, body = text.partition(":-")
    head_args = _ATOM_RE.search(head_text).group(2)
    head = tuple(t.strip() for t in head_args.split(",") if t.strip())
    atoms = tuple(
        (rel, tuple(t.strip() for t in args.split(",")))
        for rel, args in _ATOM_RE.findall(body)
    )
    return head, atoms


def _expect(value):
    return lambda got: (got == value, True)


# --- doubling ----------------------------------------------------------------

# n -> renamed copies per pass. Small instances repeat so that a pass has
# over 100 ops and p50 falls inside the ~1 ms cluster (identify at n = 2,
# 3); identify at n = 5 and n = 6 (false) repeat so that p90 falls inside
# their cluster. identify at n = 7 (1.6 s on a 2-core Xeon) and
# core(gen_qn_prime(5)) (2.7 s) are left out: a pass must stay short
# enough for several passes per run, see harness.
DOUBLING_COPIES = {
    "identify_overapprox/true": {1: 12, 2: 12, 3: 6, 4: 3, 5: 3, 6: 1},
    "identify_overapprox/false": {2: 9, 3: 9, 4: 3, 5: 2, 6: 3, 7: 1},
    "core": {1: 18, 2: 9, 3: 6, 4: 6},
    "exists_overapprox": {1: 12, 2: 9, 3: 2},
}


def build_doubling(seed: int, workdir: Path) -> Schedule:
    """gen_qn / gen_qn_prime: identify (true and false), core, exists."""
    rng = inputs.rng_for(seed, "doubling")
    sched = Schedule([], {kind: {f"n={n}": c for n, c in copies.items()}
                          for kind, copies in DOUBLING_COPIES.items()})
    qn = {n: plain(cq.gen_qn(n)) for n in range(1, 8)}
    qp = {n: plain(cq.gen_qn_prime(n)) for n in range(1, 8)}

    def variants(kind):
        for n, copies in DOUBLING_COPIES[kind].items():
            for _ in range(copies):
                yield n

    def renamed(query):
        out = inputs.rename(query, rng)
        sched.record(inputs.query_text(out))
        return out

    def add(kind, n, call, check):
        sched.ops.append(Op(kind, f"n={n}", call, check))

    for n in variants("identify_overapprox/true"):
        q, c = to_cq(renamed(qn[n])), to_cq(renamed(qp[n]))
        add("identify_overapprox/true", n,
            lambda q=q, c=c: cq.identify_overapprox(q, c, 1), _expect(True))
    for n in variants("identify_overapprox/false"):
        q, c = to_cq(renamed(qn[n])), to_cq(renamed(qp[n - 1]))
        add("identify_overapprox/false", n,
            lambda q=q, c=c: cq.identify_overapprox(q, c, 1), _expect(False))
    for n in variants("core"):
        p = renamed(qp[n])
        add("core", n, lambda q=to_cq(p): cq.core(q),
            lambda got, p=p: (set(plain(got)[1]) == set(p[1]), True))
    for n in variants("exists_overapprox"):
        p = renamed(qn[n])
        add("exists_overapprox", n, lambda q=to_cq(p): cq.exists_overapprox(q, 1),
            lambda got, p=p, n=n: _check_doubling_exists(got, p, n))
    return sched


def _check_doubling_exists(got, q, n):
    if got is None:
        return False, False
    out = plain(got)
    ok = (
        len(out[1]) == 2 * (2**n - 1)
        and oracle.query_acyclic(out)
        and maps_into(out, q)  # q is contained in its overapproximation
    )
    return ok, True


# --- eval_db -----------------------------------------------------------------

# per database size: (queries, probes per anchored query, head sizes cycled,
# also run eval_overapprox at k = 2 and evaluate). Measured on a 2-core
# Xeon, k = 2 at 1e3 facts took 0.3 to 8 s per call even on anchored
# acyclic queries, and evaluate 0.7 to 1.3 s, so both stay on 1e2 facts.
EVAL_PLAN = {
    100: (24, 4, (0, 1, 2), True),
    1000: (16, 3, (0, 1, 2), False),
    10000: (6, 1, (1, 2), False),
}
# query slot i has EVAL_ATOMS[i % 4] atoms, so every seed sees the same sizes
EVAL_ATOMS = (3, 4, 5, 6)
# k = 2 on 5 or 6 atoms took up to 0.6 s per call even on 1e2 facts
EVAL_K2_ATOMS = 4


def build_eval_db(seed: int, workdir: Path) -> Schedule:
    sched = Schedule([], {
        "db_facts": list(inputs.DB_SIZES),
        "relations": dict(inputs.SCHEMA),
        "queries_per_db": {s: EVAL_PLAN[s][0] for s in inputs.DB_SIZES},
        "probes_per_anchored_query": {s: EVAL_PLAN[s][1] for s in inputs.DB_SIZES},
        "atoms_per_query": list(EVAL_ATOMS),
        "k2_and_evaluate": f"1e2 facts; k=2 up to {EVAL_K2_ATOMS} atoms, "
                           "evaluate up to one free variable",
    })
    memo: dict = {}  # exact answers and k = 1 verdicts, shared by the checks
    for size in inputs.DB_SIZES:
        n_queries, n_probes, heads, small = EVAL_PLAN[size]
        facts = inputs.random_db(size, inputs.rng_for(seed, f"db{size}"))
        sched.record(inputs.db_text(facts))
        db = to_db(facts)
        index = oracle.Index(facts)
        # the queries come from one fixed stream and the seed draws the
        # databases and probes: with queries drawn or even just renamed per
        # seed, p50 moved by half between seeds
        shapes = inputs.rng_for(0, f"shapes{size}")
        qrng = inputs.rng_for(seed, f"probes{size}")
        for qi in range(n_queries):
            cyclic = qi % 2 == 1
            n_free = heads[qi % len(heads)]
            query = inputs.random_query(shapes, cyclic, n_free, EVAL_ATOMS[qi % 4])
            probes = inputs.probe_tuples(query, facts, qrng, n_probes) if n_free else [()]
            sched.record(inputs.query_text(query), *map(",".join, probes))
            acyclic = oracle.query_acyclic(query)
            run_k2 = small and len(query[1]) <= EVAL_K2_ATOMS
            _eval_db_ops(sched, memo, size, qi, query, probes, db, index, acyclic, run_k2)
            if small and n_free <= 1:
                q = to_cq(query)
                sched.ops.append(Op("evaluate", f"db={size} q={qi}",
                                    lambda q=q, db=db: cq.evaluate(q, db),
                                    lambda got, query=query, index=index:
                                        _check_evaluate(got, query, index)))
    # cheap before expensive within each kind, so warm-up picks small inputs
    sched.ops.sort(key=lambda op: int(op.label.split()[0][3:]))
    return sched


def _eval_db_ops(sched, memo, size, qi, query, probes, db, index, acyclic, run_k2):
    q = to_cq(query)
    for ti, tup in enumerate(probes):
        t = tuple(Const(c) for c in tup)
        key = (size, qi, ti)

        def exact(key=key, tup=tup):
            if key not in memo:
                memo[key] = oracle.holds(query, index, tup)
            return memo[key]

        def check_over(got, k, key=key, exact=exact):
            if not isinstance(got, bool):
                return False, False
            if k == 1:
                memo[key + (1,)] = got
            ok = got or not exact()
            if k == 1 and acyclic:
                ok = got == exact()
            if k == 2 and got and memo.get(key + (1,)) is False:
                ok = False  # the GHW(2) answers lie inside the GHW(1) ones
            return ok, True

        label = f"db={size} q={qi} t={ti}"
        sched.ops.append(Op("eval_overapprox/k1", label,
                            lambda q=q, t=t: cq.eval_overapprox(q, db, t, 1),
                            lambda got, c=check_over: c(got, 1)))
        if run_k2:
            sched.ops.append(Op("eval_overapprox/k2", label,
                                lambda q=q, t=t: cq.eval_overapprox(q, db, t, 2),
                                lambda got, c=check_over: c(got, 2)))
        sched.ops.append(Op("find_hom", label,
                            lambda q=q, t=t: cq.find_hom(q, q.free_vars, db, t),
                            lambda got, exact=exact, tup=tup:
                                _check_find_hom(got, query, index, tup, exact())))


def _check_find_hom(got, query, index, tup, exact):
    if got is None:
        return not exact, True
    m = {k.name: v.name for k, v in got.mapping.items()}
    ok = (
        exact
        and tuple(m[v] for v in query[0]) == tuple(tup)
        and all((rel, tuple(m[t] for t in args)) in index.facts for rel, args in query[1])
    )
    return ok, True


def _check_evaluate(got, query, index):
    names = {tuple(t.name for t in tup) for tup in got}
    return names == oracle.answers(query, index), True


# --- cli_mix -----------------------------------------------------------------

# odd cycle lengths, one greedy1 query each, and as many bipartite and tree
# queries; fixed lengths keep greedy1's cost the same on every seed
CLI_ODD_CYCLES = (3, 5, 7, 9, 5, 7)
CLI_EVAL_PLAN = {1000: (4, 2), 10000: (2, 1)}  # facts: (queries, probes)
CLI_CHASE_DEPTH = 16
TC_DEPS = "E(x, y), E(y, z) -> E(x, z).\n"
SUCC_DEPS = "E(x, y) -> E(y, z).\n"
FD_DEPS = "R(x, y, z), R(x, y2, z2) -> z = z2.\n"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cq_cli.main(argv)
    return code, out.getvalue()


_VERDICT = {0: "true", 1: "false", 2: "inconclusive", 3: "error"}


def _check_cli(result, code, witness_ok=None):
    got_code, text = result
    try:
        report = json.loads(text)
    except ValueError:
        return False, False
    ok = got_code == code and report.get("verdict") == _VERDICT[code]
    if ok and witness_ok is not None:
        ok = bool(witness_ok(report.get("witness") or {}))
    return ok, got_code in (0, 1)


def _witness_query(w):
    return parse_plain(w["query"])


class _Files:
    def __init__(self, sched: Schedule, workdir: Path):
        self.sched, self.dir, self.count = sched, workdir, 0

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.dir / f"{self.count:03d}-{stem}"
        path.write_text(text)
        self.sched.record(path.name, text)
        return str(path)


def build_cli_mix(seed: int, workdir: Path) -> Schedule:
    rng = inputs.rng_for(seed, "cli_mix")
    sched = Schedule([], {
        "greedy1_odd_cycles": list(CLI_ODD_CYCLES),
        "exists_over": "corpus at --cmax 4, triangle at --cmax 8",
        "width": "dagger:3..6 at --k 3",
        "chase_max_depth": CLI_CHASE_DEPTH,
        "eval_over_db_facts": {s: list(p) for s, p in CLI_EVAL_PLAN.items()},
    })
    files = _Files(sched, workdir)
    ops = sched.ops

    def cli(kind, label, argv, code, witness_ok=None):
        argv = [*argv, "--json"]
        ops.append(Op(kind, label, lambda: run_cli(argv),
                      lambda got: _check_cli(got, code, witness_ok)))

    def qfile(stem, query):
        return files.write(stem + ".cq", inputs.query_text(query))

    corpus = {name: plain(v) for name, v in cq.corpus().items()
              if isinstance(v, ConjunctiveQuery)}
    renamed = {name: inputs.rename(q, rng) for name, q in sorted(corpus.items())}
    paths = {name: qfile(name, q) for name, q in renamed.items()}

    # greedy1 and core on seeded binary queries
    shapes = (("bipartite", lambda i: inputs.bipartite_query(rng)),
              ("tree", lambda i: inputs.tree_query(rng)),
              ("odd_cycle", lambda i: inputs.rename(
                  inputs.odd_cycle_query(CLI_ODD_CYCLES[i]), rng)))
    for shape, make in shapes:
        for i in range(len(CLI_ODD_CYCLES)):
            q = make(i)
            path = qfile(f"{shape}{i}", q)
            if shape == "odd_cycle":
                cli("greedy1", shape, ["greedy1", "--query", path], 1)
            else:
                cli("greedy1", shape, ["greedy1", "--query", path], 0,
                    lambda w, q=q, shape=shape: _greedy_witness_ok(w, q, shape))
            cli("core", shape, ["core", "--query", path], 0,
                lambda w, q=q: _core_witness_ok(w, q))
    for name, q in renamed.items():
        cli("core", name, ["core", "--query", paths[name]], 0,
            lambda w, q=q: _core_witness_ok(w, q))

    # exists-over on the corpus; acyclic queries come back as their core,
    # fig1_q as the hexagon pair, the cyclic rest stays inconclusive
    for name, q in renamed.items():
        argv = ["exists-over", "--query", paths[name], "--cmax", "4"]
        if oracle.query_acyclic(q):
            cli("exists-over", name, argv, 0,
                lambda w, q=q: _equivalent_acyclic(_witness_query(w), q))
        elif name == "fig1_q":
            cli("exists-over", name, argv, 0,
                lambda w, q=q: _fig1_witness_ok(_witness_query(w), q, corpus["fig1_qprime"]))
        else:
            cli("exists-over", name, argv, 2)
    cli("exists-over", "triangle cmax=8",
        ["exists-over", "--query", paths["triangle"], "--cmax", "8"], 2)

    # identification and Δ-approximations on the worked examples
    cli("identify-over", "fig1", ["identify-over", "--query", paths["fig1_q"],
                                  "--candidate", paths["fig1_qprime"], "--k", "1"], 0)
    cli("identify-over", "fig1 reversed", ["identify-over", "--query", paths["fig1_qprime"],
                                           "--candidate", paths["fig1_q"], "--k", "1"], 1)
    for n in (2, 3, 4):
        qn = qfile(f"qn{n}", inputs.rename(plain(cq.gen_qn(n)), rng))
        qp = qfile(f"qprime{n}", inputs.rename(plain(cq.gen_qn_prime(n)), rng))
        qp_low = qfile(f"qprime{n - 1}", inputs.rename(plain(cq.gen_qn_prime(n - 1)), rng))
        cli("identify-over", f"qn:{n}", ["identify-over", "--query", qn,
                                         "--candidate", qp, "--k", "1"], 0)
        cli("identify-over", f"qn:{n} short", ["identify-over", "--query", qn,
                                               "--candidate", qp_low, "--k", "1"], 1)
    for n in (1, 2, 3):
        cli("identify-delta", f"nonunique_q{n}",
            ["identify-delta", "--query", paths["fig1_q"],
             "--candidate", paths[f"nonunique_q{n}"], "--k", "1"], 0)
    cli("identify-delta", "triangle/c2", ["identify-delta", "--query", paths["triangle"],
                                          "--candidate", paths["c2"], "--k", "1"], 0)
    cli("identify-delta", "triangle/loop", ["identify-delta", "--query", paths["triangle"],
                                            "--candidate", paths["loop"], "--k", "1"], 1)

    # width of the tournaments: the Gaifman graph is complete, so some bag
    # holds every node and ghw = ceil(nodes / 2)
    for k in range(3, 7):
        q = inputs.rename(plain(cq.gen_dagger(k).to_query()), rng)
        path = qfile(f"dagger{k}", q)
        ghw = math.ceil((k + 1) / 2)
        if ghw <= 3:
            cli("width", f"dagger:{k}", ["width", "--query", path, "--k", "3"], 0,
                lambda w, ghw=ghw: w.get("ghw") == ghw)
        else:
            cli("width", f"dagger:{k}", ["width", "--query", path, "--k", "3"], 1)

    _chase_ops(rng, files, qfile, cli)
    _eval_over_ops(seed, rng, files, qfile, cli, ops)
    return sched


def _greedy_witness_ok(w, q, shape):
    out = _witness_query(w)
    if shape == "bipartite":
        return len(out[1]) == 1 and len(set(out[1][0][1])) == 2
    return _equivalent_acyclic(out, q)


def _core_witness_ok(w, q):
    out = _witness_query(w)
    return set(out[1]) <= set(q[1]) and maps_into(q, out) and is_core(out)


def _equivalent_acyclic(out, q):
    return oracle.query_acyclic(out) and maps_into(out, q) and maps_into(q, out)


def _fig1_witness_ok(out, q, hexagon):
    return (oracle.query_acyclic(out) and maps_into(out, q)
            and maps_into(out, hexagon) and maps_into(hexagon, out))


def _chase_ops(rng, files, qfile, cli):
    tc = files.write("closure.deps", TC_DEPS)
    succ = files.write("successor.deps", SUCC_DEPS)
    fd = files.write("fd.deps", FD_DEPS)
    depth = str(CLI_CHASE_DEPTH)

    # transitive closure of a path with L arcs: every forward pair, L(L+1)/2 arcs
    for length in (rng.randint(3, 5), rng.randint(6, 8)):
        path = qfile(f"path{length}", inputs.path_query(length))
        closure = {("E", (f"p{i}", f"p{j}")) for i in range(length + 1)
                   for j in range(i + 1, length + 1)}
        cli("chase", f"closure L={length}", ["chase", "--query", path, "--deps", tc], 0,
            lambda w, closure=closure: set(_witness_query(w)[1]) == closure)
    # the successor tgd never terminates: one new arc per round up to the cap
    edge = qfile("edge", inputs.path_query(1))
    cli("chase", "successor", ["chase", "--query", edge, "--deps", succ,
                               "--max-depth", depth], 2,
        lambda w: len(_witness_query(w)[1]) == 1 + CLI_CHASE_DEPTH and not w["complete"])
    # the FD merges the third column per key: one value per group remains
    groups = rng.randint(2, 4)
    atoms = tuple(("R", (f"k{g}", f"y{g}_{i}", f"z{g}_{i}"))
                  for g in range(groups) for i in range(rng.randint(2, 3)))
    fdq = qfile("fd", ((), atoms))
    cli("chase", "fd", ["chase", "--query", fdq, "--deps", fd], 0,
        lambda w, groups=groups: len({a[1][2] for a in _witness_query(w)[1]}) == groups)

    # containment under the same dependencies
    anchored_path = qfile("anchored_path", (("p0", "p3"), inputs.path_query(3)[1]))
    anchored_edge = qfile("anchored_edge", (("p0", "p1"), inputs.path_query(1)[1]))
    cli("contains-under", "closure true", ["contains-under", "--query", anchored_path,
                                           "--candidate", anchored_edge, "--deps", tc], 0)
    cli("contains-under", "closure false", ["contains-under", "--query", anchored_edge,
                                            "--candidate", anchored_path, "--deps", tc], 1)
    short = qfile("path5", inputs.path_query(5))
    far = qfile("path24", inputs.path_query(CLI_CHASE_DEPTH + 8))
    cli("contains-under", "successor hit", ["contains-under", "--query", edge,
                                            "--candidate", short, "--deps", succ,
                                            "--max-depth", depth], 0)
    cli("contains-under", "successor capped", ["contains-under", "--query", edge,
                                               "--candidate", far, "--deps", succ,
                                               "--max-depth", depth], 2)
    fd_src = qfile("fd_src", (("x",), (("R", ("x", "y", "z")), ("R", ("x", "u", "w")),
                                       ("P", ("z",)), ("Q", ("w",)))))
    fd_yes = qfile("fd_yes", (("x",), (("R", ("x", "y", "z")), ("P", ("z",)), ("Q", ("z",)))))
    fd_no = qfile("fd_no", (("x",), (("R", ("x", "y", "z")), ("P", ("z",)), ("Q", ("y",)))))
    cli("contains-under", "fd true", ["contains-under", "--query", fd_src,
                                      "--candidate", fd_yes, "--deps", fd], 0)
    cli("contains-under", "fd false", ["contains-under", "--query", fd_src,
                                       "--candidate", fd_no, "--deps", fd], 1)


def _eval_over_ops(seed, rng, files, qfile, cli, ops):
    for size, (n_queries, n_probes) in CLI_EVAL_PLAN.items():
        facts = inputs.random_db(size, inputs.rng_for(seed, f"cli_db{size}"))
        dbpath = files.write(f"db{size}.facts", inputs.db_text(facts))
        index = oracle.Index(facts)
        shapes = inputs.rng_for(0, f"cli_shapes{size}")  # as in eval_db
        for qi in range(n_queries):
            query = inputs.random_query(shapes, qi % 2 == 1, 1 + qi % 2, 4 + qi % 3)
            path = qfile(f"eval{size}_{qi}", query)
            acyclic = oracle.query_acyclic(query)
            for ti, tup in enumerate(inputs.probe_tuples(query, facts, rng, n_probes)):
                argv = ["eval-over", "--query", path, "--db", dbpath,
                        "--tuple", ",".join(tup), "--k", "1", "--json"]
                exact = _lazy(lambda query=query, tup=tup, index=index:
                              oracle.holds(query, index, tup))
                ops.append(Op("eval-over", f"db={size} q={qi} t={ti}",
                              lambda argv=argv: run_cli(argv),
                              lambda got, exact=exact, acyclic=acyclic:
                                  _check_eval_over(got, exact(), acyclic)))


def _lazy(fn):
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _check_eval_over(result, exact, acyclic):
    code = result[0]
    if acyclic or exact:
        return _check_cli(result, 0 if exact else 1)
    return _check_cli(result, code) if code in (0, 1) else (False, False)


WORKLOADS = {
    "doubling": (build_doubling, "the paper's doubling family gen_qn/gen_qn_prime: few "
                 "large ops where the cover-game sweep and core's per-atom search dominate"),
    "eval_db": (build_eval_db, "many small queries against 1e2-1e4-fact databases: target "
                "indexing, game member enumeration and hom search dominate"),
    "cli_mix": (build_cli_mix, "millisecond ops through cli.main: parsing, reporting, width, "
                "the chase and the greedy path; the only workload that runs the chase"),
}
