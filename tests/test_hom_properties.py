"""Differential properties of the homomorphism engines and of satisfies.

- `_Target.join` finds exactly the homomorphisms the brute-force oracle
  finds, and, with the body matched as written, in lexicographic order
  of the facts matched (the order the chase names its nulls by);
- `_Search` returns a homomorphism the oracle finds, and None iff there
  is none;
- `_Search` starts from the greatest arc-consistent state, as plain sets
  cut to a fixpoint find it: the same domains, the same live facts per
  atom and every support count;
- `satisfies` agrees with the brute-force trigger check;
- `core` is idempotent, equivalent to its input, and as small as the
  brute-force core;
- a complete `chase_tgds` result satisfies its tgds, and the chase is
  deterministic.
"""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cqapprox.constraints import Egd, Tgd, chase_tgds, satisfies  # noqa: E402
from cqapprox.hom import _Search, _Target, core, equivalent  # noqa: E402
from cqapprox.model import (  # noqa: E402
    Atom,
    ConjunctiveQuery,
    Const,
    Database,
    Var,
    canonical_database,
)

from _oracles import brute_core, brute_homs, brute_satisfies  # noqa: E402

SCHEMA = (("E", 2), ("P", 1))
TERNARY = SCHEMA + (("T", 3),)
VARS = [Var(f"u{i}") for i in range(3)]
CONSTS = [Const(f"c{i}") for i in range(3)]
OUTSIDE = Const("zz")  # a value no fact holds
VARS5 = [Var(f"u{i}") for i in range(5)]
CONSTS6 = [Const(f"c{i}") for i in range(6)]


def atoms(terms, min_size, max_size, schema=SCHEMA):
    def atom(rel):
        name, arity = rel
        return st.tuples(*[st.sampled_from(terms)] * arity).map(lambda a: Atom(name, a))

    return st.lists(st.sampled_from(schema).flatmap(atom), min_size=min_size, max_size=max_size)


@st.composite
def join_cases(draw):
    """(body as written, facts in a drawn order, anchors). The anchors
    map some body variables to constants, perhaps to one outside the
    facts."""
    body = draw(atoms(VARS, 1, 3))
    facts = list(dict.fromkeys(draw(atoms(CONSTS, 0, 7))))
    body_vars = sorted({t for a in body for t in a.args})
    anchored = draw(st.lists(st.sampled_from(body_vars), unique=True, max_size=2))
    anchors = {v: draw(st.sampled_from(CONSTS + [OUTSIDE])) for v in anchored}
    return body, facts, anchors


@st.composite
def search_cases(draw):
    """(source atoms, target facts, anchors) with a ternary relation.
    Every relation gets facts, over more constants than join_cases uses,
    so that atoms lose different shares of their values; the anchors are
    drawn as in join_cases."""
    body = draw(atoms(VARS5, 3, 7, TERNARY))
    facts = []
    for name, arity in TERNARY:
        row = st.tuples(*[st.sampled_from(CONSTS6)] * arity)
        n = len(CONSTS6) ** arity
        rows = draw(st.lists(row, unique=True, min_size=min(6, n), max_size=20))
        facts += [Atom(name, r) for r in rows]
    body_vars = sorted({t for a in body for t in a.args})
    anchored = draw(st.lists(st.sampled_from(body_vars), unique=True, max_size=2))
    anchors = {v: draw(st.sampled_from(CONSTS6 + [OUTSIDE])) for v in anchored}
    return body, facts, anchors


@st.composite
def dependencies(draw, egds=True):
    body = tuple(draw(atoms(VARS, 1, 2)))
    body_vars = sorted({t for a in body for t in a.args})
    if egds and draw(st.booleans()):
        return Egd(body, (draw(st.sampled_from(body_vars)), draw(st.sampled_from(body_vars))))
    return Tgd(body, tuple(draw(atoms(body_vars + [Var("z9")], 1, 2))))


@st.composite
def queries(draw, terms, max_atoms):
    """A query over the terms with at most one free variable."""
    body = draw(atoms(terms, 1, max_atoms))
    body_vars = sorted({t for a in body for t in a.args})
    free = draw(st.lists(st.sampled_from(body_vars), max_size=1))
    return ConjunctiveQuery(tuple(free), tuple(body))


def oracle(body, facts, anchors):
    free = tuple(anchors)
    source = ConjunctiveQuery(free, tuple(body))
    target = Database(tuple(facts))
    return brute_homs(source, free, target, tuple(anchors[v] for v in free))


def arc_consistent(body, facts, anchors):
    """The greatest arc-consistent state, with plain sets cut to a
    fixpoint: per atom the facts it may map to, per unanchored variable
    the values it may take. None on a wipe-out."""

    def fits(a, f):
        m = dict(anchors)
        pairs = zip(a.args, f.args)
        return f.relation == a.relation and all(m.setdefault(t, c) == c for t, c in pairs)

    live = [{f for f in facts if fits(a, f)} for a in body]
    adom = {c for f in facts for c in f.args}
    dom = {t: set(adom) for a in body for t in a.args if t not in anchors}
    changed = True
    while changed:
        changed = False
        for a, fs in zip(body, live):
            keep = {f for f in fs if all(c in dom[t] for t, c in zip(a.args, f.args) if t in dom)}
            for p, t in enumerate(a.args):
                if t in dom:
                    keep_t = dom[t] & {f.args[p] for f in keep}
                    changed |= keep_t != dom[t]
                    dom[t] = keep_t
            changed |= keep != fs
            fs &= keep
    if not all(live) or not all(dom.values()):
        return None
    return live, dom


DIFF = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@DIFF
@given(join_cases())
def test_join_finds_the_oracle_homs_in_fact_order(case):
    body, facts, anchors = case
    target = _Target(facts)
    slot = {}
    for a in body:
        for t in a.args:
            slot.setdefault(t, len(slot))
    start = [None] * len(slot)
    for v, c in anchors.items():
        start[slot[v]] = target.eid.get(c, -1)
    found = [
        {v: target.values[m[s]] for v, s in slot.items()}
        for m in target.join(body, slot, start)
    ]
    want = oracle(body, facts, anchors)
    assert {frozenset(h.items()) for h in found} == {frozenset(h.items()) for h in want}
    assert len(found) == len(want)
    index = {f: n for n, f in enumerate(facts)}
    order = [
        tuple(index[Atom(a.relation, tuple(h[t] for t in a.args))] for a in body)
        for h in found
    ]
    assert order == sorted(order)


@DIFF
@given(join_cases())
def test_search_first_solution_is_an_oracle_hom(case):
    body, facts, anchors = case
    first = next(_Search(body, anchors, _Target(facts)).solutions(), None)
    want = oracle(body, facts, anchors)
    assert (first is None) == (not want)
    assert first is None or first in want


def listed(text, terms):
    """Atoms from text such as 'E 0 1, T 1 2 0', each number a term's index."""
    return [
        Atom(rel, tuple(terms[int(k)] for k in args))
        for rel, *args in map(str.split, text.split(","))
    ]


@DIFF
@given(search_cases())
# the passes wipe out; AC-4 finishes after them; AC-4 wipes out after them
@example((listed("E 0 1, E 1 2, E 2 3", VARS5), listed("E 0 1, E 1 2", CONSTS6), {}))
@example((listed("E 0 1, E 1 0", VARS5), listed("E 0 3, E 2 4, E 4 4, E 3 2", CONSTS6), {}))
@example((
    listed("T 0 1 2, T 2 0 1", VARS5),
    listed("T 0 4 5, T 3 5 1, T 5 4 4, T 4 1 4, T 1 1 5, T 3 0 3, T 0 5 3, T 0 1 5", CONSTS6),
    {},
))
def test_search_starts_from_the_greatest_arc_consistent_state(case):
    body, facts, anchors = case
    search = _Search(body, anchors, _Target(facts))
    want = arc_consistent(body, facts, anchors)
    assert search.ok == (want is not None)
    if want is None:
        return
    live, dom = want
    values = search.values
    assert {
        v: {values[d] for d, on in enumerate(search.dom[k]) if on}
        for k, v in enumerate(search.vars)
    } == dom
    for i, a in enumerate(body):
        ids = search.sig[i].ids
        held = [
            Atom(a.relation, tuple(values[x] for x in ids[r]))
            for r, on in enumerate(search.alive[i]) if on
        ]
        assert sorted(held) == sorted(live[i])
        for j, v in enumerate(search.slots[i]):
            p = a.args.index(search.vars[v])
            counts = {values[d]: c for d, c in enumerate(search.counts[i][j]) if c}
            assert counts == Counter(f.args[p] for f in live[i])


@DIFF
@given(atoms(CONSTS, 1, 7), st.lists(dependencies(), min_size=1, max_size=3))
def test_satisfies_matches_the_oracle(facts, deps):
    db = Database(tuple(facts))
    assert satisfies(db, deps) == brute_satisfies(db, deps)


@DIFF
@given(queries(VARS + [Var("u3")], 6))
def test_core_is_an_idempotent_equivalent_minimum(q):
    c = core(q)
    assert core(c) == c
    assert equivalent(c, q)
    assert len(c.atoms) == len(brute_core(q).atoms)


@DIFF
@given(queries(VARS, 3), st.lists(dependencies(egds=False), min_size=1, max_size=2))
def test_complete_chase_satisfies_its_tgds(q, tgds):
    res = chase_tgds(q, tgds, max_depth=3)
    again = chase_tgds(q, tgds, max_depth=3)
    assert (again.query, again.complete) == (res.query, res.complete)
    if res.complete:
        assert brute_satisfies(canonical_database(res.query)[0], tgds)
