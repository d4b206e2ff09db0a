"""Differential properties of the homomorphism engines and of satisfies.

- `_Target.join` lists exactly the homomorphisms the brute-force oracle
  finds, projected to the kept terms, each image once and, with the body
  matched as written, in the order the homomorphisms first reach it in
  lexicographic order of the facts matched (the order the chase names
  its nulls by), also when a second join reads indexes that a first
  built on the target;
- `evaluate` gives the brute-force answers, also with repeated head
  variables, head variables outside the body, empty bodies and Boolean
  heads, over databases that are empty or share no relation with the
  body;
- `_Search` returns a homomorphism the oracle finds, and None iff there
  is none; exhausted, it lists each of the oracle's homomorphisms once
  and leaves its state as it found it;
- `_Search` starts from the greatest arc-consistent state, as plain sets
  cut to a fixpoint find it: the same domains, the same live facts per
  atom and every support count;
- `satisfies` agrees with the brute-force trigger check;
- `_Search` pinned, in every group, with the variables of the atoms a
  query cannot lose lists exactly the solutions that fix them, after any
  drop; the drop tests keep their verdicts, and `core` its result;
- `core` is idempotent, equivalent to its input, and as small as the
  brute-force core;
- a complete `chase_tgds` result satisfies its tgds, and the chase is
  deterministic;
- `_full_reducer` agrees with the cover game and the brute-force oracle
  along join trees and along width-2 decompositions that need covers.
"""

import random
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cqapprox.constraints import Egd, Tgd, chase_tgds, satisfies  # noqa: E402
from cqapprox.hom import (  # noqa: E402
    _full_reducer,
    _groups,
    _Search,
    _Target,
    core,
    equivalent,
    evaluate,
)
from cqapprox.model import (  # noqa: E402
    Atom,
    ConjunctiveQuery,
    Const,
    Database,
    Var,
    canonical_database,
)

from cqapprox.pebble import wins_cover_game  # noqa: E402
from cqapprox.width import (  # noqa: E402
    TreeDecomposition,
    ghw1_membership,
    validate_decomposition,
)

from _oracles import (  # noqa: E402
    brute_core,
    brute_evaluate,
    brute_find_hom,
    brute_homs,
    brute_satisfies,
)
from _support import rand_anchored_pair, search_state  # noqa: E402

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


def anchors_of(draw, body, consts):
    """Up to two body variables mapped to constants, perhaps to one
    outside the facts."""
    body_vars = sorted({t for a in body for t in a.args})
    anchored = draw(st.lists(st.sampled_from(body_vars), unique=True, max_size=2))
    return {v: draw(st.sampled_from(consts + [OUTSIDE])) for v in anchored}


@st.composite
def join_cases(draw):
    """(body as written, facts in a drawn order, anchors). The body has
    up to 5 atoms over a ternary relation too, so that a variable often
    repeats inside one atom; when a variable is anchored, an atom over
    anchored variables alone may follow."""
    body = draw(atoms(VARS, 1, 5, TERNARY))
    facts = list(dict.fromkeys(draw(atoms(CONSTS, 0, 20, TERNARY))))
    anchors = anchors_of(draw, body, CONSTS)
    if anchors:
        body += draw(atoms(sorted(anchors), 0, 1, TERNARY))
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
    return body, facts, anchors_of(draw, body, CONSTS6)


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


def listed(text, terms):
    """Atoms from text such as 'E 0 1, T 1 2 0', each number a term's index."""
    return [
        Atom(rel, tuple(terms[int(k)] for k in args))
        for rel, *args in map(str.split, text.split(","))
    ]


DIFF = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def check_join(target, body, facts, anchors, keep):
    """`target.join` of the body as written, cut to the `keep` terms,
    lists the oracle's homs projected to `keep`, each image once, in the
    order the homs first reach it in lexicographic order of the facts
    matched."""
    found = [tuple(map(target.values.__getitem__, m)) for m in target.join(body, anchors, keep)]
    index = {f: n for n, f in enumerate(facts)}
    homs = sorted(
        oracle(body, facts, anchors),
        key=lambda h: [index[Atom(a.relation, tuple(h[t] for t in a.args))] for a in body],
    )
    assert found == list(dict.fromkeys(tuple(h[t] for t in keep) for h in homs))


@st.composite
def keep_cases(draw):
    """A join case whose facts hold the body's image under some
    extension of the anchors, and the terms to keep: none, a proper
    subset in any order, every term, or one term twice (as for an egd
    y = y)."""
    body, facts, anchors = draw(join_cases())
    h = {v: draw(st.sampled_from(CONSTS)) for v in VARS} | anchors
    facts = list(dict.fromkeys(facts + [Atom(a.relation, tuple(map(h.get, a.args))) for a in body]))
    terms = list(dict.fromkeys(t for a in body for t in a.args))
    kind = draw(st.sampled_from(("none", "some", "every", "twice")))
    if kind == "some":
        keep = draw(st.lists(st.sampled_from(terms), unique=True, max_size=len(terms) - 1))
    elif kind == "twice":
        keep = [draw(st.sampled_from(terms))] * 2
    else:
        keep = terms if kind == "every" else []
    return body, facts, anchors, keep


@DIFF
@given(keep_cases())
# u1 is cut after E: the first of the two partials with u0 = c0 stays,
# ahead of u0 = c1; with one atom, the images repeat until the end
@example((listed("E 0 1, P 0", VARS), listed("E 0 1, E 1 0, E 0 2, P 0, P 1", CONSTS), {},
          [VARS[0]]))
@example((listed("E 0 1", VARS), listed("E 0 1, E 0 2", CONSTS), {}, [VARS[0]]))
# a base value that no fact holds matches nothing; a base term that no
# atom holds is ignored, whatever its value
@example((listed("E 0 1", VARS), listed("E 0 1, E 1 2", CONSTS), {VARS[0]: OUTSIDE}, [VARS[1]]))
@example((listed("E 0 1", VARS), listed("E 0 1, E 1 2", CONSTS), {VARS[2]: OUTSIDE},
          VARS[:2]))
def test_join_finds_the_oracle_homs_in_fact_order(case):
    body, facts, anchors, keep = case
    check_join(_Target(facts), body, facts, anchors, keep)


@st.composite
def eval_cases(draw):
    """(query, database): up to 4 body atoms, perhaps none; up to 3 head
    variables with repeats, u3 never in the body; facts over some of E,
    P and T, perhaps none."""
    body = draw(atoms(VARS, 0, 4, TERNARY))
    head = draw(st.lists(st.sampled_from(VARS + [Var("u3")]), max_size=3))
    schema = draw(st.lists(st.sampled_from(TERNARY), min_size=1, unique=True))
    facts = draw(atoms(CONSTS, 0, 8, tuple(schema)))
    return ConjunctiveQuery(tuple(head), tuple(body)), Database(tuple(facts))


@DIFF
@given(eval_cases())
@example((ConjunctiveQuery((), ()), Database(())))
@example((ConjunctiveQuery((VARS[0], VARS[0]), ()), Database((Atom("P", (CONSTS[0],)),))))
@example((ConjunctiveQuery((VARS[1], Var("u3"), VARS[1]), tuple(listed("E 0 1", VARS))),
          Database(tuple(listed("E 0 1, E 1 1, P 2", CONSTS)))))
@example((ConjunctiveQuery((VARS[0],), tuple(listed("T 0 1 1", VARS))),
          Database(tuple(listed("E 0 1", CONSTS)))))
def test_evaluate_matches_the_oracle(case):
    q, db = case
    assert evaluate(q, db) == brute_evaluate(q, db)


@st.composite
def join_twice(draw):
    """A join case and a second set of anchors for the same body."""
    body, facts, anchors = draw(join_cases())
    return body, facts, anchors, anchors_of(draw, body, CONSTS)


@DIFF
@given(join_twice())
# the second join reads the first's index on E's first position, then its
# index on T's first position with the other two repeated; in the last,
# E(u0, u1) must not read the index that E(u0, u0) left
@example((listed("E 0 1, E 1 2", VARS), listed("E 0 1, E 1 2, E 1 0, E 2 2", CONSTS), {},
          {VARS[1]: CONSTS[1]}))
@example((listed("P 0, T 0 1 1", VARS), listed("P 0, P 1, T 0 1 1, T 0 1 2, T 0 2 2, T 1 1 1",
          CONSTS), {}, {VARS[0]: CONSTS[0]}))
@example((listed("E 0 0, E 0 1", VARS), listed("E 0 1, E 0 0, E 1 2", CONSTS), {}, {}))
def test_a_second_join_reads_the_indexes_of_the_first(case):
    """The body reversed, under other anchors: its atoms meet other bound
    patterns, and some of them the first join's. Indexes, once built, are
    kept as they are."""
    body, facts, anchors, again = case
    target = _Target(facts)
    every = list(dict.fromkeys(t for a in body for t in a.args))
    check_join(target, body, facts, anchors, every)
    built = dict(target.indexes)
    check_join(target, body[::-1], facts, again, every)
    assert all(target.indexes[k] is v for k, v in built.items())


@DIFF
@given(join_cases())
def test_search_first_solution_is_an_oracle_hom(case):
    body, facts, anchors = case
    first = next(_Search(body, anchors, _Target(facts)).solutions(), None)
    want = oracle(body, facts, anchors)
    assert (first is None) == (not want)
    assert first is None or first in want


@DIFF
@given(join_cases())
def test_search_lists_each_oracle_hom_once_and_restores_its_state(case):
    body, facts, anchors = case
    search = _Search(body, anchors, _Target(facts))
    before = search_state(search) if search.ok else None
    found = list(search.solutions())
    want = oracle(body, facts, anchors)
    assert sorted(sorted(h.items()) for h in found) == sorted(sorted(h.items()) for h in want)
    if search.ok:
        assert search_state(search) == before


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
        ids = search.sig[i].id_rows()
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
@given(queries(VARS5, 7))
def test_pins_keep_exactly_the_solutions_that_fix_them(q):
    # every group's search pinned with the variables of the atoms q cannot
    # lose lists the unpinned solutions that fix them, in the same order,
    # after any drop; the drop tests keep their verdicts; undo restores the
    # state; and core comes out as it does with no pins at all
    base = {v: v for v in q.free_vars}
    free = q.free_vars
    kept = [b for b in q.atoms if not brute_homs(q, free, q.without_atom(b), free)]
    pinned_terms = {t for b in kept for t in b.args}
    groups = _groups(q.atoms, base)
    plain, pinned = ([_Search(g, base, _Target(q)) for g in groups] for _ in range(2))
    for search in pinned:
        search.pin(pinned_terms)
    for a in [None, *q.atoms]:
        found = []
        for searches in (plain, pinned):
            found.append([])
            for search in searches:
                mark = len(search.trail)
                state = (list(map(bytes, search.dom)), list(search.size), list(search.pins))
                listed = list(search.solutions()) if a is None or search.drop(a) else []
                search.undo(mark)
                assert (list(map(bytes, search.dom)), list(search.size), list(search.pins)) == state
                found[-1].append(listed)
        for every, fixing in zip(*found):
            assert fixing == [h for h in every if all(h[t] == t for t in pinned_terms & h.keys())]
        if a is not None:
            assert all(found[0]) == all(found[1]), a
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Search, "pin", lambda self, terms: None)
        want = core(q)
    assert core(q) == want


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


def _star(q: ConjunctiveQuery) -> TreeDecomposition:
    """A root bag of every existential variable; under it a node per
    distinct existential term set of an atom, and under that one the same
    set without its least variable. The root has no atom of its own and
    needs a cover; a child without its own atom joins a cover projected."""
    evars = q.existential_vars
    parent, bags = {0: None}, {0: evars}
    for s in dict.fromkeys(a.arg_set & evars for a in q.atoms):
        if s:
            parent[n := len(parent)], bags[n] = 0, s
            if len(s) > 1:
                parent[n + 1], bags[n + 1] = n, s - {min(s)}
    return TreeDecomposition(parent, bags, 2)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_full_reducer_agrees_with_the_game_and_the_oracle(seed):
    """Along ghw1_membership's join tree, whose source the game at k = 1
    and 2 decides exactly, and along decompositions that validate at
    k = 2: one bag, and `_star`'s, whose root takes a two-atom cover."""
    q, src_t, db, tgt_t = rand_anchored_pair(random.Random(seed))
    want = brute_find_hom(q, src_t, db, tgt_t) is not None
    tree = ghw1_membership(q)
    if tree is not None:
        assert _full_reducer(q, src_t, db, tgt_t, tree) == want
        for k in (1, 2):
            assert wins_cover_game(q, src_t, db, tgt_t, k)[0] == want
    one = TreeDecomposition({0: None}, {0: q.existential_vars}, 2)
    for td in (one, _star(q)):
        if validate_decomposition(q, td, 2):
            assert _full_reducer(q, src_t, db, tgt_t, td) == want
            assert wins_cover_game(q, src_t, db, tgt_t, 2)[0] == want
