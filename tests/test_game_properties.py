"""Differential properties of the cover game, on small generated instances.

- c-round Duplicator wins are exactly the homomorphisms out of the
  unrolling q_c (c ≥ 1), the paper's correspondence;
- the unbounded game agrees with the explicit configuration-graph oracle;
- the game starts, union by union, from exactly the partial homs that
  the oracle lists, with anchors and a ternary relation in play;
- the overlap-pruned unrolling that exists_overapprox builds is
  homomorphically equivalent to the full one, carries a width-k
  decomposition, and emits no more atoms than the full one.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqapprox import pebble  # noqa: E402
from cqapprox.hom import find_hom  # noqa: E402
from cqapprox.width import TreeDecomposition, validate_decomposition  # noqa: E402
from cqapprox.model import Atom, ConjunctiveQuery, Const, Database, Var  # noqa: E402

from _oracles import game_configs, oracle_wins_unbounded  # noqa: E402

SCHEMA = (("E", 2), ("P", 1))
TERNARY = SCHEMA + (("T", 3),)


def walk(terms, closed):
    """E atoms along `terms`, back to the first one if `closed`."""
    ends = terms[1:] + terms[:1] if closed else terms[1:]
    return [Atom("E", pair) for pair in zip(terms, ends)]


def extra_atoms(terms, max_size, schema=SCHEMA, min_size=0):
    def atom(rel):
        name, arity = rel
        args = st.tuples(*[st.sampled_from(terms)] * arity)
        return args.map(lambda a: Atom(name, a))

    return st.lists(st.sampled_from(schema).flatmap(atom), min_size=min_size, max_size=max_size)


@st.composite
def instances(draw):
    """(query, database, anchor image, k). The query is a directed path of
    2 to 4 atoms plus at most one random E atom, with at most one free
    variable; the database a directed path or cycle on 2 to 4 constants
    plus at most two random atoms. A path into a shorter path is lost
    only after a number of rounds that grows with the lengths, so the
    level reached matters."""
    xs = [Var(f"x{i}") for i in range(draw(st.integers(3, 5)))]
    q_atoms = walk(xs, False) + draw(extra_atoms(xs, 1, (("E", 2),)))
    head = draw(st.lists(st.sampled_from(xs), max_size=1))
    q = ConjunctiveQuery(tuple(head), tuple(q_atoms))
    cs = [Const(f"c{i}") for i in range(draw(st.integers(2, 4)))]
    db = Database(tuple(walk(cs, draw(st.booleans())) + draw(extra_atoms(cs, 2))))
    tgt = tuple(draw(st.sampled_from(cs)) for _ in q.free_vars)
    return q, db, tgt, draw(st.integers(1, 2))


DIFF = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@DIFF
@given(instances())
def test_bounded_wins_are_homs_from_the_unrolling(inst):
    q, db, tgt, k = inst
    for c in (1, 2, 3):
        qc = pebble.unroll(q, k, c, budget=None)
        assert pebble.wins_bounded(q, q.free_vars, db, tgt, k, c) == (
            find_hom(qc, qc.free_vars, db, tgt) is not None
        ), c


@DIFF
@given(instances())
def test_unbounded_game_matches_configuration_oracle(inst):
    q, db, tgt, k = inst
    won, family = pebble.wins_cover_game(q, q.free_vars, db, tgt, k)
    assert won == oracle_wins_unbounded(q, q.free_vars, db, tgt, k)
    assert (family is not None) == won


@st.composite
def anchored_instances(draw):
    """(query, database, anchor image, k). The query has 2 to 4 random
    atoms over E, P and T on 4 variables and one or two free variables,
    often held by an atom of their own, which then lies in every union
    without being its witness. The database has 8 to 16 random facts on 3
    constants; the image now and then uses a fourth that no fact holds."""
    xs = [Var(f"x{i}") for i in range(4)]
    q_atoms = draw(extra_atoms(xs, 4, TERNARY, min_size=2))
    used = sorted({t for a in q_atoms for t in a.args})
    head = draw(st.lists(st.sampled_from(used), min_size=1, max_size=2, unique=True))
    q_atoms += draw(extra_atoms(head, 1, TERNARY))
    q = ConjunctiveQuery(tuple(head), tuple(q_atoms))
    cs = [Const(f"c{i}") for i in range(3)]
    db = Database(tuple(draw(extra_atoms(cs, 16, TERNARY, min_size=8))))
    tgt = tuple(draw(st.sampled_from(cs * 4 + [Const("c9")])) for _ in head)
    return q, db, tgt, draw(st.integers(1, 2))


@DIFF
@given(anchored_instances())
def test_game_starts_from_every_partial_hom(inst):
    q, db, tgt, k = inst
    game = pebble._Game(q, q.free_vars, db, tgt, k)
    unions, configs, base = game_configs(q, q.free_vars, db, tgt, k)
    assert game.anchors_ok == (base is not None)
    if base is None:
        return
    assert [u.vars for u in game.unions] == unions
    for members, want in zip(game.family().members, configs.values()):
        assert sorted(tuple(sorted(m.items())) for m in members) == sorted(want)


@st.composite
def queries(draw):
    """A directed path or cycle on 2 to 4 variables plus at most two
    random atoms (a ternary one among them), with 0 to 2 free variables."""
    xs = [Var(f"x{i}") for i in range(draw(st.integers(2, 4)))]
    atoms = walk(xs, draw(st.booleans())) + draw(extra_atoms(xs, 2, TERNARY))
    head = draw(st.lists(st.sampled_from(xs), max_size=2, unique=True))
    return ConjunctiveQuery(tuple(head), tuple(atoms))


def emitted(qc, td, anchors) -> int:
    """Atoms the builder emitted before deduplication: a node emits the
    atoms of q_c whose unanchored arguments lie in its bag."""
    return sum(
        sum(1 for a in qc.atoms if set(a.args) - anchors <= bag)
        for node, bag in td.bags.items()
        if td.parent[node] is not None
    )


@DIFF
@given(queries(), st.integers(1, 2))
def test_pruned_unrolling_is_equivalent_to_the_full_one(q, k):
    pruned = pebble._Tree(q, k, pruned=True)
    anchors = set(q.free_vars)
    for c in (1, 2, 3):
        if pebble.unroll_size(q, k, c) > 3_000:
            break
        full = pebble.unroll(q, k, c, budget=None)
        pruned.grow()
        qc, td = pruned.query(), TreeDecomposition(pruned.parent, pruned.bags, k)
        assert find_hom(full, full.free_vars, qc, qc.free_vars) is not None, c
        assert find_hom(qc, qc.free_vars, full, full.free_vars) is not None, c
        assert validate_decomposition(qc, td, k), c
        assert pebble.wins_cover_game(q, q.free_vars, qc, qc.free_vars, k)[0] == (
            pebble.wins_cover_game(q, q.free_vars, full, full.free_vars, k)[0]
        ), c
        assert emitted(qc, td, anchors) <= pebble.unroll_size(q, k, c), c
