"""Differential properties of the cover game, on small generated instances.

- c-round Duplicator wins are exactly the homomorphisms out of the
  unrolling q_c (c ≥ 1), the paper's correspondence;
- the unbounded game agrees with the explicit configuration-graph oracle.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqapprox import pebble  # noqa: E402
from cqapprox.hom import find_hom  # noqa: E402
from cqapprox.model import Atom, ConjunctiveQuery, Const, Database, Var  # noqa: E402

from _oracles import oracle_wins_unbounded  # noqa: E402

SCHEMA = (("E", 2), ("P", 1))


def walk(terms, closed):
    """E atoms along `terms`, back to the first one if `closed`."""
    ends = terms[1:] + terms[:1] if closed else terms[1:]
    return [Atom("E", pair) for pair in zip(terms, ends)]


def extra_atoms(terms, max_size, schema=SCHEMA):
    def atom(rel):
        name, arity = rel
        args = st.tuples(*[st.sampled_from(terms)] * arity)
        return args.map(lambda a: Atom(name, a))

    return st.lists(st.sampled_from(schema).flatmap(atom), max_size=max_size)


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
