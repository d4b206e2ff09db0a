"""Golden witnesses of the homomorphism toolbox on a fixed seeded corpus.

`records()` recomputes, for every corpus case, the core, the find_hom
mappings and the endomorphism sequence, all serialized to strings, so a
change to the search engine can be checked to return byte-identical
witnesses. Regenerate the stored file (only when a witness change is
intended) with

    PYTHONPATH=src python tests/_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from cqapprox.gen import corpus, gen_qn, gen_qn_prime
from cqapprox.hom import core, endomorphisms, find_hom
from cqapprox.model import (
    ConjunctiveQuery,
    serialize_database,
    serialize_query,
)
from cqapprox.pebble import unroll

sys.path.insert(0, str(Path(__file__).parent))
from _support import (  # noqa: E402
    rand_anchored_pair,
    rand_binary_boolean_cq,
    rand_cq,
)

GOLDEN = Path(__file__).with_name("golden_hom.json")


def _mapping(h) -> str | None:
    if h is None:
        return None
    return " ".join(f"{k!r}={v!r}" for k, v in sorted(h.mapping.items()))


def _digest(lines) -> dict:
    lines = ["-" if line is None else line for line in lines]
    return {
        "count": len(lines),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def _query_case(name: str, q: ConjunctiveQuery, drops: bool, endos: bool) -> dict:
    """core(q), q's hom into its core, and optionally q's homs into each
    one-atom-smaller query (the searches a retraction scan runs) and the
    full endomorphism sequence; long lists are kept as digests."""
    c = core(q)
    drop_homs = []
    for a in q.atoms if drops else ():
        smaller = q.without_atom(a)
        drop_homs.append(_mapping(find_hom(q, q.free_vars, smaller, smaller.free_vars)))
    return {
        "id": name,
        "input": serialize_query(q),
        "core": serialize_query(c),
        "into_core": _mapping(find_hom(q, q.free_vars, c, c.free_vars)),
        "drops": _digest(drop_homs) if drops else None,
        "endos": _digest(_mapping(h) for h in endomorphisms(q)) if endos else None,
    }


def _pair_case(name: str, src, src_t, tgt, tgt_t) -> dict:
    show = serialize_query if isinstance(tgt, ConjunctiveQuery) else serialize_database
    return {
        "id": name,
        "input": f"{serialize_query(src)} | {show(tgt)} | {src_t!r} -> {tgt_t!r}",
        "hom": _mapping(find_hom(src, src_t, tgt, tgt_t)),
    }


def records() -> list[dict]:
    out = []
    rng = random.Random(4242)
    for i in range(150):
        q = rand_cq(rng, max_atoms=6, n_free=rng.choice((0, 0, 1, 2)))
        out.append(_query_case(f"rand_cq/{i}", q, True, True))
    for i in range(80):
        out.append(_query_case(f"rand_binary/{i}", rand_binary_boolean_cq(rng), True, True))
    for i in range(200):
        q, src_t, db, tgt_t = rand_anchored_pair(rng)
        out.append(_pair_case(f"anchored/{i}", q, src_t, db, tgt_t))
    for i in range(120):
        q1, q2 = rand_cq(rng), rand_cq(rng)
        out.append(_pair_case(f"cq_pair/{i}", q1, (), q2, ()))
    for n in range(1, 6):
        out.append(_query_case(f"qprime/{n}", gen_qn_prime(n), True, n <= 3))
    for n in (2, 3):
        for c in (2, 3):
            qc = unroll(gen_qn(n), 1, c)
            small = len(qc.atoms) <= 64
            out.append(_query_case(f"unroll/{n}/{c}", qc, small, (n, c) == (2, 2)))
            out.append(_pair_case(f"unroll_into/{n}/{c}", qc, (), gen_qn(n), ()))
    for name, q in sorted(corpus().items()):
        if isinstance(q, ConjunctiveQuery):
            out.append(_query_case(f"corpus/{name}", q, True, True))
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=0) + "\n")
    print(f"wrote {GOLDEN}")
