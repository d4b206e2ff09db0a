"""The homomorphism toolbox returns the stored golden witnesses exactly.

`golden_hom.json` was written by `tests/_golden.py` with the AC-3
search engine that preceded support counting; the witnesses are a
function of the branching rule, so any engine that keeps that rule must
reproduce them byte for byte.
"""

import json

from _golden import GOLDEN, records


def test_witnesses_match_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = records()
    assert [r["id"] for r in got] == [r["id"] for r in want]
    differ = [g["id"] for g, w in zip(got, want) if g != w]
    assert not differ, f"witnesses changed for {differ[:10]}"
