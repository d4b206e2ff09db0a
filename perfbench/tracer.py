"""Span tracing of the public cqapprox functions, from outside the package.

``Tracer.install`` replaces each traced function in every ``cqapprox``
module namespace that binds it (``from ... import`` copies a binding, so
patching only the defining module would miss e.g. ``cqapprox.cli.core``)
and ``uninstall`` puts every original back. Spans are kept in memory as
``[name, start, end, parent, op_id, outcome]`` lists; ``outcome`` is a
small per-function summary of the result (a hit, a win, a size) from
which the per-layer counters are derived.
"""

from __future__ import annotations

import json
import sys
import time

# module -> traced public functions (the approx list is every entry point
# the package re-exports from approx)
TARGETS = {
    "model": ("parse_query", "parse_database", "serialize_query"),
    "hom": ("find_hom", "core", "contains", "evaluate", "endomorphisms"),
    "pebble": ("wins_cover_game", "wins_bounded", "constrained_wins_1",
               "k_unions", "unroll"),
    "width": ("ghw1_membership", "compute_ghw", "validate_decomposition"),
    "approx": ("certify_overapprox", "eval_delta_filtered", "eval_overapprox",
               "exists_overapprox", "greedy_ghw1_overapprox", "hash_query",
               "identify_delta", "identify_overapprox", "swapping_endomorphism",
               "symmetric_difference_eval"),
    "constraints": ("chase_tgds", "chase_egds", "satisfies", "contains_under",
                    "eval_overapprox_under", "parse_dependencies"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)
OP_SPAN = "op"
GAMES = ("pebble.wins_cover_game", "pebble.constrained_wins_1", "pebble.wins_bounded")

NAME, START, END, PARENT, OP, OUTCOME = range(6)


def _outcome(name, args, result):
    """What the counters need from one call's result."""
    if name == "hom.find_hom" or name == "width.ghw1_membership":
        return result is not None
    if name == "pebble.wins_cover_game":
        won, family = result
        return sum(len(ms) for ms in family.members) if won else None
    if name == "pebble.k_unions":
        return len(result)
    if name == "pebble.unroll":
        return len(result.atoms)
    if name == "constraints.chase_tgds":
        return (len(result.query.atoms) - len(args[0].atoms), result.complete)
    if name == "model.parse_database":
        return len(result.facts)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # --- bindings -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[OUTCOME] = _outcome(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, names in TARGETS.items():
            mod = sys.modules[f"cqapprox.{module}"]
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fname}", fn))
        for modname, mod in sorted(cqapprox_modules().items()):
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # --- spans --------------------------------------------------------------

    def call_op(self, op_id, call):
        """Run one op under an ``op`` span; returns (start, end, result, error)."""
        self._op = op_id
        idx = len(self.spans)
        span = [OP_SPAN, 0.0, 0.0, -1, op_id, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = t0 = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # the harness counts it as a failed op
            result, error = None, exc
        span[END] = t1 = time.perf_counter()
        self._stack.pop()
        self._op = -1
        return t0, t1, result, error

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def cqapprox_modules() -> dict:
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "cqapprox" or name.startswith("cqapprox."))
    }


def bindings() -> dict:
    """Every (module, attribute) -> object in the cqapprox namespaces."""
    return {
        (name, attr): val
        for name, mod in cqapprox_modules().items()
        for attr, val in vars(mod).items()
    }


def _ancestor(spans, idx, names):
    p = spans[idx][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return p
        p = spans[p][PARENT]
    return -1


def layer_metrics(tracer: Tracer, passes: int, ops_per_s: float) -> dict:
    """The per-layer metrics, as name -> (value, unit, better): calls and
    self time per traced function and the layer counters, all per pass of
    the op schedule; the traced throughput; and the share of op time spent
    in hom.core and pebble.wins_cover_game, as self time and as the
    inclusive time of their outermost calls."""
    spans = tracer.spans
    selfs = tracer.self_times()
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        if s[NAME] in calls:
            calls[s[NAME]] += 1
            self_s[s[NAME]] += selfs[i]

    def outcomes(name):
        return [spans[i][OUTCOME] for i in by_name.get(name, ())]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (calls[name] / passes, "calls/pass", "lower")
        m[f"{name}.self_s"] = (self_s[name] / passes, "s/pass", "lower")

    fh = outcomes("hom.find_hom")
    m["hom.find_hom.hit_ratio"] = (ratio(sum(fh), len(fh)), "ratio", "higher")
    nested = [spans[i][OUTCOME] for i in by_name.get("hom.find_hom", ())
              if _ancestor(spans, i, ("hom.core",)) >= 0]
    m["hom.core.retract_ratio"] = (ratio(sum(nested), len(nested)), "ratio", "higher")

    games = outcomes("pebble.wins_cover_game")
    wins = [g for g in games if g is not None]
    m["pebble.k_unions.unions"] = (sum(outcomes("pebble.k_unions")) / passes,
                                   "unions/pass", "lower")
    m["pebble.wins_cover_game.win_ratio"] = (ratio(len(wins), len(games)),
                                             "ratio", "higher")
    m["pebble.wins_cover_game.members"] = (sum(wins) / passes, "members/pass", "lower")
    m["pebble.unroll.atoms"] = (sum(outcomes("pebble.unroll")) / passes,
                                "atoms/pass", "lower")

    acyc = outcomes("width.ghw1_membership")
    m["width.ghw1_membership.acyclic_ratio"] = (ratio(sum(acyc), len(acyc)),
                                                "ratio", "higher")

    def nested_per_call(parent, children):
        n = sum(1 for c in children for i in by_name.get(c, ())
                if _ancestor(spans, i, (parent,)) >= 0)
        return ratio(n, calls[parent])

    m["approx.exists_overapprox.depth"] = (
        nested_per_call("approx.exists_overapprox", ("pebble.unroll",)),
        "unrolls/call", "lower")
    m["approx.greedy_ghw1_overapprox.games"] = (
        nested_per_call("approx.greedy_ghw1_overapprox", GAMES), "games/call", "lower")

    chase = outcomes("constraints.chase_tgds")
    m["constraints.chase_tgds.atoms_added"] = (sum(a for a, _ in chase) / passes,
                                               "atoms/pass", "lower")
    m["constraints.chase_tgds.complete_ratio"] = (
        ratio(sum(1 for _, c in chase if c), len(chase)), "ratio", "higher")

    parse = by_name.get("model.parse_database", ())
    facts = sum(spans[i][OUTCOME] for i in parse)
    m["model.parse.facts_per_s"] = (ratio(facts, sum(selfs[i] for i in parse)),
                                    "facts/s", "higher")

    op_time = sum(spans[i][END] - spans[i][START] for i in by_name.get(OP_SPAN, ()))

    def incl(name):
        return sum(spans[i][END] - spans[i][START] for i in by_name.get(name, ())
                   if _ancestor(spans, i, (name,)) < 0)

    m["trace.ops_per_s"] = (ops_per_s, "1/s", "higher")
    m["trace.core_game_self_share"] = (
        ratio(self_s["hom.core"] + self_s["pebble.wins_cover_game"], op_time),
        "ratio", "lower")
    m["hom.core.incl_share"] = (ratio(incl("hom.core"), op_time), "ratio", "lower")
    m["pebble.wins_cover_game.incl_share"] = (
        ratio(incl("pebble.wins_cover_game"), op_time), "ratio", "lower")
    return m
