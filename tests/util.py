"""Shared helpers: fixture loading, enumeration as sets of rendered words,
and brute-force oracles for the closure constructions."""

from dataclasses import replace
from itertools import product

from igkit import fixture_text
from igkit.engine import Budget, enumerate_language
from igkit.grammar import parse_grammar


# counts to 6 on silent moves, then back to 0: accepts exactly the empty word
SILENT_SIX = (
    "ncm six\nstates: s0, s1, s2, s3, s4, s5, s6, d, f\nalphabet: a\ncounters: 1\n"
    "reversals: 1\ninitial: s0\nhalt: f\ntrans: s0, _, tests(z) -> s1, deltas(+)\n"
    + "".join(f"trans: s{i}, _, tests(p) -> s{i + 1}, deltas(+)\n" for i in range(1, 6))
    + "trans: s6, _, tests(p) -> d, deltas(-)\ntrans: d, _, tests(p) -> d, deltas(-)\n"
    "trans: d, _, tests(z) -> f, deltas(0)\n"
)


# A width cap that cannot bind: the search tries every rewrite order, as it does
# under any width cap, where a budget without one follows leftmost derivations.
ALL_ORDERS = 10**9


def all_orders(budget):
    """The budget on the all-orders search, the oracle of the leftmost one."""
    return budget if budget.max_width is not None else replace(budget, max_width=ALL_ORDERS)


def load(name):
    return parse_grammar(fixture_text(name))


def enum_set(g, max_len, steps=400, stack=None, width=None):
    res = enumerate_language(
        g, max_len, Budget(max_steps=steps, max_stack=stack, max_width=width)
    )
    assert res.exhausted, f"enumeration of {g.name} not exhausted; raise the budget"
    return set(res.rendered())


def words_upto(alphabet, n):
    for ln in range(n + 1):
        for tup in product(alphabet, repeat=ln):
            yield "".join(tup)


def interleavings(word, pads, max_len):
    """Every string whose pad-erasure is `word`, padding drawn from `pads`,
    length at most max_len (pads may be empty strings of padding anywhere)."""
    out = set()

    def rec(prefix, rest):
        if len(prefix) > max_len:
            return
        if not rest:
            out.add(prefix)
            for c in pads:
                rec(prefix + c, rest)
            return
        rec(prefix + rest[0], rest[1:])
        for c in pads:
            rec(prefix + c, rest)

    rec("", word)
    return out
