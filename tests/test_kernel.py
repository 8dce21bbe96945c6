"""The expansion kernel must agree with the reference one-step semantics."""

import random
from itertools import product

from igkit import fixture_text, kernel
from igkit.engine import Budget, CompiledGrammar
from igkit.grammar import parse_grammar

from util import ALL_ORDERS, successors, var_positions


def build(name="twin.ig"):
    g = parse_grammar(fixture_text(name))
    return g, CompiledGrammar(g)


# the subtree order under this width cap: forms carry WIDTH depth values
WIDTH = 3


def random_forms(g, c, rng, count=60, width=None):
    """Forms the engine stores: leftmost without a width cap, in subtree
    order with one."""
    forms = [c.start()]
    pool = [c.start()]
    budget = Budget(max_steps=1, max_width=width)
    for _ in range(count):
        base = rng.choice(pool)
        succ = c.expand(base, budget, 30)
        if succ:
            nxt = rng.choice(succ)[2]
            pool.append(nxt)
            forms.append(nxt)
    return forms


def call(c, form, max_width=ALL_ORDERS, depths=0):
    """kernel.expand without stack or terminal caps; by default every order."""
    return kernel.expand(c, form, max_width, -1, -1, depths)


def test_kernel_matches_reference_semantics():
    g, c = build("ramp.ig")
    rng = random.Random(3)
    for form in random_forms(g, c, rng, count=30):
        got = [
            (pos, pid, c.decode_form(f2))
            for pos, pid, f2 in call(c, form)
        ]
        decoded = c.decode_form(form)
        want = [
            (pos, g.productions.index(p), out) for pos, p, out in successors(g, decoded)
        ]
        assert got == want
        first = var_positions(decoded)[:1]
        got = [
            (pos, pid, c.decode_form(f2))
            for pos, pid, f2 in call(c, form, max_width=-1)
        ]
        assert got == [t for t in want if t[0] in first]
    # subtree order: the successors at the deepest sibling group within the
    # width cap; the children open a group one deeper, unless the rewritten
    # variable was the last of its group
    for form in random_forms(g, c, rng, count=30, width=WIDTH):
        depth = {i: x // c.nv % WIDTH for i, x in enumerate(form) if x >= 0}
        top = max(depth.values())
        group = [i for i, d in depth.items() if d == top]
        child = top + 1 if len(group) > 1 else top
        decoded = c.decode_form(form, WIDTH)
        want = [(pos, g.productions.index(p), out) for pos, p, out in successors(g, decoded)
                if pos in group and out.width() <= WIDTH]
        got = call(c, form, max_width=WIDTH, depths=WIDTH)
        assert [(pos, pid, c.decode_form(f2, WIDTH)) for pos, pid, f2 in got] == want
        for pos, pid, f2 in got:
            n = len(f2) - len(form) + 1
            assert [x // c.nv % WIDTH for x in f2[pos:pos + n] if x >= 0] == \
                [child] * sum(1 for x in f2[pos:pos + n] if x >= 0)
            assert f2[:pos] == form[:pos] and f2[pos + n:] == form[pos + 1:]



def test_words_that_swap_letters_hash_apart():
    # the search keys its dicts and sets by encoded forms; codes -1 and -2
    # hash alike, so the 511 words of length <= 8 over {a, b} had 9 hashes
    _, c = build("sigmastar_ab.ig")
    words = [w for n in range(9) for w in product("ab", repeat=n)]
    assert len({hash(c.encode_word(w)) for w in words}) == len(words) == 511
