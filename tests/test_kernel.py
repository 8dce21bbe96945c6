"""The expansion kernel must agree with the reference one-step semantics."""

import random

from igkit import fixture_text, kernel
from igkit.engine import Budget, CompiledGrammar
from igkit.grammar import parse_grammar, successors


def build(name="twin.ig"):
    g = parse_grammar(fixture_text(name))
    return g, CompiledGrammar(g)


# the subtree order under this width cap: forms carry WIDTH depth values
WIDTH = 3


def random_forms(g, c, rng, count=60, subtrees=False):
    forms = [c.start()]
    pool = [c.start()]
    budget = Budget(max_steps=1, max_width=WIDTH if subtrees else None)
    for _ in range(count):
        base = rng.choice(pool)
        succ = c.expand(base, budget, max_terms=30, subtrees=subtrees)
        if succ:
            nxt = rng.choice(succ)[2]
            pool.append(nxt)
            forms.append(nxt)
    return forms


def call(impl, c, form, **kw):
    args = dict(max_width=-1, max_stack=-1, max_terms=-1, leftmost=0, depths=0)
    args.update(kw)
    return impl.expand(
        form, c.by_var, c.prods, c.nv,
        c.pool_top, c.pool_rest, c.pool_depth, c.intern,
        args["max_width"], args["max_stack"], args["max_terms"],
        args["leftmost"], args["depths"],
    )


def test_kernel_matches_reference_semantics():
    g, c = build("ramp.ig")
    rng = random.Random(3)
    for form in random_forms(g, c, rng, count=30):
        got = [
            (pos, pid, c.decode_form(f2))
            for pos, pid, f2 in call(kernel, c, form)
        ]
        decoded = c.decode_form(form)
        want = [
            (pos, g.productions.index(p), out) for pos, p, out in successors(g, decoded)
        ]
        assert got == want
        first = decoded.var_positions()[:1]
        got = [
            (pos, pid, c.decode_form(f2))
            for pos, pid, f2 in call(kernel, c, form, leftmost=1)
        ]
        assert got == [t for t in want if t[0] in first]
    # subtree order: the successors at the deepest sibling group within the
    # width cap; the children open a group one deeper, unless the rewritten
    # variable was the last of its group
    for form in random_forms(g, c, rng, count=30, subtrees=True):
        depth = {i: x // c.nv % WIDTH for i, x in enumerate(form) if x >= 0}
        top = max(depth.values())
        group = [i for i, d in depth.items() if d == top]
        child = top + 1 if len(group) > 1 else top
        decoded = c.decode_form(form, WIDTH)
        want = [(pos, g.productions.index(p), out) for pos, p, out in successors(g, decoded)
                if pos in group and out.width() <= WIDTH]
        got = call(kernel, c, form, max_width=WIDTH, depths=WIDTH)
        assert [(pos, pid, c.decode_form(f2, WIDTH)) for pos, pid, f2 in got] == want
        for pos, pid, f2 in got:
            n = len(f2) - len(form) + 1
            assert [x // c.nv % WIDTH for x in f2[pos:pos + n] if x >= 0] == \
                [child] * sum(1 for x in f2[pos:pos + n] if x >= 0)
            assert f2[:pos] == form[:pos] and f2[pos + n:] == form[pos + 1:]

