"""Scripted derivations replayed step by step through apply_production:
the canonical push/spread/consume runs of the bundled grammars and of the
synthesizer output, checked against their expected yields and widths."""

from igkit import fixture_text
from igkit.grammar import Derivation, SententialForm, Var, parse_grammar, replay
from igkit.semilinear import GinsburgShape, LinearSet, ginsburg_apply, linear_to_grammar

from util import special_count, var_positions


def drive(g, script):
    """Apply (production index, item position) moves from the start form."""
    from igkit.grammar import apply_production, start_form

    form = start_form(g)
    forms = [form]
    for pid, pos in script:
        form = apply_production(g, form, pos, g.productions[pid])
        forms.append(form)
    return Derivation(tuple(forms), tuple(script))


def test_twin_scripted_run_for_n_2():
    g = parse_grammar(fixture_text("twin.ig"))
    # file order: 0 = push bottom, 1 = push f, 2 = spread,
    # 3..9 = X1..X7 consuming f, 10..16 = X1..X7 consuming the bottom
    script = [(0, 0), (1, 0), (1, 0), (2, 0)]
    for block in range(7):
        script += [(3 + block, block), (3 + block, block), (10 + block, block)]
    d = drive(g, rewire(g, script))
    assert replay(g, d).is_terminal()
    assert "".join(d.forms[-1].yield_word()) == "aabbcc$aabbcc"
    assert d.index() == 7
    assert special_count(g, d) == 1


def rewire(g, script):
    """Replace the intended variable slots with concrete item positions: each
    step applies its production at the leftmost occurrence it fits."""
    from igkit.grammar import apply_production, start_form

    form = start_form(g)
    out = []
    for pid, _ in script:
        p = g.productions[pid]
        pos = next(
            i for i in var_positions(form)
            if form.items[i].symbol == p.lhs_var
            and (p.lhs_index is None
                 or (form.items[i].stack and form.items[i].stack[0] == p.lhs_index))
        )
        out.append((pid, pos))
        form = apply_production(g, form, pos, p)
    return out


def test_synthesizer_scripted_run_matches_shape_image():
    shape = GinsburgShape((("a",), ("b", "c")))
    ls = LinearSet.make((1, 0), [(0, 2), (1, 1)])
    g = linear_to_grammar(shape, ls)
    # push bottom, then periods x1 = 1 and x2 = 2 times, spread, consume
    by_sig = {(p.lhs_var, p.lhs_index, p.push_index): i for i, p in enumerate(g.productions)}
    script = [(by_sig[("S", None, "e")], 0)]
    script += [(by_sig[("Y", None, "f1")], 0)] * 1
    script += [(by_sig[("Y", None, "f2")], 0)] * 2
    spread = next(i for i, p in enumerate(g.productions) if p.lhs_var == "Y" and p.push_index is None)
    script.append((spread, 0))
    from igkit.grammar import apply_production, start_form

    form = start_form(g)
    forms = [form]
    steps = []
    for pid, pos in script:
        form = apply_production(g, form, pos, g.productions[pid])
        forms.append(form)
        steps.append((pid, pos))
    # drain both blocks greedily until every variable is gone
    while not form.is_terminal():
        pos = var_positions(form)[0]
        occ = form.items[pos]
        pid = next(
            i for i, p in enumerate(g.productions)
            if p.lhs_var == occ.symbol and p.lhs_index == occ.stack[0]
        )
        form = apply_production(g, form, pos, g.productions[pid])
        forms.append(form)
        steps.append((pid, pos))
    d = Derivation(tuple(forms), tuple(steps))
    assert replay(g, d) == d.forms[-1]
    v = (1 + 0 * 1 + 1 * 2, 0 + 2 * 1 + 1 * 2)  # base + x1*b1 + x2*b2, coordinatewise
    assert d.forms[-1].yield_word() == ginsburg_apply(shape, v)
    assert d.index() == 2
    assert special_count(g, d) == 1


def test_ramp_scripted_wide_and_narrow_runs():
    g = parse_grammar(fixture_text("ramp.ig"))
    from igkit.engine import Budget, membership

    narrow = membership(g, tuple("abaabaaa"), Budget(max_steps=80, max_width=3, max_stack=4))
    wide = membership(g, tuple("abaabaaa"), Budget(max_steps=80, max_stack=4))
    assert narrow.is_proven and narrow.witness.index() == 3
    assert wide.is_proven
    assert replay(g, narrow.witness).yield_word() == tuple("abaabaaa")
