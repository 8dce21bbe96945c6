"""Grammar model: validation, one-step semantics, text format round-trips."""

import pytest
from hypothesis import example, given, strategies as st

from igkit import fixture_text
from igkit.grammar import (
    EmptyStackOnConsume,
    GrammarError,
    IndexedGrammar,
    LhsMismatch,
    ParseError,
    PositionNotVariable,
    Production,
    SententialForm,
    Terminal,
    TopIndexMismatch,
    Var,
    apply_production,
    parse_grammar,
    replay,
    serialize_grammar,
    start_form,
    strip_comment,
)

from util import make_grammar, oracle_strip_comment, special_productions, successors, validate


def twin_grammar():
    return parse_grammar(fixture_text("twin.ig"))


def test_twin_parses_and_is_valid():
    g = twin_grammar()
    assert validate(g) == []
    assert len(g.variables) == 9
    assert len(g.productions) == 17
    assert g.terminal_set == {"a", "b", "c", "$"}
    assert g.index_set == {"e", "f"}


def test_alphabet_overlap_is_reported():
    g = IndexedGrammar(
        variables=("S",), terminals=("S", "a"), indices=(), productions=(), start="S"
    )
    assert any("not disjoint" in v for v in validate(g))


def test_push_of_a_terminal_is_reported():
    g = IndexedGrammar(
        variables=("S",),
        terminals=("a",),
        indices=("e",),
        productions=(Production("S", ("S",), push_index="a"),),
        start="S",
    )
    assert any("pushed symbol" in v and "not an index" in v for v in validate(g))


def test_make_grammar_rejects_invalid():
    with pytest.raises(GrammarError):
        make_grammar("bad", ("S",), ("S",), (), (), "S")


# -- apply_production --------------------------------------------------------


def synth_like_grammar():
    # S -> Y[+e]; Y -> Y[+f1]; Y -> X1 X2; consume rules for e/f1.
    return make_grammar(
        "synth",
        ("S", "Y", "X1", "X2"),
        ("a", "b"),
        ("e", "f1"),
        (
            Production("S", ("Y",), push_index="e"),
            Production("Y", ("Y",), push_index="f1"),
            Production("Y", ("X1", "X2")),
            Production("X1", ("a", "X1"), lhs_index="f1"),
            Production("X1", (), lhs_index="e"),
            Production("X2", ("b", "X2"), lhs_index="f1"),
            Production("X2", (), lhs_index="e"),
        ),
        "S",
    )


def test_push_prepends_on_top():
    g = synth_like_grammar()
    form = SententialForm((Var("Y", ("e",)),))
    out = apply_production(g, form, 0, g.productions[1])
    assert out == SententialForm((Var("Y", ("f1", "e")),))


def test_plain_copies_full_stack_to_every_variable():
    g = synth_like_grammar()
    form = SententialForm((Var("Y", ("f1", "e")),))
    out = apply_production(g, form, 0, g.productions[2])
    assert out == SententialForm((Var("X1", ("f1", "e")), Var("X2", ("f1", "e"))))


def test_consume_pops_and_erases_variable():
    g = synth_like_grammar()
    form = SententialForm((Var("X1", ("e",)),))
    out = apply_production(g, form, 0, g.productions[4])
    assert out == SententialForm(())
    assert out.is_terminal() and out.yield_word() == ()


def test_apply_errors():
    g = synth_like_grammar()
    form = SententialForm((Terminal("a"), Var("X1", ())))
    with pytest.raises(PositionNotVariable):
        apply_production(g, form, 0, g.productions[4])
    with pytest.raises(LhsMismatch):
        apply_production(g, form, 1, g.productions[1])
    with pytest.raises(EmptyStackOnConsume):
        apply_production(g, form, 1, g.productions[4])
    form2 = SententialForm((Var("X1", ("f1",)),))
    with pytest.raises(TopIndexMismatch):
        apply_production(g, form2, 0, g.productions[4])


# -- successors --------------------------------------------------------------


def test_twin_start_has_single_successor():
    g = twin_grammar()
    succ = successors(g, start_form(g))
    assert len(succ) == 1
    pos, p, out = succ[0]
    assert (pos, p.kind, p.push_index) == (0, "push", "e")
    assert out == SententialForm((Var("Y", ("e",)),))


def test_terminal_form_has_no_successors():
    g = twin_grammar()
    assert successors(g, SententialForm((Terminal("a"), Terminal("$")))) == []


def test_twin_y_on_e_has_two_successors():
    g = twin_grammar()
    succ = successors(g, SententialForm((Var("Y", ("e",)),)))
    assert len(succ) == 2  # push f, or the spread into X1..X7


def test_successor_order_is_position_major():
    g = synth_like_grammar()
    form = SententialForm((Var("X1", ("e",)), Var("X2", ("f1", "e"))))
    succ = successors(g, form)
    assert [pos for pos, _, _ in succ] == sorted(pos for pos, _, _ in succ)


# -- invariants on randomized forms -----------------------------------------


@st.composite
def forms(draw):
    g = synth_like_grammar()
    items = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            items.append(Terminal(draw(st.sampled_from(g.terminals))))
        else:
            depth = draw(st.integers(0, 3))
            stack = tuple(draw(st.sampled_from(g.indices)) for _ in range(depth))
            items.append(Var(draw(st.sampled_from(g.variables)), stack))
    return SententialForm(tuple(items))


@given(forms())
def test_stack_copy_and_width_laws(form):
    g = synth_like_grammar()
    for pos, p, out in successors(g, form):
        rhs_vars = [it for it in out.items[pos: pos + len(p.rhs)] if isinstance(it, Var)]
        if p.kind != "push":
            stacks = {it.stack for it in rhs_vars}
            assert len(stacks) <= 1  # every rhs variable carries an identical stack
            expected = form.items[pos].stack if p.kind == "plain" else form.items[pos].stack[1:]
            if stacks:
                assert stacks == {expected}
            assert out.width() == form.width() - 1 + len(rhs_vars)
        else:
            assert out.width() == form.width()
        # context outside the rewritten occurrence is untouched
        assert out.items[:pos] == form.items[:pos]
        tail = len(form.items) - pos - 1
        assert out.items[len(out.items) - tail:] == form.items[pos + 1:]


# -- text format --------------------------------------------------------------


NAMES = st.text(alphabet="abcXYZ'$<>", min_size=1, max_size=3)


@st.composite
def grammars(draw):
    vs = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    rest = st.sampled_from(sorted(set("abcdefXYZ123") - set("".join(vs))))
    ts = draw(st.lists(rest, min_size=0, max_size=3, unique=True))
    banned = set(vs) | set(ts)
    idx_pool = [c for c in "efgh789" if c not in banned]
    is_ = draw(st.lists(st.sampled_from(idx_pool), min_size=0, max_size=2, unique=True)) if idx_pool else []
    prods = []
    for _ in range(draw(st.integers(0, 5))):
        lhs = draw(st.sampled_from(vs))
        style = draw(st.integers(0, 2 if is_ else 0))
        if style == 1 and is_:
            prods.append(Production(lhs, (draw(st.sampled_from(vs)),), push_index=draw(st.sampled_from(is_))))
        else:
            rhs = tuple(
                draw(st.sampled_from(vs + ts)) for _ in range(draw(st.integers(0, 3)))
            ) if vs + ts else ()
            lhs_index = draw(st.sampled_from(is_)) if style == 2 and is_ else None
            prods.append(Production(lhs, rhs, lhs_index=lhs_index))
    return make_grammar("rnd", tuple(vs), tuple(ts), tuple(is_), tuple(prods), vs[0])


@given(grammars())
def test_round_trip(g):
    assert parse_grammar(serialize_grammar(g)) == g


def test_round_trip_fixtures():
    for name in ("twin.ig", "ramp.ig", "anbn.ig", "empty.ig", "anbncn.ig"):
        g = parse_grammar(fixture_text(name))
        assert parse_grammar(serialize_grammar(g)) == g


def test_underscore_is_empty_rhs():
    g = parse_grammar("grammar t\nvariables: S\nterminals: a\nindices:\nstart: S\nprod: S -> _\n")
    assert g.productions[0].rhs == ()


def test_duplicate_start_line_is_an_error():
    text = "grammar t\nvariables: S\nterminals:\nindices:\nstart: S\nstart: S\n"
    with pytest.raises(ParseError):
        parse_grammar(text)


def test_comment_rules_keep_generated_names():
    text = (
        "grammar t\nvariables: S, Z#0\nterminals: a  # trailing comment\n"
        "indices:\nstart: S\nprod: S -> a Z#0\nprod: Z#0 -> _\n"
    )
    g = parse_grammar(text)
    assert "Z#0" in g.variable_set
    assert g.terminals == ("a",)
    assert parse_grammar(serialize_grammar(g)) == g


@given(st.text(alphabet="# \tY0a", max_size=12))
@example("# a comment")
@example("prod: Y#0#1#0 -> a\t# a comment # more")
@example("terminals: a #b")
@example("a#b #")
def test_strip_comment_matches_the_character_loop(line):
    assert strip_comment(line) == oracle_strip_comment(line)


def test_classification_special_vs_linear():
    g = twin_grammar()
    specials = special_productions(g)
    assert len(specials) == 1
    assert specials[0].rhs == ("X1", "X2", "X3", "X4", "X5", "X6", "X7")


def test_replay_checks_recorded_forms():
    g = synth_like_grammar()
    f0 = start_form(g)
    f1 = apply_production(g, f0, 0, g.productions[0])
    from igkit.grammar import Derivation

    d = Derivation((f0, f1), ((0, 0),))
    assert replay(g, d) == f1
    bad = Derivation((f0, f0), ((0, 0),))
    with pytest.raises(GrammarError):
        replay(g, bad)


def test_equality_ignores_the_display_name():
    a = parse_grammar("grammar one\nvariables: S\nterminals: a\nindices:\nstart: S\nprod: S -> a\n")
    b = parse_grammar("grammar two\nvariables: S\nterminals: a\nindices:\nstart: S\nprod: S -> a\n")
    assert a == b
    c = parse_grammar("grammar one\nvariables: S\nterminals: b\nindices:\nstart: S\nprod: S -> b\n")
    assert a != c


def test_parse_errors_carry_line_numbers():
    text = "grammar t\nvariables: S\nterminals: a\nindices:\nstart: S\nprod: S => a\n"
    with pytest.raises(ParseError) as err:
        parse_grammar(text)
    assert err.value.line == 6
