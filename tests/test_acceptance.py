"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria with stated
runtime limits assert them.
"""

import itertools
import random
import time

import test_closure as closure_cases
from igkit import fixture_text
from igkit.closure import intersect_dfa, normalize_rhs, union
from igkit.counters import (
    expand_to_nfa,
    ncm_run,
    parikh_of_intersection,
    parse_ncm,
)
from igkit.engine import Budget, check_uncontrolled, enumerate_language, min_index
from igkit.etol import etol_enumerate, etol_to_indexed, parse_etol
from igkit.grammar import parse_grammar, replay
from igkit.search import REFUTED
from igkit.semilinear import (
    GinsburgShape,
    LinearSet,
    SemilinearSet,
    diophantine_member,
    ginsburg_apply,
    linear_to_grammar,
    members_up_to,
    slset_automaton,
    slset_member,
    slset_subset,
)

from util import (
    accepts_via_expansion,
    enum_set,
    etol_min_index,
    grid_members,
    load,
    parikh,
    rendered,
    slset,
    special_count_min,
    special_productions,
)


def ramp_word(n):
    return "".join("a" * i + "b" for i in range(1, n + 1)) + "a" * (n + 1)


def ok(label, detail=""):
    print(f"[{label}] PASS {detail}".rstrip())


# ---------------------------------------------------------------------------


def test_criterion_1_twin_replication():
    t0 = time.monotonic()
    g = load("twin.ig")
    res = enumerate_language(g, 14, Budget(max_steps=60, max_stack=3))
    assert res.exhausted
    expected = {"$", "abc$abc", "aabbcc$aabbcc"}
    assert set(rendered(res)) == expected

    shape = GinsburgShape((("a",), ("b",), ("c",), ("$",), ("a",), ("b",), ("c",)))
    b = slset(LinearSet.make((0, 0, 0, 1, 0, 0, 0), [(1, 1, 1, 0, 1, 1, 1)]))
    independent = {
        "".join(ginsburg_apply(shape, v))
        for v in members_up_to(b, tuple(len(u) for u in shape.words), 14)
    }
    assert independent == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s (limit 5s)"
    ok("criterion-1", f"twin enumeration == independent image set ({elapsed:.2f}s)")


def test_criterion_2_ramp_grammar():
    t0 = time.monotonic()
    g = load("ramp.ig")
    budget = Budget(max_steps=260, max_width=4, max_stack=7)
    res = enumerate_language(g, 20, budget)
    assert res.exhausted
    # the n = 4 word has length 19, so the closed form gives n = 1..4 here
    assert set(rendered(res)) == {ramp_word(n) for n in (1, 2, 3, 4)}

    got = min_index(g, tuple("abaa"), Budget(max_steps=60, max_stack=4))
    assert got.is_proven and got.info["k"] == 3

    v = check_uncontrolled(g, 3, Budget(max_steps=60, max_stack=5))
    assert v.kind == REFUTED
    final = replay(g, v.witness)  # witness replays step by step
    assert final.is_terminal() and v.witness.index() > 3
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s (limit 30s)"
    ok("criterion-2", f"n=1..4 words, min-index 3, width-{v.witness.index()} refutation ({elapsed:.2f}s)")


def test_criterion_3_closure_oracle_suite():
    counts = {}
    for case in closure_cases.UNION_CASES:
        closure_cases.test_union_matches_set_union(*case)
    counts["union"] = len(closure_cases.UNION_CASES)
    for case in closure_cases.MORPH_CASES:
        closure_cases.test_morphism_image_matches_oracle(*case)
    counts["morphism"] = len(closure_cases.MORPH_CASES)
    for case in closure_cases.INVMORPH_CASES:
        closure_cases.test_inverse_morphism_matches_oracle(*case)
    counts["inverse-morphism"] = len(closure_cases.INVMORPH_CASES)
    for name, n, kw in closure_cases.NORM_CASES:
        closure_cases.test_normalize_preserves_language(name, n, kw)
    counts["normalize"] = len(closure_cases.NORM_CASES)
    for case in closure_cases.INTERSECT_CASES:
        closure_cases.test_intersection_matches_filtered_enumeration(*case)
    counts["intersect-dfa"] = len(closure_cases.INTERSECT_CASES)
    for case in closure_cases.INVPROJ_CASES:
        closure_cases.test_inverse_projection_matches_oracle(*case)
    counts["inverse-projection"] = len(closure_cases.INVPROJ_CASES)
    for case in closure_cases.TRANSDUCE_CASES:
        closure_cases.test_transduction_matches_oracle(*case)
    counts["transduce"] = len(closure_cases.TRANSDUCE_CASES)
    assert all(n >= 7 for n in counts.values()), counts
    ok("criterion-3", " ".join(f"{k}:{v}" for k, v in counts.items()))


def _min_index_value(g, w, steps=200, stack=None):
    got = min_index(g, tuple(w), Budget(max_steps=steps, max_stack=stack))
    assert got.is_proven, (g.name, w)
    return got.info["k"]


def test_criterion_4_index_claims():
    # union: widths never exceed the wider input
    g1, g2 = load("anbn.ig"), load("anbncn.ig")
    u = union(g1, g2)
    for w in enum_set(g1, 6) | enum_set(g2, 6, stack=4):
        sides = []
        if w in enum_set(g1, 6):
            sides.append(_min_index_value(g1, w))
        if w in enum_set(g2, 6, stack=4):
            sides.append(_min_index_value(g2, w, stack=4))
        assert _min_index_value(u, w, stack=4) <= max(sides)

    # normalization never raises the minimal width
    for name, n, kw in [("twin.ig", 13, dict(stack=3)), ("mix2.ig", 6, {}),
                        ("anbncn.ig", 6, dict(stack=3))]:
        g = load(name)
        ng = normalize_rhs(g)
        for w in sorted(enum_set(g, n, **kw))[:6]:
            assert _min_index_value(ng, w, **kw) <= _min_index_value(g, w, **kw)

    # DFA intersection preserves minimal widths exactly
    pairs = [
        ("anbn.ig", closure_cases.contains_aa_dfa(), {}),
        ("abstar.ig", closure_cases.ends_b_dfa(), {}),
        ("anbncn.ig", closure_cases.contains_aa_dfa(("a", "b", "c")), dict(stack=3)),
    ]
    for name, dfa, kw in pairs:
        g = normalize_rhs(load(name))
        gi = intersect_dfa(g, dfa)
        for w in sorted(enum_set(gi, 6, **kw))[:6]:
            assert _min_index_value(gi, w, **kw) == _min_index_value(g, w, **kw)

    # synthesized grammars: exactly one spreading production, used once
    shape5 = GinsburgShape((("a",), ("b",), ("c",), ("$",), ("a",), ("b",), ("c",)))
    set5 = LinearSet.make((0, 0, 0, 1, 0, 0, 0), [(1, 1, 1, 0, 1, 1, 1)])
    shape2 = GinsburgShape((("a",), ("b", "b")))
    set2 = LinearSet.make((1, 0), [(1, 1)])
    for shape, ls, stack in [(shape5, set5, 3), (shape2, set2, 8)]:
        g = linear_to_grammar(shape, ls)
        assert len(special_productions(g)) == 1
        for w in enum_set(g, 14, stack=stack):
            v = special_count_min(g, tuple(w), Budget(max_steps=120, max_stack=stack))
            assert v.info["k"] == 1, (w,)
    ok("criterion-4", "union<=max, normalize<=, intersect==, synthesis special==1")


def _rand_slset(rng):
    dim = rng.randint(1, 4)
    comps = []
    for _ in range(rng.randint(1, 2)):
        base = tuple(rng.randint(0, 5) for _ in range(dim))
        periods = [
            tuple(rng.randint(0, 5) for _ in range(dim))
            for _ in range(rng.randint(0, 2))
        ]
        comps.append(LinearSet.make(base, periods))
    return SemilinearSet(dim, tuple(comps))


def _oracle_grid(s, radius):
    """Grid members by forward generation from each base (the defining
    Diophantine combination, evaluated set-wise)."""
    out = set()
    for comp in s.components:
        if any(x > radius for x in comp.base):
            continue
        seen = {comp.base}
        todo = [comp.base]
        while todo:
            v = todo.pop()
            out.add(v)
            for p in comp.periods:
                nxt = tuple(a + b for a, b in zip(v, p))
                if nxt not in seen and all(x <= radius for x in nxt):
                    seen.add(nxt)
                    todo.append(nxt)
    return out


def test_criterion_5_semilinear_core():
    t0 = time.monotonic()
    rng = random.Random(20260808)
    sets = [_rand_slset(rng) for _ in range(200)]
    for s in sets:
        grid = grid_members(slset_automaton(s), 8)
        oracle = _oracle_grid(s, 8)
        assert grid == oracle, s
        for _ in range(5):  # pointwise spot check of the per-vector oracle
            v = tuple(rng.randint(0, 8) for _ in range(s.dim))
            direct = any(diophantine_member(v, c) for c in s.components)
            assert direct == (v in oracle) == slset_member(v, s)

    pairs = 0
    for s1, s2 in itertools.combinations(sets, 2):
        if s1.dim != s2.dim:
            continue
        pairs += 1
        if pairs > 60:
            break
        verdict = slset_subset(s1, s2)
        g1, g2 = _oracle_grid(s1, 8), _oracle_grid(s2, 8)
        if verdict.is_proven:
            assert g1 <= g2
        else:
            w = verdict.witness
            assert any(diophantine_member(w, c) for c in s1.components)
            assert not any(diophantine_member(w, c) for c in s2.components)
        if not g1 <= g2:
            assert not verdict.is_proven
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.2f}s (limit 60s)"
    ok("criterion-5", f"200 sets, grid radius 8 exhaustive, {pairs} subset pairs ({elapsed:.2f}s)")


def test_criterion_6_etol_conversion():
    import test_etol

    checked_words = 0
    for name, (stack, width) in test_etol.FIXTURES.items():
        sys_ = parse_etol(fixture_text(name))
        g = etol_to_indexed(sys_)
        direct = etol_enumerate(sys_, 10, Budget(max_steps=30))
        assert direct.exhausted
        conv = enumerate_language(
            g, 10, Budget(max_steps=220, max_stack=stack, max_width=width)
        )
        assert conv.exhausted
        assert conv.words == direct.words, name
        for w in direct.words:
            k_sys = etol_min_index(sys_, w, Budget(max_steps=30))
            got = min_index(g, w, Budget(max_steps=220, max_stack=stack, max_width=width))
            assert k_sys.is_proven and got.is_proven
            k, k_sys = got.info["k"], k_sys.info["k"]
            assert k <= 2 * k_sys, (name, w, k, k_sys)
            checked_words += 1
    assert len(test_etol.FIXTURES) >= 5
    ok("criterion-6", f"{len(test_etol.FIXTURES)} systems, {checked_words} words, width <= 2k")


def test_criterion_7_counter_pipeline():
    for name in ("anbn.ncm", "anbncn.ncm"):
        m = parse_ncm(fixture_text(name))
        nfa = expand_to_nfa(m)
        for ln in range(9):
            for w in itertools.product(m.alphabet, repeat=ln):
                assert accepts_via_expansion(
                    nfa, m.alphabet, m.num_counters, w
                ).is_proven == ncm_run(m, w).is_proven, (name, w)

    empty_ab = parse_grammar(
        "grammar empty_ab\nvariables: S\nterminals: a, b\nindices:\nstart: S\n"
    )
    fixtures = [
        (load("sigmastar_ab.ig"), "anbn.ncm", None, Budget(max_steps=600, max_width=6)),
        (load("anbn.ig"), "freeall.ncm", None, Budget(max_steps=600, max_width=6)),
        (empty_ab, "anbn.ncm", None, Budget(max_steps=600, max_width=6)),
        (load("sigmastar_abc.ig"), "anbncn.ncm", 14, Budget(max_steps=600, max_width=8)),
    ]
    for g, mname, enum_len, budget in fixtures:
        m = parse_ncm(fixture_text(mname))
        sample = parikh_of_intersection(g, m, 6, enum_len=enum_len, budget=budget)
        assert sample.exhausted
        res = enumerate_language(g, 6, Budget(max_steps=30))
        brute = tuple(sorted(
            parikh(w, g.terminals) for w in res.words if ncm_run(m, w).is_proven
        ))
        assert sample.vectors == brute, (g.name, mname)
    ok("criterion-7", "conditions exhaustive to 8; pipeline == brute force at radius 6")


def test_criterion_8_nonlinear_growth_control():
    g = load("ramp.ig")
    res = enumerate_language(
        g, 26, Budget(max_steps=400, max_width=3, max_stack=8, hard_cap=4_000_000)
    )
    words = rendered(res)[:5]
    assert list(words) == [ramp_word(n) for n in range(1, 6)]
    vectors = [parikh(tuple(w), ("a", "b")) for w in words]
    assert vectors[0] == (3, 1) and vectors[1] == (6, 2)

    # the sample spans both dimensions (not all on one ray) ...
    assert any(a[0] * b[1] != a[1] * b[0] for a in vectors for b in vectors)
    # ... and consecutive growth steps point in pairwise distinct directions
    diffs = [
        tuple(x - y for x, y in zip(vectors[i + 1], vectors[i]))
        for i in range(len(vectors) - 1)
    ]
    for d1, d2 in itertools.combinations(diffs, 2):
        assert d1[0] * d2[1] != d1[1] * d2[0], (d1, d2)

    # a single linear set fitted on the first two vectors misses the rest
    fitted = slset(
        LinearSet.make(vectors[0], [tuple(x - y for x, y in zip(vectors[1], vectors[0]))])
    )
    assert slset_member(vectors[0], fitted) and slset_member(vectors[1], fitted)
    for v in vectors[2:]:
        assert not slset_member(v, fitted), v
    ok("criterion-8", f"vectors {vectors}: growth not captured by one linear set")
