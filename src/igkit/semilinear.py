"""Linear and semilinear sets of ℕ^k, letter-count maps, exact decision
procedures through the bit-vector automaton core, bounded-language membership
through block factorization, and the synthesizer that turns a linear set plus
a word shape into a stack-indexed grammar for the corresponding language.

Two independent routes decide linear-set membership: diophantine_member
solves the defining equation by bounded search, linearset_automaton compiles
it to a tuple automaton. They are cross-checked in the test suite and must
never be merged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import vector_automata as va
from .grammar import (
    GrammarError,
    IndexedGrammar,
    ParseError,
    Production,
    read_int,
    read_sections,
    require,
    set_once,
)
from .search import PROVEN, REFUTED, UNKNOWN, Verdict


@dataclass(frozen=True)
class LinearSet:
    """base + ℕ-combinations of the period vectors."""

    dim: int
    base: tuple[int, ...]
    periods: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if len(self.base) != self.dim or any(len(p) != self.dim for p in self.periods):
            raise ValueError("vector length does not match the dimension")
        if any(x < 0 for x in self.base) or any(x < 0 for p in self.periods for x in p):
            raise ValueError("vectors must be non-negative")

    @classmethod
    def make(cls, base: Sequence[int], periods: Sequence[Sequence[int]] = ()) -> "LinearSet":
        """Normalizing constructor: zero periods are dropped (same set)."""
        base = tuple(base)
        kept = tuple(tuple(p) for p in periods if any(p))
        return cls(len(base), base, kept)


@dataclass(frozen=True)
class SemilinearSet:
    dim: int
    components: tuple[LinearSet, ...]

    def __post_init__(self):
        if any(c.dim != self.dim for c in self.components):
            raise ValueError("component dimensions differ")

    @classmethod
    def of(cls, *components: LinearSet) -> "SemilinearSet":
        if not components:
            raise ValueError("use SemilinearSet(dim, ()) for the empty set")
        return cls(components[0].dim, tuple(components))


@dataclass(frozen=True)
class GinsburgShape:
    """Non-empty words u_1..u_k; maps an exponent tuple to u_1^l1 ... u_k^lk."""

    words: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.words or any(not w for w in self.words):
            raise ValueError("shape needs at least one word; all words non-empty")

    @property
    def k(self) -> int:
        return len(self.words)

    @property
    def letters(self) -> tuple[str, ...]:
        seen: list[str] = []
        for w in self.words:
            for ltr in w:
                if ltr not in seen:
                    seen.append(ltr)
        return tuple(seen)


# ---------------------------------------------------------------------------
# counting maps


def parikh(word, alphabet) -> tuple[int, ...]:
    """Letter-count vector of `word` in the order given by `alphabet`."""
    pos = {a: i for i, a in enumerate(alphabet)}
    out = [0] * len(pos)
    for ltr in word:
        if ltr not in pos:
            raise GrammarError(f"letter {ltr!r} outside the alphabet")
        out[pos[ltr]] += 1
    return tuple(out)


def ginsburg_apply(shape: GinsburgShape, v) -> tuple[str, ...]:
    if len(v) != shape.k:
        raise ValueError("exponent tuple does not match the shape dimension")
    out: list[str] = []
    for word, count in zip(shape.words, v):
        out.extend(word * count)
    return tuple(out)


# ---------------------------------------------------------------------------
# membership, two routes


def diophantine_member(v, ls: LinearSet) -> bool:
    """Direct bounded search for coefficients x >= 0 with
    v = base + sum x_i * period_i. Independent of the automaton route."""
    if len(v) != ls.dim:
        raise ValueError("dimension mismatch")
    rest = [a - b for a, b in zip(v, ls.base)]
    if any(x < 0 for x in rest):
        return False
    periods = [p for p in ls.periods if any(p)]

    def rec(remainder, idx):
        if idx == len(periods):
            return not any(remainder)
        p = periods[idx]
        cap = min(remainder[i] // p[i] for i in range(ls.dim) if p[i])
        for c in range(cap + 1):
            if rec([r - c * x for r, x in zip(remainder, p)], idx + 1):
                return True
        return False

    return rec(rest, 0)


@functools.lru_cache(maxsize=None)
def linearset_automaton(ls: LinearSet) -> va.TupleAutomaton:
    """Tuple automaton for the members of the linear set: one equation per
    coordinate over (v, x) tracks, intersected, with the coefficient tracks
    projected away."""
    k = ls.dim
    periods = [p for p in ls.periods if any(p)]
    m = k + len(periods)
    auto = None
    for j in range(k):
        coeffs = [0] * m
        coeffs[j] = 1
        for i, p in enumerate(periods):
            coeffs[k + i] = -p[j]
        eq = va.equation_automaton(coeffs, ls.base[j])
        auto = eq if auto is None else va.product(auto, eq)
    if periods:
        auto = va.project_tracks(auto, range(k))
    return va.saturate(auto)


@functools.lru_cache(maxsize=None)
def slset_automaton(s: SemilinearSet) -> va.TupleAutomaton:
    if not s.components:
        return va.never(s.dim)
    auto = linearset_automaton(s.components[0])
    for comp in s.components[1:]:
        auto = va.union(auto, linearset_automaton(comp))
    return auto


def slset_member(v, s: SemilinearSet) -> bool:
    if len(v) != s.dim:
        raise ValueError("dimension mismatch")
    return va.member(slset_automaton(s), tuple(v))


def slset_subset(s1: SemilinearSet, s2: SemilinearSet) -> Verdict:
    """Inclusion decided exactly: emptiness of s1 ∩ complement(s2); a refuted
    verdict carries a concrete vector in s1 but not s2."""
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    diff = va.product(slset_automaton(s1), va.complement(slset_automaton(s2)))
    witness = va.is_empty(diff)
    return Verdict(PROVEN) if witness is None else Verdict(REFUTED, witness)


def slset_equal(s1: SemilinearSet, s2: SemilinearSet) -> Verdict:
    fwd = slset_subset(s1, s2)
    return fwd if fwd.is_refuted else slset_subset(s2, s1)


def slset_empty(s: SemilinearSet) -> Verdict:
    witness = va.is_empty(slset_automaton(s))
    return Verdict(PROVEN) if witness is None else Verdict(REFUTED, witness)


# ---------------------------------------------------------------------------
# bounded languages


def factorizations(w, shape: GinsburgShape):
    """All exponent tuples l with u_1^l1 ... u_k^lk = w (depth-first with
    memoization on (position, block))."""
    w = tuple(w)
    memo: dict = {}

    def rec(pos: int, i: int):
        key = (pos, i)
        if key in memo:
            return memo[key]
        if i == shape.k:
            memo[key] = [()] if pos == len(w) else []
            return memo[key]
        out = []
        u = shape.words[i]
        count = 0
        cur = pos
        while True:
            for tail in rec(cur, i + 1):
                out.append((count,) + tail)
            if w[cur: cur + len(u)] != u:
                break
            cur += len(u)
            count += 1
        memo[key] = out
        return out

    return rec(0, 0)


def bounded_word_member(w, shape: GinsburgShape, s: SemilinearSet) -> bool:
    """Is w the shape-image of some vector in s?"""
    if s.dim != shape.k:
        raise ValueError("set dimension does not match the shape")
    return any(slset_member(v, s) for v in factorizations(w, shape))


def members_up_to(s: SemilinearSet, weights, max_weight: int) -> list[tuple[int, ...]]:
    """Vectors of s whose weighted sum is <= max_weight, generated forward
    from each component's base by period addition; ordered by total sum then
    lexicographically."""
    found = set()
    for comp in s.components:
        base = comp.base
        if sum(x * wt for x, wt in zip(base, weights)) > max_weight:
            continue
        seen = {base}
        todo = [base]
        while todo:
            v = todo.pop()
            found.add(v)
            for p in comp.periods:
                nxt = tuple(a + b for a, b in zip(v, p))
                if nxt in seen:
                    continue
                if sum(x * wt for x, wt in zip(nxt, weights)) > max_weight:
                    continue
                seen.add(nxt)
                todo.append(nxt)
    return sorted(found, key=lambda v: (sum(v), v))


def bounded_lang_subset(
    shape1: GinsburgShape,
    s1: SemilinearSet,
    shape2: GinsburgShape,
    s2: SemilinearSet,
    check_len: int,
) -> Verdict:
    """Inclusion of shape-images. Equal shapes with set-level inclusion give
    an exact proof; otherwise every image word of s1 up to check_len is
    tested against (shape2, s2): a failure refutes exactly with that word,
    and full success is unknown, with `info["checked_len"]`."""
    if shape1 == shape2 and slset_subset(s1, s2).is_proven:
        return Verdict(PROVEN)
    weights = tuple(len(u) for u in shape1.words)
    for v in members_up_to(s1, weights, check_len):
        w = ginsburg_apply(shape1, v)
        if not bounded_word_member(w, shape2, s2):
            return Verdict(REFUTED, w)
    return Verdict(UNKNOWN, None, {"checked_len": check_len})


# ---------------------------------------------------------------------------
# grammar synthesis


def linear_to_grammar(shape: GinsburgShape, ls: LinearSet, name: str = "synth") -> IndexedGrammar:
    """Grammar for the shape-image of the linear set: a pushing phase guesses
    the period multiplicities on one stack, a single spreading production
    hands a copy to one block variable per shape word, and each block unrolls
    its word the prescribed number of times while consuming the stack.

    Every derivation applies the spreading production exactly once, and no
    sentential form ever holds more than k variables."""
    if shape.k != ls.dim:
        raise ValueError("shape dimension does not match the set")
    letters = shape.letters
    taken = set(letters)

    def nm(base: str) -> str:
        out = base
        while out in taken:
            out += "#g"
        taken.add(out)
        return out

    start, spine, bottom = nm("S"), nm("Y"), nm("e")
    xs = [nm(f"X{i + 1}") for i in range(shape.k)]
    fs = [nm(f"f{j + 1}") for j in range(len(ls.periods))]
    prods: list[Production] = [Production(start, (spine,), push_index=bottom)]
    for f in fs:
        prods.append(Production(spine, (spine,), push_index=f))
    prods.append(Production(spine, tuple(xs)))
    for i, x in enumerate(xs):
        prods.append(
            Production(x, shape.words[i] * ls.base[i], lhs_index=bottom)
        )
    for j, f in enumerate(fs):
        for i, x in enumerate(xs):
            prods.append(
                Production(x, shape.words[i] * ls.periods[j][i] + (x,), lhs_index=f)
            )
    return IndexedGrammar(
        variables=(start, spine, *xs),
        terminals=letters,
        indices=(bottom, *fs),
        productions=tuple(prods),
        start=start,
        name=name,
    )


def semilinear_to_grammar(shape: GinsburgShape, s: SemilinearSet, name: str = "synth") -> IndexedGrammar:
    """Union of the per-component grammars; the empty set gives a grammar
    with no productions."""
    from .closure import union as g_union

    if s.dim != shape.k:
        raise ValueError("shape dimension does not match the set")
    if not s.components:
        return IndexedGrammar(
            variables=("S",),
            terminals=shape.letters,
            indices=(),
            productions=(),
            start="S",
            name=name,
        )
    out = linear_to_grammar(shape, s.components[0], name=f"{name}0")
    for i, comp in enumerate(s.components[1:], start=1):
        out = g_union(out, linear_to_grammar(shape, comp, name=f"{name}{i}"))
    return replace(out, name=name)


# ---------------------------------------------------------------------------
# text format


def _parse_vector(text: str, line_no: int) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"expected a (…) vector, got {text!r}", line_no)
    inner = text[1:-1].strip()
    if not inner:
        return ()
    try:
        return tuple(int(t.strip()) for t in inner.split(","))
    except ValueError:
        raise ParseError(f"bad vector {text!r}", line_no)


def _split_vectors(text: str, line_no: int):
    depth = 0
    cur = ""
    out = []
    for ch in text:
        if ch == "(":
            depth += 1
        if ch == ")":
            depth -= 1
        cur += ch
        if depth == 0 and ch == ")":
            out.append(cur.strip().lstrip(","))
            cur = ""
    if cur.strip():
        raise ParseError(f"trailing junk in vector list: {cur!r}", line_no)
    return [_parse_vector(v.strip().lstrip(",").strip(), line_no) for v in out]


def _parse_shape_words(text: str, line_no: int) -> GinsburgShape:
    words = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ParseError("empty shape word", line_no)
        words.append(tuple(tok.split()) if " " in tok else tuple(tok))
    return GinsburgShape(tuple(words))


def parse_slset(text: str):
    """Parse the semilinear-set format; returns (name, shape or None, set).

    dim: k — required; shape: u1, u2 — optional (symbols inside a word are
    space-separated, a plain token is split per character); one `linear:`
    block per component: `linear: base = (…); periods = (…),(…)` (the periods
    clause may be omitted)."""
    name, sections = read_sections(text, "slset")
    fields: dict = {}
    comps: list[LinearSet] = []
    for line_no, key, value in sections:
        if key == "dim":
            set_once(fields, key, read_int(value, line_no, key), line_no)
        elif key == "shape":
            set_once(fields, key, _parse_shape_words(value, line_no), line_no)
        elif key == "linear":
            base = None
            periods: list = []
            for clause in value.split(";"):
                ckey, csep, cval = clause.partition("=")
                if not csep:
                    raise ParseError(f"bad clause {clause.strip()!r}", line_no)
                ckey = ckey.strip()
                if ckey == "base":
                    base = _parse_vector(cval.strip(), line_no)
                elif ckey == "periods":
                    periods = _split_vectors(cval.strip(), line_no)
                else:
                    raise ParseError(f"unknown clause {ckey!r}", line_no)
            if base is None:
                raise ParseError("linear block needs `base = (…)`", line_no)
            try:
                comps.append(LinearSet.make(base, periods))
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from None
        else:
            raise ParseError(f"unknown section {key!r}", line_no)
    require(fields, ("dim",))
    dim, shape = fields["dim"], fields.get("shape")
    for c in comps:
        if c.dim != dim:
            raise ParseError(f"component dimension {c.dim} != dim {dim}", 1)
    if shape is not None and shape.k != dim:
        raise ParseError(f"shape has {shape.k} words but dim is {dim}", 1)
    return name, shape, SemilinearSet(dim, tuple(comps))


def serialize_slset(name: str, shape: Optional[GinsburgShape], s: SemilinearSet) -> str:
    lines = [f"slset {name}", f"dim: {s.dim}"]
    if shape is not None:
        rendered = []
        for w in shape.words:
            if len(w) == 1 and len(w[0]) > 1:
                raise GrammarError(f"shape word {w[0]!r} would read back as {len(w[0])} letters")
            rendered.append(" ".join(w) if any(len(sym) > 1 for sym in w) else "".join(w))
        lines.append("shape: " + ", ".join(rendered))
    for c in s.components:
        base = "(" + ",".join(map(str, c.base)) + ")"
        if c.periods:
            ps = ",".join("(" + ",".join(map(str, p)) + ")" for p in c.periods)
            lines.append(f"linear: base = {base}; periods = {ps}")
        else:
            lines.append(f"linear: base = {base}")
    return "\n".join(lines) + "\n"
