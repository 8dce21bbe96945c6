"""Linear and semilinear sets of ℕ^k, letter-count maps, exact decision
procedures through the bit-vector automaton core, bounded-language membership
through block factorization, and the synthesizer that turns a linear set plus
a word shape into a stack-indexed grammar for the corresponding language.

Two independent routes decide linear-set membership: diophantine_member
solves the defining equation by bounded search, linearset_automaton compiles
it to a tuple automaton in one pass over residual vectors. They are
cross-checked in the test suite and must never be merged. Emptiness,
inclusion and equality are one emptiness search each (va.is_empty), on one
automaton per set; inclusion explores s1 ∩ complement(s2) only as far as the
search goes. Every decision builds its automata anew.
"""

from __future__ import annotations

from typing import Sequence

from . import record, replace
from . import vector_automata as va
from .grammar import (
    IndexedGrammar,
    ParseError,
    Production,
    read_count,
    read_file,
    symbol_name_error,
)
from .search import PROVEN, REFUTED, UNKNOWN, Verdict, explore, reach


@record
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


@record
class SemilinearSet:
    dim: int
    components: tuple[LinearSet, ...]

    def __post_init__(self):
        if any(c.dim != self.dim for c in self.components):
            raise ValueError("component dimensions differ")


@record
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


def linearset_automaton(ls: LinearSet) -> va.TupleAutomaton:
    """Tuple automaton for the members of the linear set, built in one
    breadth-first pass over residual vectors from the base. State r accepts
    the encodings of r + ℕ-combinations of the periods. Reading the low bits
    of such a vector chooses the periods whose coefficient is odd (the mask
    x, adding c(x)); parity then fixes the symbol v = (r + c(x)) mod 2 and
    leaves r' = (r + c(x) - v) / 2 for the higher bits. So each state has one
    edge per mask, labelled by v alone, and the zero vector alone accepts.
    The automaton is saturated as built: a zero symbol leads from r to
    (r + c(x)) / 2, which is zero only when r is. States, numbers and
    transitions are those of the product of one equation automaton per
    coordinate over (v, x) tracks, with the x tracks projected away and the
    result saturated, but no x track is ever built."""
    k = ls.dim
    periods = [p for p in ls.periods if any(p)]
    # A residual vector is one int with a field of `width` bits per
    # coordinate, wide enough for r + c(x) (each r_j stays within
    # max(base_j, c_j of all periods)): adding vectors adds ints, and a vector
    # whose fields are all even is halved by one shift.
    width = (max(ls.base, default=0) + 2 * sum(max(p) for p in periods)).bit_length() + 1

    def pack(v):
        return sum(x << (j * width) for j, x in enumerate(v))

    low = pack([1] * k)  # bit 0 of every field
    adds = [0]  # c(x) for each mask x, bit i of x choosing period i
    for p in periods:
        adds += [c + pack(p) for c in adds]
    labels: dict = {}  # the low bits of the fields -> the symbol they spell

    def successors(r):
        out = []
        for c in adds:
            t = r + c
            bits = t & low
            v = labels.get(bits)
            if v is None:
                v = labels[bits] = sum((bits >> (j * width) & 1) << j for j in range(k))
            out.append((v, (t - bits) >> 1))
        return out

    keys, edges = explore([pack(ls.base)], successors)
    return va.renumber(k, keys, [0], edges)


def slset_automaton(s: SemilinearSet) -> va.TupleAutomaton:
    if not s.components:
        return va.never(s.dim)
    auto = linearset_automaton(s.components[0])
    for comp in s.components[1:]:
        auto = va.union(auto, linearset_automaton(comp))
    return auto


def _verdict(witness) -> Verdict:
    """Proven when the search found no vector; refuted with the one it found."""
    return Verdict(PROVEN) if witness is None else Verdict(REFUTED, witness)


def slset_member(v, s: SemilinearSet) -> bool:
    if len(v) != s.dim:
        raise ValueError("dimension mismatch")
    return va.member(slset_automaton(s), tuple(v))


def slset_subset(s1: SemilinearSet, s2: SemilinearSet) -> Verdict:
    """Inclusion decided exactly: emptiness of s1 ∩ complement(s2), searched
    on the fly; a refuted verdict carries a concrete vector in s1 but not s2."""
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    return _verdict(va.is_empty(slset_automaton(s1), slset_automaton(s2)))


def slset_equal(s1: SemilinearSet, s2: SemilinearSet) -> Verdict:
    """Inclusion both ways, on one automaton per set."""
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    a1, a2 = slset_automaton(s1), slset_automaton(s2)
    witness = va.is_empty(a1, a2)
    return _verdict(va.is_empty(a2, a1) if witness is None else witness)


def slset_empty(s: SemilinearSet) -> Verdict:
    return _verdict(va.is_empty(slset_automaton(s)))


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
    """Is w the shape-image of some vector in s? The automaton of s is built
    only when w factorizes over the shape."""
    if s.dim != shape.k:
        raise ValueError("set dimension does not match the shape")
    vs = factorizations(w, shape)
    if not vs:
        return False
    auto = slset_automaton(s)
    return any(va.member(auto, v) for v in vs)


def members_up_to(s: SemilinearSet, weights, max_weight: int) -> list[tuple[int, ...]]:
    """Vectors of s whose weighted sum is <= max_weight, generated forward
    from each component's base by period addition; ordered by total sum then
    lexicographically."""
    def light(v):
        return sum(x * wt for x, wt in zip(v, weights)) <= max_weight

    found = set()
    for comp in s.components:
        def successors(v):
            for p in comp.periods:
                nxt = tuple(a + b for a, b in zip(v, p))
                if light(nxt):
                    yield (nxt,)

        if light(comp.base):
            found.update(reach([comp.base], successors))
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
    if s1.dim != shape1.k or s2.dim != shape2.k:
        raise ValueError("set dimension does not match the shape")
    auto2 = slset_automaton(s2)
    if shape1 == shape2 and va.is_empty(slset_automaton(s1), auto2) is None:
        return Verdict(PROVEN)
    weights = tuple(len(u) for u in shape1.words)
    for v in members_up_to(s1, weights, check_len):
        w = ginsburg_apply(shape1, v)
        if not any(va.member(auto2, v2) for v2 in factorizations(w, shape2)):
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


def parse_vector(text: str) -> tuple[int, ...]:
    """A `(a,b,…)` vector, as the `.sls` format and `slset member --vector`
    write it, each entry ASCII digits after an optional `-` (its caller
    refuses a negative one); raises ValueError on anything else."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"expected a (…) vector, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    entries = [t.strip() for t in inner.split(",")]
    digits = [t.removeprefix("-") for t in entries]
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise ValueError(f"bad vector {text!r}")
    return tuple(int(t) for t in entries)


def _split_vectors(text: str) -> list[tuple[int, ...]]:
    """The vectors of a `(…),(…)` list, one comma between each two (none
    for an empty list); raises ValueError on anything else."""
    out = []
    rest = text.strip()
    while rest:
        end = rest.find(")") + 1
        out.append(parse_vector(rest[:end] if end else rest))
        rest = rest[end:].strip()
        if rest:
            if rest[0] != ",":
                raise ValueError(f"expected a comma between vectors, got {rest!r}")
            rest = rest[1:].strip()
            if not rest:
                raise ValueError("expected a vector after the last comma")
    return out


def _parse_shape(text: str, line_no: int, what: str) -> tuple[GinsburgShape, int]:
    """The shape's words, and the line they are on."""
    words = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ParseError("empty shape word", line_no)
        word = tuple(tok.split()) if " " in tok else tuple(tok)
        for letter in word:
            err = symbol_name_error(letter)
            if err:
                raise ParseError(err, line_no)
        words.append(word)
    return GinsburgShape(tuple(words)), line_no


def _parse_linear(text: str, line_no: int, what: str) -> LinearSet:
    """One `base = (…); periods = (…),(…)` component."""
    clauses: dict = {}
    try:
        for clause in text.split(";"):
            ckey, csep, cval = clause.partition("=")
            if not csep:
                raise ParseError(f"bad clause {clause.strip()!r}", line_no)
            ckey = ckey.strip()
            if ckey in clauses:
                raise ParseError(f"repeated clause {ckey!r}", line_no)
            if ckey == "base":
                clauses[ckey] = parse_vector(cval)
            elif ckey == "periods":
                clauses[ckey] = _split_vectors(cval)
            else:
                raise ParseError(f"unknown clause {ckey!r}", line_no)
        if "base" not in clauses:
            raise ParseError("linear block needs `base = (…)`", line_no)
        return LinearSet.make(clauses["base"], clauses.get("periods", []))
    except ValueError as exc:  # a bad vector, or one outside ℕ^dim
        raise ParseError(str(exc), line_no) from None


def parse_slset(text: str):
    """Parse the semilinear-set format; returns (name, shape or None, set).

    dim: k — required; shape: u1, u2 — optional (symbols inside a word are
    space-separated, a plain token is split per character); one `linear:`
    block per component: `linear: base = (…); periods = (…),(…)` (the periods
    clause may be omitted)."""
    name, values, comps = read_file(text, "slset", {"dim": read_count, "shape": _parse_shape},
                                    {"linear": _parse_linear}, required=("dim",))
    dim, (shape, shape_line) = values["dim"], values.get("shape", (None, 1))
    for line_no, _, c in comps:
        if c.dim != dim:
            raise ParseError(f"component dimension {c.dim} != dim {dim}", line_no)
    if shape is not None and shape.k != dim:
        raise ParseError(f"shape has {shape.k} words but dim is {dim}", shape_line)
    return name, shape, SemilinearSet(dim, tuple(c for _, _, c in comps))
