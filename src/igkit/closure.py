"""Language-preserving grammar-to-grammar constructions.

Union, morphism images and preimages, right-hand-side normalization,
intersection with a total DFA, inverse alphabet projection, and rational
transduction via the projection/intersection/erasure pipeline. Every
construction returns a valid grammar whose generated names (Z#n, Y#n#i#j,
<p|A|q>, f#i, side suffixes #1/#2) use the reserved characters, so outputs
compose with further constructions and never capture user symbols.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .automata import Dfa, Nfa, determinize
from .grammar import (
    CONSUME,
    PLAIN,
    PUSH,
    GrammarError,
    IndexedGrammar,
    ParseError,
    Production,
    declared,
    fresh_name,
    fresh_names,
    read_sections,
    read_symbols,
    set_once,
)
from .search import reach


class NotNormalized(GrammarError):
    """intersect_dfa requires normalize_rhs to have been applied first."""


class InvalidAutomaton(GrammarError):
    pass


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class Morphism:
    """A letter-to-word substitution, total on `source`."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    rules: tuple[tuple[str, tuple[str, ...]], ...]
    name: str = field(default="h", compare=False)

    @functools.cached_property
    def images(self) -> dict[str, tuple[str, ...]]:
        return dict(self.rules)

    @classmethod
    def make(cls, mapping: dict[str, Sequence[str]], target=None, name="h") -> "Morphism":
        rules = tuple((a, tuple(w)) for a, w in mapping.items())
        if target is None:
            seen: list[str] = []
            for _, w in rules:
                for ltr in w:
                    if ltr not in seen:
                        seen.append(ltr)
            target = tuple(seen)
        return cls(tuple(mapping), tuple(target), rules, name=name)

    @classmethod
    def identity(cls, alphabet, name="id") -> "Morphism":
        return cls.make({a: (a,) for a in alphabet}, target=tuple(alphabet), name=name)

    def apply(self, word) -> tuple[str, ...]:
        out: list[str] = []
        for a in word:
            out.extend(self.images[a])
        return tuple(out)


def parse_morphism(text: str) -> Morphism:
    name, sections = read_sections(text, "morphism")
    fields: dict = {}
    mapping: dict[str, tuple[str, ...]] = {}
    map_lines: dict[str, int] = {}
    for line_no, key, value in sections:
        if key == "target":
            set_once(fields, key, declared(value, line_no, key), line_no)
        elif key == "map":
            lhs, arrow, rhs = value.partition("->")
            if not arrow:
                raise ParseError("map line needs `->`", line_no)
            letter = lhs.strip()
            if letter in mapping:
                raise ParseError(f"duplicate map for {letter!r}", line_no)
            mapping[letter] = read_symbols(rhs.split(), line_no)
            map_lines[letter] = line_no
        else:
            raise ParseError(f"unknown section {key!r}", line_no)
    target = fields.get("target")
    for letter, image in mapping.items():
        for s in image:
            if target is not None and s not in target:
                raise ParseError(f"image letter {s!r} is not in `target:`", map_lines[letter])
    return Morphism.make(mapping, target=target, name=name)


# ---------------------------------------------------------------------------
# helpers


def _all_names(g: IndexedGrammar) -> set[str]:
    return set(g.variables) | set(g.terminals) | set(g.indices)


def _split_rhs(g: IndexedGrammar, rhs: tuple[str, ...]):
    """Decompose a plain/consume rhs into terminal words u_1..u_{k+1} around
    the variable occurrences X_1..X_k."""
    words: list[tuple[str, ...]] = []
    variables: list[str] = []
    cur: list[str] = []
    for s in rhs:
        if s in g.variable_set:
            words.append(tuple(cur))
            cur = []
            variables.append(s)
        else:
            cur.append(s)
    words.append(tuple(cur))
    return words, variables


def prune_unreachable(g: IndexedGrammar) -> IndexedGrammar:
    """Drop variables unreachable from the start symbol, their productions,
    and index symbols no production mentions. Language-preserving."""
    below: dict = {}  # variable -> the variables on its right sides
    for p in g.productions:
        below.setdefault(p.lhs_var, []).extend(s for s in p.rhs if s in g.variable_set)
    reached = set(reach([g.start], lambda v: [(s,) for s in below.get(v, ())]))
    prods = tuple(p for p in g.productions if p.lhs_var in reached)
    used_idx = set()
    for p in prods:
        if p.lhs_index is not None:
            used_idx.add(p.lhs_index)
        if p.push_index is not None:
            used_idx.add(p.push_index)
    return replace(
        g,
        variables=tuple(v for v in g.variables if v in reached),
        indices=tuple(i for i in g.indices if i in used_idx),
        productions=prods,
    )


def prune_nonproductive(g: IndexedGrammar) -> IndexedGrammar:
    """Drop variables that can never rewrite to a terminal word even when
    index availability is ignored (a sound over-approximation: consume
    productions are treated as always applicable). Successful derivations are
    untouched, so the language, minimal widths and special counts are all
    preserved; dead search branches disappear."""
    waiting = []  # per production: its right-side variables not yet known productive
    uses: dict = {}  # variable -> the productions with it on the right side
    for i, p in enumerate(g.productions):
        rhs_vars = {s for s in p.rhs if s in g.variable_set}
        waiting.append(len(rhs_vars))
        for v in rhs_vars:
            uses.setdefault(v, []).append(i)

    def successors(v):
        # reach expands each variable once, so each count drops once per variable
        for i in uses.get(v, ()):
            waiting[i] -= 1
            if waiting[i] == 0:
                yield (g.productions[i].lhs_var,)

    productive = set(reach([p.lhs_var for p, n in zip(g.productions, waiting) if n == 0],
                           successors))
    prods = tuple(
        p for p in g.productions
        if p.lhs_var in productive
        and all(s not in g.variable_set or s in productive for s in p.rhs)
    )
    keep = productive | {g.start}
    return replace(g, variables=tuple(v for v in g.variables if v in keep), productions=prods)


def clean(g: IndexedGrammar) -> IndexedGrammar:
    """Non-productive then unreachable pruning."""
    return prune_unreachable(prune_nonproductive(g))


# ---------------------------------------------------------------------------
# union


def union(g1: IndexedGrammar, g2: IndexedGrammar) -> IndexedGrammar:
    """Grammar for L(g1) ∪ L(g2): both sides renamed apart, a fresh start
    variable chains into either original start. New names avoid every name
    of both inputs."""
    taken = _all_names(g1) | _all_names(g2)

    def rename(name: str, tag: str) -> str:
        new = f"{name}#{tag}"
        if new in taken:
            new = fresh_name(new, taken)
        taken.add(new)
        return new

    def side(g: IndexedGrammar, tag: str):
        vmap = {v: rename(v, tag) for v in g.variables}
        imap = {i: rename(i, tag) for i in g.indices}

        def conv(p: Production) -> Production:
            if p.kind == PUSH:
                return Production(vmap[p.lhs_var], (vmap[p.rhs[0]],), push_index=imap[p.push_index])
            rhs = tuple(vmap.get(s, s) for s in p.rhs)
            lhs_index = None if p.lhs_index is None else imap[p.lhs_index]
            return Production(vmap[p.lhs_var], rhs, lhs_index=lhs_index)

        return vmap, imap, tuple(conv(p) for p in g.productions)

    v1, i1, p1 = side(g1, "1")
    v2, i2, p2 = side(g2, "2")
    variables = tuple(v1[v] for v in g1.variables) + tuple(v2[v] for v in g2.variables)
    start = fresh_name("S", taken)
    terminals = g1.terminals + tuple(t for t in g2.terminals if t not in set(g1.terminals))
    return IndexedGrammar(
        variables=(start,) + variables,
        terminals=terminals,
        indices=tuple(i1[i] for i in g1.indices) + tuple(i2[i] for i in g2.indices),
        productions=(
            Production(start, (v1[g1.start],)),
            Production(start, (v2[g2.start],)),
        ) + p1 + p2,
        start=start,
        name=f"union({g1.name},{g2.name})",
    )


# ---------------------------------------------------------------------------
# morphism image


def morphism_image(g: IndexedGrammar, h: Morphism) -> IndexedGrammar:
    """Replace every terminal in every rhs by its image word; the generated
    language is h(L(g))."""
    missing = set(g.terminals) - set(h.source)
    if missing:
        raise GrammarError(f"morphism not total on terminals: missing {sorted(missing)}")
    clash = set(h.target) & (set(g.variables) | set(g.indices))
    if clash:
        raise GrammarError(f"image letters collide with grammar symbols: {sorted(clash)}")

    def conv(p: Production) -> Production:
        if p.kind == PUSH:
            return p
        rhs: list[str] = []
        for s in p.rhs:
            if s in g.variable_set:
                rhs.append(s)
            else:
                rhs.extend(h.images[s])
        return Production(p.lhs_var, tuple(rhs), lhs_index=p.lhs_index)

    return IndexedGrammar(
        variables=g.variables,
        terminals=h.target,
        indices=g.indices,
        productions=tuple(conv(p) for p in g.productions),
        start=g.start,
        name=f"{h.name}({g.name})",
    )


# ---------------------------------------------------------------------------
# rhs normalization


def _normal_shape(g: IndexedGrammar, p: Production) -> bool:
    if p.kind == PUSH:
        return True
    words, variables = _split_rhs(g, p.rhs)
    if len(variables) <= 1:
        return True
    if len(variables) == 2 and not words[1] and not words[2]:
        return True
    return False


def is_normalized(g: IndexedGrammar) -> bool:
    return all(_normal_shape(g, p) for p in g.productions)


def normalize_rhs(g: IndexedGrammar) -> IndexedGrammar:
    """Rewrite every rhs into one of the shapes u, uXv, uXZ by chaining
    through fresh Z variables. Language and derivation widths are preserved
    (the chain never widens a form beyond the original production)."""
    zgen = fresh_names("Z", _all_names(g))
    new_vars = list(g.variables)
    prods: list[Production] = []
    for p in g.productions:
        if _normal_shape(g, p):
            prods.append(p)
            continue
        words, variables = _split_rhs(g, p.rhs)
        k = len(variables)
        chain = [next(zgen) for _ in range(k - 1)]
        new_vars.extend(chain)
        prods.append(
            Production(p.lhs_var, words[0] + (variables[0], chain[0]), lhs_index=p.lhs_index)
        )
        for j in range(1, k - 1):
            prods.append(Production(chain[j - 1], words[j] + (variables[j], chain[j])))
        prods.append(Production(chain[k - 2], words[k - 1] + (variables[k - 1],) + words[k]))
    return IndexedGrammar(
        variables=tuple(new_vars),
        terminals=g.terminals,
        indices=g.indices,
        productions=tuple(prods),
        start=g.start,
        name=f"norm({g.name})",
    )


# ---------------------------------------------------------------------------
# intersection with a regular language


def intersect_dfa(g: IndexedGrammar, d: Dfa) -> IndexedGrammar:
    """Grammar for L(g) ∩ L(d). Requires g in normalized rhs form and d total
    and deterministic over (at least) g's terminals. State-annotated variables
    <p|A|q> generate exactly the words A derives that drive d from p to q;
    the index alphabet is replaced by a disjoint copy. Unreachable triples are
    pruned from the result."""
    if not is_normalized(g):
        raise NotNormalized(f"{g.name} has productions outside the u/uXv/uXZ shapes")
    problems = d.validate()
    if problems:
        raise InvalidAutomaton(f"{d.name}: " + "; ".join(problems))
    if not set(g.terminals) <= set(d.alphabet):
        raise InvalidAutomaton(f"{d.name} alphabet does not cover the grammar terminals")

    imap = {f: f"{f}#i" for f in g.indices}
    states = d.states

    def tri(p: str, var: str, q: str) -> str:
        return f"<{p}|{var}|{q}>"

    variables = [tri(p, v, q) for v in g.variables for p in states for q in states]
    start = fresh_name("S", variables)
    prods: list[Production] = [
        Production(start, (tri(d.initial, g.start, acc),))
        for acc in states
        if acc in d.accepting
    ]
    for prod in g.productions:
        lhs_index = None if prod.lhs_index is None else imap[prod.lhs_index]
        if prod.kind == PUSH:
            for p, q in itertools.product(states, states):
                prods.append(
                    Production(
                        tri(p, prod.lhs_var, q),
                        (tri(p, prod.rhs[0], q),),
                        push_index=imap[prod.push_index],
                    )
                )
            continue
        words, variables_in_rhs = _split_rhs(g, prod.rhs)
        if not variables_in_rhs:
            u = words[0]
            for p in states:
                q = d.run(u, p)
                prods.append(Production(tri(p, prod.lhs_var, q), u, lhs_index=lhs_index))
        elif len(variables_in_rhs) == 1:
            u, v = words[0], words[1]
            x = variables_in_rhs[0]
            for p, s in itertools.product(states, states):
                r = d.run(u, p)
                q = d.run(v, s)
                prods.append(
                    Production(
                        tri(p, prod.lhs_var, q),
                        u + (tri(r, x, s),) + v,
                        lhs_index=lhs_index,
                    )
                )
        else:
            u = words[0]
            x, z = variables_in_rhs
            for p, mid, q in itertools.product(states, states, states):
                r = d.run(u, p)
                prods.append(
                    Production(
                        tri(p, prod.lhs_var, q),
                        u + (tri(r, x, mid), tri(mid, z, q)),
                        lhs_index=lhs_index,
                    )
                )
    out = IndexedGrammar(
        variables=(start,) + tuple(variables),
        terminals=g.terminals,
        indices=tuple(imap[f] for f in g.indices),
        productions=tuple(prods),
        start=start,
        name=f"cap({g.name},{d.name})",
    )
    return clean(out)


# ---------------------------------------------------------------------------
# inverse projection


def _used_interleaver_ordinals(names) -> set[int]:
    used = set()
    for n in names:
        parts = n.split("#")
        if len(parts) >= 2 and parts[0] == "Y" and parts[1].isdigit():
            used.add(int(parts[1]))
    return used


def inverse_projection(g: IndexedGrammar, ext_alphabet) -> IndexedGrammar:
    """Grammar for the inverse image of L(g) under the projection that erases
    the letters of ext_alphabet outside g's terminals: every padding mix of
    the new letters may be inserted anywhere. Each plain/consume production is
    replaced by interleaver chains Y#n#i#j that emit padding loops before each
    original letter and around the tail (with an empty-padding exit)."""
    ext = tuple(ext_alphabet)
    if not set(g.terminals) <= set(ext):
        raise GrammarError("extended alphabet must contain every terminal")
    clash = set(ext) & (set(g.variables) | set(g.indices))
    if clash:
        raise GrammarError(f"new letters collide with grammar symbols: {sorted(clash)}")
    pads = tuple(c for c in ext if c not in g.terminal_set)

    used = _used_interleaver_ordinals(g.variables)
    counter = itertools.count()

    def next_ordinal() -> int:
        n = next(counter)
        while n in used:
            n = next(counter)
        return n

    new_vars = list(g.variables)
    prods: list[Production] = []
    for p in g.productions:
        if p.kind == PUSH:
            prods.append(p)
            continue
        n = next_ordinal()
        words, variables_in_rhs = _split_rhs(g, p.rhs)
        k = len(variables_in_rhs)

        def y(i: int, j: int) -> str:
            return f"Y#{n}#{i}#{j}"

        for i, u in enumerate(words, start=1):
            for j in range(len(u) + 1):
                new_vars.append(y(i, j))
        prods.append(
            Production(p.lhs_var, tuple(y(i, 0) for i in range(1, k + 2)), lhs_index=p.lhs_index)
        )
        for i, u in enumerate(words, start=1):
            for j in range(len(u)):
                for c in pads:
                    prods.append(Production(y(i, j), (c, y(i, j))))
                prods.append(Production(y(i, j), (u[j], y(i, j + 1))))
        tail = y(k + 1, len(words[k]))
        for c in pads:
            prods.append(Production(tail, (tail, c)))
        for c in pads:
            prods.append(Production(tail, (c,)))
        prods.append(Production(tail, ()))
        for i in range(1, k + 1):
            prods.append(Production(y(i, len(words[i - 1])), (variables_in_rhs[i - 1],)))
    return IndexedGrammar(
        variables=tuple(new_vars),
        terminals=ext,
        indices=g.indices,
        productions=tuple(prods),
        start=g.start,
        name=f"invproj({g.name})",
    )


# ---------------------------------------------------------------------------
# rational transductions


@dataclass(frozen=True)
class NivatTransducer:
    """A rational transduction presented as a regular set over the disjoint
    union of the source and target alphabets: the transduction relates the
    source projection of each accepted word to its target projection.

    Overlapping alphabets are not representable (a shared letter would be
    ambiguous inside `rel`), so targets overlapping the source must be tagged
    copies; `output_rename` maps tagged target letters back to their final
    spelling after the pipeline runs, which realizes the copy-isomorphism
    route for non-disjoint alphabets.
    """

    source: tuple[str, ...]
    target: tuple[str, ...]
    rel: Nfa
    output_rename: Optional[tuple[tuple[str, str], ...]] = None
    name: str = field(default="tau", compare=False)

    def __post_init__(self):
        overlap = set(self.source) & set(self.target)
        if overlap:
            raise GrammarError(
                f"transducer alphabets overlap on {sorted(overlap)}; rename the "
                "target to tagged copies and supply output_rename"
            )
        stray = set(self.rel.alphabet) - set(self.source) - set(self.target)
        if stray:
            raise GrammarError(f"relation alphabet has stray letters {sorted(stray)}")


def nivat_transduce(g: IndexedGrammar, tau: NivatTransducer) -> IndexedGrammar:
    """Image of L(g) under the transduction: inverse projection onto the
    joint alphabet, intersection with the (determinized) relation, then
    erasure of the source letters; an optional final renaming restores
    overlapping target alphabets."""
    if set(tau.source) != set(g.terminals):
        raise GrammarError("transducer source alphabet must equal the grammar terminals")
    ext = g.terminals + tuple(t for t in tau.target)
    g1 = inverse_projection(g, ext)
    d = determinize(tau.rel, alphabet=ext)
    g2 = intersect_dfa(normalize_rhs(g1), d)
    erase = Morphism.make(
        {a: () for a in g.terminals} | {t: (t,) for t in tau.target},
        target=tuple(tau.target),
        name="erase_src",
    )
    out = morphism_image(g2, erase)
    if tau.output_rename:
        rename = Morphism.make(
            {t: (dict(tau.output_rename).get(t, t),) for t in tau.target},
            name="untag",
        )
        out = morphism_image(out, rename)
    return replace(out, name=f"{tau.name}({g.name})")


def inverse_morphism(g: IndexedGrammar, h: Morphism) -> IndexedGrammar:
    """Grammar for the preimage of L(g) under h: words x with h(x) in L(g).

    Built as a transduction whose relation spells the image h(x) followed by
    a tagged copy of x, for each letter x, repeated; tags are removed by the
    pipeline's final renaming."""
    stray = set(ltr for _, w in h.rules for ltr in w) - set(g.terminals)
    if stray:
        raise GrammarError(f"image letters {sorted(stray)} are not terminals of {g.name}")
    tags = {x: f"{x}#c" for x in h.source}
    states = ["m0"]
    transitions: list[tuple[str, Optional[str], str]] = []
    for x in h.source:
        prev = "m0"
        for i, ltr in enumerate(h.images[x]):
            nxt = f"m#{x}#{i}"
            states.append(nxt)
            transitions.append((prev, ltr, nxt))
            prev = nxt
        transitions.append((prev, tags[x], "m0"))
    rel = Nfa(
        states=tuple(states),
        alphabet=g.terminals + tuple(tags[x] for x in h.source),
        initial="m0",
        accepting=frozenset({"m0"}),
        transitions=tuple(transitions),
        name=f"rel_inv_{h.name}",
    )
    tau = NivatTransducer(
        source=g.terminals,
        target=tuple(tags[x] for x in h.source),
        rel=rel,
        output_rename=tuple((tags[x], x) for x in h.source),
        name=f"inv_{h.name}",
    )
    out = nivat_transduce(g, tau)
    return replace(out, name=f"inv_{h.name}({g.name})")
