"""Seeded query plans for the three workloads.

A plan is a list of rounds; each round holds one query per entry of the
workload's schedule, so every prefix of whole rounds has the same family mix.
A query is one or more `igkit` command lines (argv lists run through
`igkit.cli.main`) plus the spec its oracle checks the reports against.
Generated input files are written to the work directory and named relative
to it. No (command, inputs, flags) triple repeats within a plan: inputs
count by content, and `--out` targets are ignored.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from langs import ETOL, GRAMMARS, MACHINES

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "igkit" / "fixtures"

# Letters that may rename a terminal: no index name (e, f) of any fixture.
LETTERS = "abcdghijkmnopqrstuvwxyz"

SCHEDULES = {
    "derive": [
        "enum-twin", "member-anbncn", "enum-small", "member-twin", "enum-anbncn",
        "member-small", "enum-small", "member-anbncn", "enum-twin", "member-twin",
        "enum-hardcap",
    ],
    "width": [
        "minindex-ramp", "uncontrolled", "minindex-anbncn", "enum-ramp", "etol",
        "minindex-twin", "uncontrolled", "minindex-anbn", "etol", "enum-ramp",
    ],
    "pipeline": [
        "transform", "slset", "parikh", "transform", "ncm-run", "bounded",
        "transform", "slset",
    ],
}


class Exhausted(Exception):
    """A family ran out of distinct queries."""


class Plan:
    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in SCHEDULES:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.digests: dict[str, str] = {}  # generated file name -> content digest
        self.names: dict[str, str] = {}  # content digest -> generated file name
        self.keys: set = set()
        self.decks: dict[str, list] = {}

    # -- inputs ---------------------------------------------------------

    def deal(self, family: str, cards: list):
        """The next card of the family's deck. Every card comes once, in a
        seeded order, before any comes again, so runs of different seeds
        draw the parameters that set a query's cost in the same proportions."""
        deck = self.decks.get(family)
        if not deck:
            deck = self.decks[family] = list(cards)
            self.rng.shuffle(deck)
        return deck.pop()

    def write(self, suffix: str, text: str) -> str:
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        if digest not in self.names:
            name = f"in{len(self.names) + 1:04d}{suffix}"
            (self.workdir / name).write_text(text, encoding="utf-8")
            self.names[digest] = name
            self.digests[name] = digest
        return self.names[digest]

    def variant(self, base: str, fixture_share: float = 0.2, rename: dict | None = None):
        """A fixture path, or a generated copy of a grammar, ETOL system or
        counter machine with renamed letters (by `rename`, else at random)
        and shuffled productions. Returns (argv path, renaming or None)."""
        if rename is None:
            if self.rng.random() < fixture_share:
                return f"fixture:{base}", None
            old = _letters(base)
            rename = dict(zip(old, self.rng.sample(LETTERS, len(old))))
        text = (FIXTURES / base).read_text(encoding="utf-8")
        head, rules = [], []
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            key, _, rest = ln.partition(":")
            if key in ("terminals", "alphabet"):
                ln = f"{key}: " + ", ".join(rename[t.strip()] for t in rest.split(","))
            elif key in ("prod", "rule"):
                lhs, _, rhs = rest.partition("->")
                rhs = " ".join(rename.get(tok, tok) for tok in rhs.split())
                ln = f"{key}: {lhs.strip()} -> {rhs}"
            elif key == "trans":  # counter machine: `trans: src, letter, tests(..) -> ...`
                fields = rest.split(",", 2)
                fields[1] = " " + rename.get(fields[1].strip(), fields[1].strip())
                ln = "trans:" + ",".join(fields)
            elif " " in ln and ":" not in ln:  # header: kind and name
                ln = f"{ln.split()[0]} {ln.split()[1]}_v"
            (rules if key == "prod" else head).append(ln)
        self.rng.shuffle(rules)
        return self.write(Path(base).suffix, "\n".join(head + rules) + "\n"), rename

    # -- plan assembly --------------------------------------------------

    def key(self, calls) -> tuple:
        out = []
        for argv in calls:
            toks = []
            skip = False
            for tok in argv:
                if skip:
                    skip = False
                    continue
                if tok == "--out":
                    skip = True
                    continue
                toks.append(self.digests.get(tok, tok))
            out.append(tuple(toks))
        return tuple(out)

    def draw(self, family: str) -> dict:
        make = FAMILIES[family]
        for _ in range(400):
            calls, check = make(self)
            key = self.key(calls)
            if key in self.keys:
                continue
            self.keys.add(key)
            return {"family": family, "calls": calls, "check": check}
        raise Exhausted(family)

    def rounds(self, n: int) -> list[list[dict]]:
        """Up to n rounds: fewer when a family runs out of distinct queries."""
        out = []
        try:
            for _ in range(n):
                out.append([self.draw(f) for f in SCHEDULES[self.workload]])
        except Exhausted:
            if not out:
                raise
        return out

    def input_repeats(self, queries) -> dict:
        """How often a query reads an input file an earlier query already read."""
        seen: set = set()
        uses = repeats = 0
        for q in queries:
            for argv in q["calls"]:
                for tok in argv:
                    src = self.digests.get(tok) or (tok if tok.startswith("fixture:") else None)
                    if src is None:
                        continue
                    uses += 1
                    repeats += src in seen
                    seen.add(src)
        return {"input_uses": uses, "input_repeats": repeats, "inputs_distinct": len(seen)}


# ---------------------------------------------------------------------------
# shared pieces


def _letters(base: str) -> list[str]:
    """The terminals of a grammar or ETOL fixture, the alphabet of a machine."""
    for line in (FIXTURES / base).read_text(encoding="utf-8").splitlines():
        key, _, rest = line.partition(":")
        if key in ("terminals", "alphabet"):
            return [t.strip() for t in rest.split(",") if t.strip()]
    raise ValueError(base)


def _word(w) -> str:
    return "".join(w) if w else "_"


def _budget(stack=None, width=None, steps=None, hard_cap=None) -> list[str]:
    out = []
    for flag, v in (("--max-stack", stack), ("--max-width", width),
                    ("--max-steps", steps), ("--hard-cap", hard_cap)):
        if v is not None:
            out += [flag, str(v)]
    return out


def _lang(base, rename):
    return {"op": "grammar", "base": base, "rename": rename}


def near_miss(rng, w, lang_contains, alphabet):
    """One edit of w (substitute, delete, insert or swap) for which
    `lang_contains` is false."""
    for _ in range(100):
        w2 = list(w)
        op = rng.randrange(4)
        i = rng.randrange(len(w2) + 1)
        if op == 0 and w2:
            i = min(i, len(w2) - 1)
            w2[i] = rng.choice([c for c in alphabet if c != w2[i]] or alphabet)
        elif op == 1 and w2:
            del w2[min(i, len(w2) - 1)]
        elif op == 2:
            w2.insert(i, rng.choice(alphabet))
        elif len(w2) > 1:
            i = min(i, len(w2) - 2)
            w2[i], w2[i + 1] = w2[i + 1], w2[i]
        w2 = tuple(w2)
        if not lang_contains(w2):
            return w2
    raise Exhausted("near-miss")


def _renamed(w, rename):
    return tuple(rename.get(c, c) for c in w) if rename else tuple(w)


# ---------------------------------------------------------------------------
# derive: engine queries without a width cap


def enum_query(p: Plan, base, max_len, stack=None, width=None, steps=None, hard_cap=None,
               fixture_share=0.2):
    path, rename = p.variant(base, fixture_share)
    argv = ["enumerate", path, "--max-len", str(max_len)] + _budget(stack, width, steps, hard_cap)
    check = {"kind": "enumerate", "lang": _lang(base, rename), "max_len": max_len, "stack": stack}
    return [argv], check


def member_query(p: Plan, base, w, miss, exhaustive, stack_slack=0):
    """member on the word w of the language, or on a near miss of it."""
    rng = p.rng
    lang = GRAMMARS[base]
    need = lang.need_stack(w)
    if miss:
        w = near_miss(rng, w, lang.contains, list(lang.alphabet))
    stack = need + rng.randint(0, stack_slack) if need else None
    path, rename = p.variant(base)
    argv = ["member", path, _word(_renamed(w, rename))] + _budget(stack)
    if exhaustive:
        argv.append("--exhaustive")
    check = {"kind": "member", "lang": _lang(base, rename), "grammar": path,
             "word": list(_renamed(w, rename)), "stack": stack, "exhaustive": exhaustive}
    return [argv], check


# (near miss, --exhaustive): fixes the share of definite answers
MEMBER_MODES = [(False, False), (False, True), (True, False), (True, True)]


def f_enum_twin(p):
    max_len, stack = p.deal("enum-twin", [(7, 2), (9, 2), (10, 2), (11, 2), (13, 2), (14, 2),
                                          (12, 3), (13, 3)])
    return enum_query(p, "twin.ig", max_len, stack)


def f_enum_anbncn(p):
    return enum_query(p, "anbncn.ig", p.rng.randint(6, 21), p.rng.randint(2, 8))


SMALL_LENGTHS = {
    "astar.ig": 14, "bstar.ig": 14, "anbn.ig": 16, "abstar.ig": 16, "mix2.ig": 9,
    "sigmastar_ab.ig": 7, "sigmastar_abc.ig": 5, "aaword.ig": 6, "abword.ig": 6,
    "eps.ig": 6, "empty.ig": 6,
}


def f_enum_small(p):
    base = p.deal("enum-small", sorted(SMALL_LENGTHS))
    return enum_query(p, base, p.rng.randint(1, SMALL_LENGTHS[base]))


def f_enum_hardcap(p):
    """Caps far below the size of the space: at this commit BudgetOverflow
    escapes cli.main, and the query counts as failed."""
    if p.deal("enum-hardcap", ["twin.ig", "anbncn.ig"]) == "twin.ig":
        return enum_query(p, "twin.ig", p.rng.randint(7, 13), 2, hard_cap=p.rng.randint(10, 400))
    return enum_query(p, "anbncn.ig", p.rng.randint(12, 21), p.rng.randint(5, 8),
                      hard_cap=p.rng.randint(5, 60))


def f_member_twin(p):
    # n = 2 needs stack 3: those sweeps dominate the cost of the workload
    n, miss, exhaustive = p.deal("member-twin", [(n,) + m for n in (0, 1) for m in MEMBER_MODES]
                                 + [(2, False, False), (2, True, True)])
    return member_query(p, "twin.ig", GRAMMARS["twin.ig"].make(n), miss, exhaustive)


def f_member_anbncn(p):
    miss, exhaustive = p.deal("member-anbncn", MEMBER_MODES)
    w = GRAMMARS["anbncn.ig"].make(p.rng.randint(0, 6))
    return member_query(p, "anbncn.ig", w, miss, exhaustive, stack_slack=2)


def f_member_small(p):
    base = p.rng.choice(["anbn.ig", "abstar.ig", "mix2.ig"])
    miss, exhaustive = p.deal("member-small", MEMBER_MODES)
    if base == "mix2.ig":
        w = p.rng.choice(sorted(GRAMMARS[base].words(9)))
    else:
        w = GRAMMARS[base].make(p.rng.randint(0, 7))
    return member_query(p, base, w, miss, exhaustive)


# ---------------------------------------------------------------------------
# width: answers that depend on derivation width


def minindex_query(p: Plan, base, n, stack, miss, width=None):
    """min-index on the word n of the language, or on a near miss of it
    (always with --exhaustive). A width cap is never below the minimum index."""
    rng = p.rng
    lang = GRAMMARS[base]
    w = lang.make(n)
    exhaustive = miss or rng.random() < 0.5
    if miss:
        w = near_miss(rng, w, lang.contains, list(lang.alphabet))
    path, rename = p.variant(base)
    argv = ["min-index", path, _word(_renamed(w, rename))] + _budget(stack, width)
    if exhaustive:
        argv.append("--exhaustive")
    check = {"kind": "min-index", "lang": _lang(base, rename), "grammar": path,
             "word": list(_renamed(w, rename)), "stack": stack, "width": width,
             "exhaustive": exhaustive}
    return [argv], check


def f_minindex_ramp(p):
    # Word n needs stack n + 1. Without a width cap the first, all-widths
    # search of the word n = 3 takes seconds.
    n, stack, width, miss = p.deal("minindex-ramp", [
        (2, 3, 3, False), (2, 4, 4, False), (2, 4, 5, False), (3, 4, 3, False),
        (3, 4, 4, False), (3, 5, 4, False), (2, 3, 4, True), (3, 4, 4, True)])
    return minindex_query(p, "ramp.ig", n, stack, miss, width)


def f_minindex_twin(p):
    n, stack, miss = p.deal("minindex-twin", [
        (0, 1, False), (0, 2, False), (1, 2, False), (1, 3, False), (2, 3, False),
        (0, 3, False), (1, 2, True), (2, 3, True)])
    return minindex_query(p, "twin.ig", n, stack, miss)


def f_minindex_anbncn(p):
    n = p.rng.randint(0, 8)
    miss = p.deal("minindex-anbncn", [False, False, False, True])
    return minindex_query(p, "anbncn.ig", n, n + 1 + p.rng.randint(0, 2), miss)


def f_minindex_anbn(p):
    miss = p.deal("minindex-anbn", [False, False, False, True])
    return minindex_query(p, "anbn.ig", p.rng.randint(0, 8), None, miss)


UNCONTROLLED = [
    # (base, k, stack caps to draw from); no stack cap where the skeleton
    # space is finite without one
    *[("ramp.ig", k, (3, 5)) for k in (1, 2, 3)],
    *[("twin.ig", k, (3, 3)) for k in (5, 6, 7, 8)],
    *[("anbncn.ig", k, (4, 9)) for k in (2, 3, 4)],
    *[("mix2.ig", k, None) for k in (2, 3)],
    *[("anbn.ig", k, None) for k in (1, 2)],
]


def f_uncontrolled(p):
    base, k, stacks = p.deal("uncontrolled", UNCONTROLLED)
    stack = p.rng.randint(*stacks) if stacks else None
    path, rename = p.variant(base)
    argv = ["check-uncontrolled", path, "--k", str(k)] + _budget(stack)
    check = {"kind": "uncontrolled", "lang": _lang(base, rename), "grammar": path, "k": k}
    return [argv], check


def f_enum_ramp(p):
    max_len, width, stack = p.deal("enum-ramp", [
        (8, 3, 3), (10, 4, 4), (12, 5, 4), (13, 4, 5), (15, 3, 4), (17, 4, 5), (19, 4, 5),
        (11, 5, 3)])
    return enum_query(p, "ramp.ig", max_len, stack, width=width, steps=200)


def f_etol(p):
    rng = p.rng
    base = rng.choice(sorted(ETOL))
    path, rename = p.variant(base)
    max_len = rng.randint(4, 27)
    width = rng.choice([None, 1, 2, 3, 4])
    argv = ["etol", "enumerate", path, "--max-len", str(max_len)] + _budget(width=width)
    check = {"kind": "etol", "base": base, "rename": rename, "max_len": max_len, "width": width}
    return [argv], check


# ---------------------------------------------------------------------------
# pipeline: constructions, then queries on their output


PIPE_BASES = ["anbn.ig", "abstar.ig", "astar.ig", "bstar.ig", "mix2.ig", "anbncn.ig",
              "aaword.ig", "abword.ig", "eps.ig", "sigmastar_ab.ig"]
TRANSFORMS = ["union", "morph", "inv-morph", "normalize", "intersect-dfa", "inv-proj",
              "transduce"]


def _pipe_base(p: Plan, exclude=()):
    base = p.rng.choice([b for b in PIPE_BASES if b not in exclude])
    path, rename = p.variant(base, fixture_share=0.3)
    alphabet = [rename.get(c, c) if rename else c for c in GRAMMARS[base].alphabet]
    return base, path, rename, alphabet


def _fresh_letters(p: Plan, taken, n):
    return p.rng.sample([c for c in LETTERS if c not in taken], n)


def f_transform(p):
    rng = p.rng
    kind = p.deal("transform", TRANSFORMS)
    # The outputs of these three grow fast with the input: keep their inputs
    # stack-free, binary at most and not Σ*, and their queries short. Larger
    # ones take seconds, or overflow the hard cap.
    exclude = (("anbncn.ig", "mix2.ig", "sigmastar_ab.ig")
               if kind in ("inv-morph", "inv-proj", "transduce") else ())
    base, path, rename, alphabet = _pipe_base(p, exclude)
    lang = _lang(base, rename)
    stack = rng.randint(2, 4) if base == "anbncn.ig" else None
    width = None
    steps = None
    max_len = rng.randint(3, 8)
    out = f"out{len(p.keys):04d}.ig"
    extra: list[str] = []
    if kind == "union":
        base2, path2, rename2, _ = _pipe_base(p)
        if base2 == "anbncn.ig" and stack is None:
            stack = rng.randint(2, 4)
        extra = [path2]
        lang = {"op": "union", "a": lang, "b": _lang(base2, rename2)}
    elif kind == "morph":
        target = _fresh_letters(p, alphabet, 3)
        images = {c: rng.sample(target, rng.randint(1, 2)) for c in alphabet}
        text = f"morphism h\ntarget: {', '.join(target)}\n" + "".join(
            f"map: {c} -> {' '.join(images[c])}\n" for c in alphabet)
        extra = [p.write(".map", text)]
        lang = {"op": "morph", "a": lang, "map": images}
    elif kind == "inv-morph":
        source = _fresh_letters(p, alphabet, 2)
        images = {x: [rng.choice(alphabet) for _ in range(rng.randint(1, 2))] for x in source}
        text = f"morphism h\ntarget: {', '.join(alphabet)}\n" + "".join(
            f"map: {x} -> {' '.join(images[x])}\n" for x in source)
        extra = [p.write(".map", text)]
        lang = {"op": "invmorph", "a": lang, "map": images}
        max_len, width, steps = rng.randint(2, 3), 6, 800
    elif kind == "normalize":
        lang = {"op": "same", "a": lang}
    elif kind == "intersect-dfa":
        nstates = rng.randint(2, 3)
        delta = {f"q{i}": {c: f"q{rng.randrange(nstates)}" for c in alphabet}
                 for i in range(nstates)}
        accepting = sorted(rng.sample(sorted(delta), rng.randint(1, nstates)))
        text = (f"fsa d\nstates: {', '.join(delta)}\nalphabet: {', '.join(alphabet)}\n"
                f"initial: q0\naccepting: {', '.join(accepting)}\n" + "".join(
                    f"trans: {q} {c} -> {r}\n" for q, row in delta.items() for c, r in row.items()))
        extra = [p.write(".fsa", text)]
        lang = {"op": "dfa", "a": lang, "delta": delta, "accepting": accepting}
        max_len = rng.randint(3, 6)
    elif kind == "inv-proj":
        letters = _fresh_letters(p, alphabet, rng.randint(1, 2))
        extra = ["--letters", ",".join(letters)]
        lang = {"op": "invproj", "a": lang, "letters": letters}
        max_len, width = rng.randint(2, 6 - 2 * len(letters)), 4
    else:  # transduce: a letter-to-letter relation, one target letter per source letter
        target = _fresh_letters(p, alphabet, 2)
        nstates = rng.randint(1, 2)
        moves = []  # (state, source letter, target letter, next state)
        for i in range(nstates):
            for c in alphabet:
                for t in rng.sample(target, rng.randint(1, 2)):
                    moves.append((f"r{i}", c, t, f"r{rng.randrange(nstates)}"))
        states = [f"r{i}" for i in range(nstates)] + [f"m{j}" for j in range(len(moves))]
        trans = "".join(f"trans: {q} {c} -> m{j}\ntrans: m{j} {t} -> {r}\n"
                        for j, (q, c, t, r) in enumerate(moves))
        text = (f"fsa rel\nstates: {', '.join(states)}\nalphabet: {', '.join(alphabet + target)}\n"
                f"initial: r0\naccepting: {', '.join(states[:nstates])}\n" + trans)
        extra = [p.write(".fsa", text), "--source", ",".join(alphabet),
                 "--target", ",".join(target)]
        lang = {"op": "transduce", "a": lang, "moves": moves, "finals": states[:nstates]}
        max_len, width, steps = rng.randint(2, 3), 4, 300
    first = ["transform", kind, path] + extra + ["--out", out]
    second = ["enumerate", out, "--max-len", str(max_len)] + _budget(stack, width, steps)
    check = {"kind": "enumerate", "lang": lang, "max_len": max_len, "stack": stack}
    return [first, second], check


PARIKH = [
    # (machine, grammar, radii to draw from)
    ("anbn.ncm", "sigmastar_ab.ig", (3, 4)),
    ("anbn.ncm", "abstar.ig", (4, 5)),
    ("anbn.ncm", "anbn.ig", (2, 3)),
    ("freeall.ncm", "sigmastar_ab.ig", (3, 4)),
    ("freeall.ncm", "anbn.ig", (4, 5)),
    ("freeall.ncm", "abstar.ig", (4, 5)),
    ("anbncn.ncm", "sigmastar_abc.ig", (2, 2)),
    ("updown.ncm", "abstar.ig", (3, 4)),
    ("none.ncm", "astar.ig", (3, 5)),
]


def f_parikh(p):
    rng = p.rng
    machine, grammar, radii = p.deal("parikh", PARIKH)
    radius = rng.randint(*radii)
    width = rng.randint(4, 6)
    # the grammar's terminals must stay the machine's alphabet: rename both
    # the same way, which keeps the letter order and so the Parikh vectors
    mpath, rename = p.variant(machine)
    gpath, _ = p.variant(grammar, rename=rename) if rename else (f"fixture:{grammar}", None)
    argv = ["ncm", "parikh-intersect", mpath, gpath,
            "--radius", str(radius)] + _budget(width=width)
    check = {"kind": "parikh", "machine": machine, "grammar": grammar, "radius": radius}
    return [argv], check


def f_ncm_run(p):
    rng = p.rng
    machine = rng.choice(sorted(MACHINES))
    lang = MACHINES[machine]
    words = sorted(lang.words(8))
    if words and rng.random() < 0.5:
        w = rng.choice(words)
    else:
        w = tuple(rng.choice(lang.alphabet) for _ in range(rng.randint(0, 8)))
    argv = ["ncm", "run", f"fixture:{machine}", _word(w)]
    return [argv], {"kind": "ncm-run", "machine": machine, "word": list(w)}


def _random_linear(rng, dim, max_periods):
    base = [rng.randint(0, 3) for _ in range(dim)]
    periods = []
    for _ in range(rng.randint(0, max_periods)):
        v = [rng.randint(0, 2) for _ in range(dim)]
        if any(v):
            periods.append(v)
    return [base, periods]


def _slset_text(name, comps, shape=None):
    lines = [f"slset {name}", f"dim: {len(comps[0][0]) if comps else len(shape)}"]
    if shape:
        lines.append("shape: " + ", ".join(shape))
    for base, periods in comps:
        b = "(" + ",".join(map(str, base)) + ")"
        if periods:
            ps = ",".join("(" + ",".join(map(str, v)) + ")" for v in periods)
            lines.append(f"linear: base = {b}; periods = {ps}")
        else:
            lines.append(f"linear: base = {b}")
    return "\n".join(lines) + "\n"


def f_slset(p):
    rng = p.rng
    op = p.deal("slset", ["subset", "equal", "empty", "member"])
    dim = rng.randint(1, 4)
    # three periods in dimension 3 or 4 can take a second and 100 MB to decide
    periods = 3 if dim <= 2 else 2
    comps = [_random_linear(rng, dim, periods) for _ in range(rng.randint(1, 2))]
    if op == "empty" and rng.random() < 0.2:
        comps = []
    f1 = p.write(".sls", _slset_text("s", comps) if comps else f"slset s\ndim: {dim}\n")
    sets = [comps]
    argv = ["slset", op, f1]
    vector = None
    if op in ("subset", "equal"):
        other = [[list(b), [list(v) for v in ps]] for b, ps in comps]
        roll = rng.random()
        if roll < 0.4:  # a superset: an extra period or component
            extra = [rng.randint(0, 2) for _ in range(dim)]
            if any(extra) and rng.random() < 0.5:
                other[0][1].append(extra)
            else:
                other.append(_random_linear(rng, dim, periods))
        elif roll < 0.7:
            other = [_random_linear(rng, dim, periods) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            comps, other = other, comps
            f1 = p.write(".sls", _slset_text("s", comps))
            argv = ["slset", op, f1]
            sets = [comps]
        argv.append(p.write(".sls", _slset_text("t", other)))
        sets.append(other)
    elif op == "member":
        if comps and rng.random() < 0.6:
            base, periods = rng.choice(comps)
            vector = list(base)
            for v in periods:
                c = rng.randint(0, 3)
                vector = [a + c * b for a, b in zip(vector, v)]
        else:
            vector = [rng.randint(0, 6) for _ in range(dim)]
        argv += ["--vector", "(" + ",".join(map(str, vector)) + ")"]
    return [argv], {"kind": "slset", "op": op, "sets": sets, "vector": vector}


SHAPE_WORDS = ["a", "b", "c", "ab", "ba", "ca", "bc"]


def f_bounded(p):
    rng = p.rng
    if rng.random() < 0.3:
        shape = ["a", "b", "c", "$", "a", "b", "c"]
        comps = [[[0, 0, 0, 1, 0, 0, 0], [[1, 1, 1, 0, 1, 1, 1]]]]
        path = "fixture:twin.sls"
    else:
        dim = rng.randint(1, 3)
        shape = [rng.choice(SHAPE_WORDS) for _ in range(dim)]
        comps = [_random_linear(rng, dim, 2) for _ in range(rng.randint(1, 2))]
        path = p.write(".sls", _slset_text("b", comps, shape))
    base, periods = rng.choice(comps)
    vec = list(base)
    for v in periods:
        c = rng.randint(0, 2)
        vec = [a + c * b for a, b in zip(vec, v)]
    w = "".join(u * k for u, k in zip(shape, vec))
    if rng.random() < 0.5:  # any one edit; the oracle decides membership
        letters = sorted(set("".join(shape)))
        w = "".join(near_miss(rng, tuple(w), lambda _w: False, letters))
    argv = ["bounded", "member", path, w or "_"]
    return [argv], {"kind": "bounded", "shape": shape, "sets": [comps], "word": w}


FAMILIES = {
    "enum-twin": f_enum_twin,
    "enum-anbncn": f_enum_anbncn,
    "enum-small": f_enum_small,
    "enum-hardcap": f_enum_hardcap,
    "member-twin": f_member_twin,
    "member-anbncn": f_member_anbncn,
    "member-small": f_member_small,
    "minindex-ramp": f_minindex_ramp,
    "minindex-twin": f_minindex_twin,
    "minindex-anbncn": f_minindex_anbncn,
    "minindex-anbn": f_minindex_anbn,
    "uncontrolled": f_uncontrolled,
    "enum-ramp": f_enum_ramp,
    "etol": f_etol,
    "transform": f_transform,
    "parikh": f_parikh,
    "ncm-run": f_ncm_run,
    "slset": f_slset,
    "bounded": f_bounded,
}
