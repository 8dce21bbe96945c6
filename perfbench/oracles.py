"""Independent oracles for every query family.

Reports are read with this module's own parser and compared against the
closed-form languages in `langs`, brute force over short words, hand-written
index facts, and the replay of every witness with `igkit.grammar`. Nothing
here calls the search engine. `check` returns the list of mismatches for one
query (empty when the reports are right).

An unknown verdict or an unswept enumeration is checked for soundness only:
whatever it lists must belong to the language.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from langs import ETOL, GRAMMARS, MACHINES, Renamed, grammar_lang

DECIDED = {"swept", "proven", "refuted", "min-index", "not-a-member", "accepted",
           "rejected", "member", "non-member"}
EXIT = {"proven": 0, "refuted": 1, "unknown": 3, "accepted": 0, "rejected": 1}


def parse_report(text: str) -> dict:
    """The first `key: value` block of a report."""
    out: dict = {}
    for line in text.splitlines():
        if line.strip() == "---":
            break
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def verdict(report: dict) -> str:
    """One word for what the query decided."""
    command = report.get("command", "")
    if report.get("status") == "error":
        return "error"
    if command in ("enumerate", "etol enumerate", "ncm parikh-intersect"):
        return "swept" if report.get("exhausted") == "true" else "unswept"
    if command == "min-index":
        return "min-index" if report["status"] == "ok" else report["status"]
    if command == "ncm run":
        return report["outcome"]
    if "member" in report:
        return "member" if report["member"] == "true" else "non-member"
    return report.get("verdict", "none")


def _words(text: str) -> set:
    if not text:
        return set()
    return {() if w == "_" else tuple(w) for w in text.split(", ")}


def _vector(text: str) -> tuple:
    return tuple(int(t) for t in text.strip("()").split(",") if t.strip())


# ---------------------------------------------------------------------------
# languages of constructed grammars


def lang_words(spec: dict, max_len: int, stack=None) -> set:
    op = spec["op"]
    if op == "grammar":
        return grammar_lang(spec["base"], spec["rename"]).words(max_len, stack)
    if op == "same":
        return lang_words(spec["a"], max_len, stack)
    if op == "union":
        return lang_words(spec["a"], max_len, stack) | lang_words(spec["b"], max_len, stack)
    if op == "morph":  # images are never empty, so preimages are no longer
        h = spec["map"]
        images = {tuple(itertools.chain.from_iterable(h[c] for c in w))
                  for w in lang_words(spec["a"], max_len, stack)}
        return {w for w in images if len(w) <= max_len}
    if op == "invmorph":
        h = spec["map"]
        lang = grammar_lang(spec["a"]["base"], spec["a"]["rename"])
        return {x for n in range(max_len + 1) for x in itertools.product(sorted(h), repeat=n)
                if lang.contains(tuple(itertools.chain.from_iterable(h[c] for c in x)))}
    if op == "dfa":
        delta, accepting = spec["delta"], set(spec["accepting"])
        out = set()
        for w in lang_words(spec["a"], max_len, stack):
            q = "q0"
            for c in w:
                q = delta[q][c]
            if q in accepting:
                out.add(w)
        return out
    if op == "invproj":
        out = set()
        for w in lang_words(spec["a"], max_len, stack):
            out |= _interleavings(w, spec["letters"], max_len)
        return out
    if op == "transduce":
        out = set()
        for w in lang_words(spec["a"], max_len, stack):
            out |= _transduce(w, spec["moves"], set(spec["finals"]))
        return out
    raise ValueError(f"unknown language op {op!r}")


def _interleavings(word, pads, max_len) -> set:
    out = set()

    def rec(prefix, rest):
        if len(prefix) + len(rest) > max_len:
            return
        if not rest:
            out.add(prefix)
        else:
            rec(prefix + rest[:1], rest[1:])
        for c in pads:
            rec(prefix + (c,), rest)

    rec((), tuple(word))
    return out


def _transduce(word, moves, finals) -> set:
    out = set()

    def rec(state, i, emitted):
        if i == len(word):
            if state in finals:
                out.add(emitted)
            return
        for q, c, t, r in moves:
            if q == state and c == word[i]:
                rec(r, i + 1, emitted + (t,))

    rec("r0", 0, ())
    return out


# ---------------------------------------------------------------------------
# witnesses


class Grammars:
    """Parsed input grammars, by argv path."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.cache: dict = {}

    def get(self, path: str):
        from igkit import fixture_text
        from igkit.grammar import parse_grammar

        if path not in self.cache:
            if path.startswith("fixture:"):
                text = fixture_text(path[len("fixture:"):])
            else:
                text = (self.workdir / path).read_text(encoding="utf-8")
            self.cache[path] = parse_grammar(text)
        return self.cache[path]


def replay_witness(g, trace: str):
    """Rebuild the reported derivation step by step from the start form,
    compare every rendered form with the report, and replay it. Returns
    (yield, width) or raises ValueError."""
    from igkit.grammar import (Derivation, GrammarError, apply_production, render_form,
                               replay, start_form)

    lines = trace.rstrip(" ;").split(" ; ")
    form = start_form(g)
    head, _, shown = lines[0].partition(" | ")
    if head != "init" or render_form(form) != shown:
        raise ValueError(f"witness starts at {lines[0]!r}")
    forms, steps = [form], []
    for line in lines[1:]:
        head, _, shown = line.partition(" | ")
        pid, _, pos = head.partition(" @ ")
        try:
            pid, pos = int(pid.lstrip("p")), int(pos)
            form = apply_production(g, form, pos, g.productions[pid])
        except (ValueError, IndexError, GrammarError) as exc:
            raise ValueError(f"witness step {line!r} does not apply: {exc}")
        if render_form(form) != shown:
            raise ValueError(f"witness step {line!r} gives {render_form(form)!r}")
        forms.append(form)
        steps.append((pid, pos))
    final = replay(g, Derivation(tuple(forms), tuple(steps)))
    if not final.is_terminal():
        raise ValueError("witness does not end in a word")
    return final.yield_word(), max(f.width() for f in forms)


# ---------------------------------------------------------------------------
# per-kind checks; each returns a list of problems


def _check_enumerate(spec, report, rc):
    got = _words(report["words"])
    stack = spec["stack"]
    if report["exhausted"] == "true":
        want = lang_words(spec["lang"], spec["max_len"], stack)
        if got != want:
            return [f"swept enumeration lists {sorted(got ^ want)[:4]} wrongly"]
        return []
    extra = got - lang_words(spec["lang"], spec["max_len"])
    return [f"unswept enumeration lists non-words {sorted(extra)[:4]}"] if extra else []


def _check_member(spec, report, rc, grammars):
    lang = grammar_lang(spec["lang"]["base"], spec["lang"]["rename"])
    w, stack = tuple(spec["word"]), spec["stack"]
    feasible = lang.contains(w) and (stack is None or lang.need_stack(w) <= stack)
    v = report["verdict"]
    problems = []
    if EXIT.get(v) != rc:
        problems.append(f"verdict {v} with exit {rc}")
    if v == "proven":
        if not feasible:
            problems.append("proven for a word outside the capped language")
        problems += _witness_problems(grammars.get(spec["grammar"]), report, w)
    elif v == "refuted" and (feasible or not spec["exhaustive"]):
        problems.append("refuted a word of the capped language" if feasible
                        else "refuted without --exhaustive")
    return problems


def _witness_problems(g, report, w, width=None):
    try:
        got, got_width = replay_witness(g, report["witness"])
    except (KeyError, ValueError) as exc:
        return [f"witness: {exc}"]
    problems = []
    if got != w:
        problems.append(f"witness yields {''.join(got)!r}, not {''.join(w)!r}")
    if width is not None and got_width != width:
        problems.append(f"witness width {got_width} != reported {width}")
    return problems


def _check_min_index(spec, report, rc, grammars):
    lang = grammar_lang(spec["lang"]["base"], spec["lang"]["rename"])
    w, stack, width = tuple(spec["word"]), spec["stack"], spec["width"]
    feasible = (lang.contains(w) and (stack is None or lang.need_stack(w) <= stack)
                and (width is None or width >= lang.min_index))
    status = report["status"]
    if status == "ok":
        k = int(report["min_index"])
        problems = [] if rc == 0 else [f"min-index answer with exit {rc}"]
        if not feasible:
            problems.append("min-index for a word outside the capped language")
        if k != lang.min_index:
            problems.append(f"min-index {k}, known value {lang.min_index}")
        return problems + _witness_problems(grammars.get(spec["grammar"]), report, w, k)
    if status == "not-a-member":
        if feasible or not spec["exhaustive"] or rc != 1:
            return [f"not-a-member for a word of the capped language (exit {rc})" if feasible
                    else "not-a-member without --exhaustive"]
        return []
    return [] if status == "unknown" and rc == 3 else [f"status {status} with exit {rc}"]


def _check_uncontrolled(spec, report, rc, grammars):
    lang = grammar_lang(spec["lang"]["base"], spec["lang"]["rename"])
    k = spec["k"]
    v = report["verdict"]
    problems = [] if EXIT.get(v) == rc else [f"verdict {v} with exit {rc}"]
    if v == "refuted":
        try:
            word, width = replay_witness(grammars.get(spec["grammar"]), report["witness"])
        except (KeyError, ValueError) as exc:
            return problems + [f"witness: {exc}"]
        if not lang.contains(word):
            problems.append(f"witness derives {''.join(word)!r}, not a word of the language")
        if width <= k or str(width) != report.get("witness_width"):
            problems.append(f"witness width {width} (reported {report.get('witness_width')}), k={k}")
    elif v == "proven" and (lang.max_width is None or k < lang.max_width):
        problems.append(f"proven at k={k}, but derivations of width {lang.max_width} exist")
    return problems


def _check_etol(spec, report, rc):
    base, need = ETOL[spec["base"]]
    lang = Renamed(base, spec["rename"]) if spec["rename"] else base
    got = _words(report["words"])
    if report["exhausted"] == "true":
        width = spec["width"]
        want = lang.words(spec["max_len"]) if width is None or width >= need else set()
        return [] if got == want else [f"swept ETOL enumeration differs on {sorted(got ^ want)[:4]}"]
    extra = got - lang.words(spec["max_len"])
    return [f"unswept ETOL enumeration lists non-words {sorted(extra)[:4]}"] if extra else []


def _check_parikh(spec, report, rc):
    g = GRAMMARS[spec["grammar"]]
    m = MACHINES[spec["machine"]]
    want = set()
    for n in range(spec["radius"] + 1):
        for w in itertools.product(g.alphabet, repeat=n):
            if g.contains(w) and m.contains(w):
                want.add(tuple(w.count(c) for c in g.alphabet))
    got = {_vector(v) for v in report["vectors"].split("; ") if v}
    if report["exhausted"] == "true" and got != want:
        return [f"swept Parikh sample differs on {sorted(got ^ want)}"]
    if not got <= want:
        return [f"Parikh sample has extra vectors {sorted(got - want)}"]
    return []


def _check_ncm_run(spec, report, rc):
    w = tuple(spec["word"])
    inside = MACHINES[spec["machine"]].contains(w)
    out = report["outcome"]
    if EXIT.get(out) != rc:
        return [f"outcome {out} with exit {rc}"]
    if (out == "accepted" and not inside) or (out == "rejected" and inside):
        return [f"{out} {''.join(w)!r}, which is {'in' if inside else 'not in'} the language"]
    return []


def _in_set(v, comps) -> bool:
    from igkit.semilinear import LinearSet, diophantine_member

    return any(diophantine_member(tuple(v), LinearSet.make(b, ps)) for b, ps in comps)


def _grid(comps):
    """Members of the set reached with coefficients 0..3 (forward generation)."""
    out = set()
    for base, periods in comps:
        for coeffs in itertools.product(range(4), repeat=len(periods)):
            v = list(base)
            for c, p in zip(coeffs, periods):
                v = [a + c * b for a, b in zip(v, p)]
            out.add(tuple(v))
    return out


def _check_bounded(spec, report, rc):
    shape, comps = spec["shape"], spec["sets"][0]
    w = spec["word"]

    def splits(pos, i):
        if i == len(shape):
            if pos == len(w):
                yield ()
            return
        u, k = shape[i], 0
        while True:
            for rest in splits(pos + k * len(u), i + 1):
                yield (k,) + rest
            if not w.startswith(u, pos + k * len(u)):
                return
            k += 1

    inside = any(_in_set(v, comps) for v in splits(0, 0))
    got = report["member"] == "true"
    if got != inside or rc != (0 if got else 1):
        return [f"bounded member says {got} (exit {rc}) for {w!r}, oracle {inside}"]
    return []


def _check_slset(spec, report, rc):
    op, sets = spec["op"], spec["sets"]
    if op == "member":
        want = bool(sets[0]) and _in_set(spec["vector"], sets[0])
        got = report["member"] == "true"
        return [] if got == want and rc == (0 if got else 1) else [f"member {got}, oracle {want}"]
    v = report["verdict"]
    if rc != (0 if v == "proven" else 1):
        return [f"verdict {v} with exit {rc}"]
    wit = _vector(report["witness"]) if "witness" in report else None
    if op == "empty":
        if v == "proven":
            return [] if not sets[0] else ["proven empty, but the set has a component"]
        return [] if wit is not None and _in_set(wit, sets[0]) else [f"witness {wit} not in the set"]
    s1, s2 = sets
    if v == "refuted":
        if wit is None:
            return ["refuted without a witness"]
        a, b = _in_set(wit, s1), _in_set(wit, s2)
        ok = (a and not b) if op == "subset" else (a != b)
        return [] if ok else [f"witness {wit} does not separate the sets"]
    pairs = [(s1, s2)] if op == "subset" else [(s1, s2), (s2, s1)]
    for x, y in pairs:
        bad = [u for u in sorted(_grid(x)) if not _in_set(u, y)]
        if bad:
            return [f"proven {op}, but {bad[0]} is in one set only"]
    return []


def check(query: dict, reports: list[str], codes: list[int], grammars: Grammars) -> list[str]:
    """Mismatches between one query's reports and its oracle."""
    if any(c == 2 for c in codes):
        return [f"input error: {parse_report(reports[codes.index(2)]).get('error')}"]
    spec = query["check"]
    report, rc = parse_report(reports[-1]), codes[-1]
    kind = spec["kind"]
    if kind in ("enumerate", "etol", "parikh") and rc != 0:
        return [f"{kind} exited {rc}"]
    try:
        if kind == "enumerate":
            return _check_enumerate(spec, report, rc)
        if kind == "member":
            return _check_member(spec, report, rc, grammars)
        if kind == "min-index":
            return _check_min_index(spec, report, rc, grammars)
        if kind == "uncontrolled":
            return _check_uncontrolled(spec, report, rc, grammars)
        return {"etol": _check_etol, "parikh": _check_parikh, "ncm-run": _check_ncm_run,
                "bounded": _check_bounded, "slset": _check_slset}[kind](spec, report, rc)
    except KeyError as exc:
        return [f"report lacks {exc}"]
