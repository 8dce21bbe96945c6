"""Closed-form languages of the bundled fixtures, written without igkit.

Each language knows its words up to a length (with the stack depth and the
derivation width each word needs), decides membership directly, and carries
hand-written facts: the minimum index of its words and the largest width of
any successful derivation (None when unbounded). Generated inputs rename
terminals; `Renamed` maps a language through such a renaming.
"""

from __future__ import annotations

import functools
import itertools

Word = tuple[str, ...]


class Lang:
    alphabet: tuple[str, ...] = ()
    min_index: int | None = None   # the same for every word, where known
    max_width: int | None = None   # widest successful derivation; None = unbounded

    def entries(self, max_len: int) -> list[tuple[Word, int]]:
        """(word, stack depth needed) for every word of length <= max_len."""
        raise NotImplementedError

    def words(self, max_len: int, stack: int | None = None) -> set[Word]:
        return {w for w, need in self.entries(max_len) if stack is None or need <= stack}

    def contains(self, w: Word) -> bool:
        return any(w == u for u, _ in self.entries(len(w)))

    def need_stack(self, w: Word) -> int:
        return next(need for u, need in self.entries(len(w)) if u == w)


class Family(Lang):
    """Words indexed by n >= first, each built by `make(n)`, needing stack
    `need(n)`; word length grows with n."""

    def __init__(self, alphabet, make, need=lambda n: 0, first=0, min_index=None, max_width=None):
        self.alphabet = tuple(alphabet)
        self.make = make
        self.need = need
        self.first = first
        self.min_index = min_index
        self.max_width = max_width

    def entries(self, max_len):
        out = []
        for n in itertools.count(self.first):
            w = self.make(n)
            if len(w) > max_len:
                return out
            out.append((w, self.need(n)))


class Finite(Lang):
    def __init__(self, alphabet, words, min_index=1, max_width=1):
        self.alphabet = tuple(alphabet)
        self.fixed = [tuple(w) for w in words]
        self.min_index = min_index
        self.max_width = max_width

    def entries(self, max_len):
        return [(w, 0) for w in self.fixed if len(w) <= max_len]


class Star(Lang):
    """Every word over the alphabet."""

    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        self.min_index = self.max_width = 1

    def entries(self, max_len):
        return [(w, 0) for n in range(max_len + 1) for w in itertools.product(self.alphabet, repeat=n)]

    def contains(self, w):
        return all(c in self.alphabet for c in w)


class Mix2(Lang):
    """S -> a S b S c | ε, decided by its own recursion."""

    alphabet = ("a", "b", "c")

    def entries(self, max_len):
        by_len: list[set[Word]] = [{()}]
        for m in range(1, max_len + 1):
            cur = set()
            for i in range(m - 2):
                for u in by_len[i]:
                    for v in by_len[m - 3 - i]:
                        cur.add(("a",) + u + ("b",) + v + ("c",))
            by_len.append(cur)
        return [(w, 0) for ws in by_len for w in ws]

    def contains(self, w):
        return _mix2(tuple(w))


@functools.lru_cache(maxsize=None)
def _mix2(w: Word) -> bool:
    if not w:
        return True
    if w[0] != "a" or w[-1] != "c":
        return False
    return any(w[i] == "b" and _mix2(w[1:i]) and _mix2(w[i + 1:-1]) for i in range(1, len(w) - 1))


def _twin(n):
    half = ("a",) * n + ("b",) * n + ("c",) * n
    return half + ("$",) + half


def _ramp(n):
    out: list[str] = []
    for i in range(1, n + 1):
        out += ["a"] * i + ["b"]
    return tuple(out + ["a"] * (n + 1))


def _updown(max_len):
    """a^n b^n (n >= 0) and a^n b^n a^m b^m (n, m >= 1)."""
    out = []
    for n in range(max_len // 2 + 1):
        head = ("a",) * n + ("b",) * n
        out.append(head)
        for m in range(1, (max_len - 2 * n) // 2 + 1):
            if n:
                out.append(head + ("a",) * m + ("b",) * m)
    return out


class Listed(Lang):
    """Words listed by `make(max_len)`."""

    def __init__(self, alphabet, make):
        self.alphabet = tuple(alphabet)
        self.make = make

    def entries(self, max_len):
        return [(w, 0) for w in self.make(max_len)]


GRAMMARS: dict[str, Lang] = {
    "twin.ig": Family("abc$", _twin, need=lambda n: n + 1, min_index=7, max_width=7),
    "anbncn.ig": Family("abc", lambda n: ("a",) * n + ("b",) * n + ("c",) * n,
                        need=lambda n: n + 1, min_index=3, max_width=3),
    "ramp.ig": Family("ab", _ramp, need=lambda n: n + 1, first=1, min_index=3),
    "anbn.ig": Family("ab", lambda n: ("a",) * n + ("b",) * n, min_index=1, max_width=1),
    "astar.ig": Family("a", lambda n: ("a",) * n, min_index=1, max_width=1),
    "bstar.ig": Family("b", lambda n: ("b",) * n, min_index=1, max_width=1),
    "abstar.ig": Family("ab", lambda n: ("a", "b") * n, min_index=1, max_width=1),
    "mix2.ig": Mix2(),
    "aaword.ig": Finite("a", ["aa"]),
    "abword.ig": Finite("ab", ["ab"]),
    "eps.ig": Finite("a", [""]),
    "empty.ig": Finite("a", []),
    "sigmastar_ab.ig": Star("ab"),
    "sigmastar_abc.ig": Star("abc"),
}

# ETOL systems: the language and the number of simultaneously active
# occurrences a derivation needs.
ETOL: dict[str, tuple[Lang, int]] = {
    "abc.etol": (GRAMMARS["anbncn.ig"], 3),
    "anbn1.etol": (GRAMMARS["anbn.ig"], 1),
    "anbn2.etol": (GRAMMARS["anbn.ig"], 2),
    "twochoice.etol": (Listed("ab", lambda m: [(c,) * n for c in "ab" for n in range(1, m + 1)]), 1),
    "word.etol": (Finite("ab", ["ab"]), 1),
}

MACHINES: dict[str, Lang] = {
    "anbn.ncm": GRAMMARS["anbn.ig"],
    "anbncn.ncm": GRAMMARS["anbncn.ig"],
    "updown.ncm": Listed("ab", _updown),
    "freeall.ncm": Star("ab"),
    "none.ncm": Finite("a", []),
}


class Renamed(Lang):
    """The image of `base` under a letter renaming (original -> new)."""

    def __init__(self, base: Lang, rename: dict[str, str]):
        self.base = base
        self.fwd = dict(rename)
        self.back = {v: k for k, v in self.fwd.items()}
        self.alphabet = tuple(self.fwd.get(c, c) for c in base.alphabet)
        self.min_index = base.min_index
        self.max_width = base.max_width

    def _to(self, w):
        return tuple(self.fwd.get(c, c) for c in w)

    def _from(self, w):
        return tuple(self.back.get(c, c) for c in w)

    def entries(self, max_len):
        return [(self._to(w), need) for w, need in self.base.entries(max_len)]

    def contains(self, w):
        return self.base.contains(self._from(w))

    def need_stack(self, w):
        return self.base.need_stack(self._from(w))


def grammar_lang(base: str, rename: dict | None = None) -> Lang:
    lang = GRAMMARS[base]
    return Renamed(lang, rename) if rename else lang
