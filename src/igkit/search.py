"""The budgeted breadth-first search behind every bounded decision procedure.

Enumeration, membership, index measurement, width refutation, parallel
rewriting, counter-machine runs and automaton emptiness all explore a graph
level by level from one start node under two caps: `max_steps` levels, and
`hard_cap` stored nodes. `bfs` runs that search and reports why it stopped;
`path` and `moves` rebuild the witness for any node it stored.

Every decision procedure answers with one `Verdict` of three kinds, and
`decide` turns a finished search into one. A verdict that needs the whole
space (a refutation, a minimum) may only rest on a search that stopped with
SWEPT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Optional

# why a search stopped
SWEPT = "swept"  # no stored node is left to expand
FOUND = "found"  # visit returned GOAL
MAX_STEPS = "max_steps"  # max_steps levels were expanded and nodes remain
HARD_CAP = "hard_cap"  # storing one more node would exceed hard_cap

# what visit asks for a newly stored node
EXPAND, LEAF, GOAL = 0, 1, 2

# the kind of a verdict
PROVEN = "proven"  # a witness was found
REFUTED = "refuted"  # the whole space was swept, and it holds every witness there is
UNKNOWN = "unknown"  # a cap cut the answer short, or the space may miss a witness

Successors = Callable[[Hashable], Iterable[tuple]]


@dataclass(frozen=True)
class Search:
    parents: dict  # stored node -> the node it was first reached from (None for the start)
    stop: str
    goal: Optional[Hashable] = None

    @property
    def swept(self) -> bool:
        return self.stop == SWEPT


@dataclass
class Verdict:
    """The answer of a decision procedure: its kind, the witness that backs
    it where there is one (a derivation, a run trace, a vector or a word),
    and what else it reports in `info` (why its search stopped, a minimum
    `k`, a size)."""

    kind: str
    witness: Any = None
    info: dict = field(default_factory=dict)

    @property
    def is_proven(self) -> bool:
        return self.kind == PROVEN

    @property
    def is_refuted(self) -> bool:
        return self.kind == REFUTED

    @property
    def is_unknown(self) -> bool:
        return self.kind == UNKNOWN

    @property
    def configs_seen(self) -> int:
        # The benchmark's tracer (perfbench/tracing.py) reads
        # `counters.configs` from this attribute of a `cli.ncm_run` result;
        # keep it while the tracer does.
        return self.info["configs"]


def decide(s: Search, exact: bool, witness: Optional[Callable[[Hashable], Any]] = None,
           **info) -> Verdict:
    """The verdict of a finished search for a goal: proven when it found
    one, with `witness(goal)`; refuted only when it swept and the caller's
    caps are `exact` (the capped space holds every goal there is); unknown
    otherwise. `info` also gets `exhausted` and `stop`."""
    info = {"exhausted": s.swept, "stop": s.stop, **info}
    if s.stop == FOUND:
        return Verdict(PROVEN, witness(s.goal) if witness else None, info)
    return Verdict(REFUTED if s.swept and exact else UNKNOWN, None, info)


def bfs(
    start: Hashable,
    successors: Successors,
    max_steps: float,
    hard_cap: float,
    visit: Optional[Callable[[Hashable], int]] = None,
) -> Search:
    """Breadth-first search from `start`.

    `successors(node)` returns tuples whose last item is a child node; the
    items before it name the move. `visit(node)` is called once for every
    stored node, the start included, and returns EXPAND, LEAF (keep the node
    but do not expand it) or GOAL (stop here); without `visit` every node is
    expanded. Either cap may be `math.inf`.
    """
    parents: dict = {start: None}
    act = EXPAND if visit is None else visit(start)
    if act == GOAL:
        return Search(parents, FOUND, start)
    frontier = [start] if act == EXPAND else []
    depth = 0
    while frontier:
        if depth >= max_steps:
            return Search(parents, MAX_STEPS)
        nxt = []
        for node in frontier:
            for step in successors(node):
                child = step[-1]
                if child in parents:
                    continue
                if len(parents) >= hard_cap:
                    return Search(parents, HARD_CAP)
                parents[child] = node
                if visit is None:
                    nxt.append(child)
                    continue
                act = visit(child)
                if act == EXPAND:
                    nxt.append(child)
                elif act == GOAL:
                    return Search(parents, FOUND, child)
        frontier = nxt
        depth += 1
    return Search(parents, SWEPT)


def path(parents: dict, node: Hashable) -> list:
    """The stored nodes from the start to `node`."""
    out = [node]
    while (node := parents[node]) is not None:
        out.append(node)
    out.reverse()
    return out


def moves(successors: Successors, parents: dict, node: Hashable) -> list[tuple]:
    """The successor tuple taken into each node after the start on the path to
    `node`. Each parent is expanded again and its first successor that is the
    child is taken: the step through which the search stored that child."""
    nodes = path(parents, node)
    return [next(s for s in successors(a) if s[-1] == b) for a, b in zip(nodes, nodes[1:])]
