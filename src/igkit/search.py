"""The budgeted breadth-first search behind every bounded decision procedure.

Enumeration, membership, index measurement, width refutation, parallel
rewriting, counter-machine runs and automaton emptiness all explore a graph
level by level from one start node under two caps: `max_steps` levels, and
`hard_cap` stored nodes. `bfs` runs that search and reports why it stopped,
and keeps beside each stored node the move it was reached by, so `moves`
reads the witness of any node back without expanding again. With `rank`
it orders the same search by a rank that never falls along a path (the
index of a derivation), then by level, so its first goal has the least rank
(Knuth 1977). The automata, machines and pruned grammars are built from the
same search without caps: `reach` returns every node reachable from a set of
starts, and `explore` also every edge.

Every decision procedure and enumeration answers with one `Verdict` of
three kinds, and `decide` turns a finished search into one. A verdict that
needs the whole space (a refutation, a minimum) may only rest on a search
that stopped with SWEPT.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Hashable, Iterable, Optional

from . import field, record

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


@record
class Search:
    # stored node -> (its parent, the successor tuple that stored it);
    # None for the start
    parents: dict
    stop: str  # the search swept its whole space exactly when this is SWEPT
    goal: Optional[Hashable] = None


@record
class Verdict:
    """The answer of a decision procedure or an enumeration: its kind, the
    witness that backs it (a derivation, a run trace, a vector, a word or the
    list an enumeration found), and the rest in `info` (its stop, a `k`, a
    size). An enumeration is proven, and complete when its stop is SWEPT."""

    kind: str
    witness: Any = None
    info: dict = field(default_factory=dict)

    @property
    def is_proven(self) -> bool:
        return self.kind == PROVEN

    # The benchmark's tracer (perfbench/tracing.py) reads `counters.configs`
    # and `etol.words_seen` off `cli.ncm_run` and `cli.etol_enumerate`
    # results through these two; keep them while the tracer does.
    @property
    def configs_seen(self) -> int:
        return self.info["configs"]

    @property
    def words_seen(self) -> int:
        return self.info["forms"]


def decide(s: Search, exact: bool, witness: Optional[Callable[[Hashable], Any]] = None,
           **info) -> Verdict:
    """The verdict of a finished search for a goal: proven when it found
    one, with `witness(goal)`; refuted only when it swept and the caller's
    caps are `exact` (the capped space holds every goal there is); unknown
    otherwise. `info` also gets `stop`, unless the caller passes its own."""
    info = {"stop": s.stop, **info}
    if s.stop == FOUND:
        return Verdict(PROVEN, witness(s.goal) if witness else None, info)
    return Verdict(REFUTED if s.stop == SWEPT and exact else UNKNOWN, None, info)


def bfs(
    start: Hashable,
    successors: Successors,
    max_steps: float,
    hard_cap: float,
    visit: Optional[Callable[[Hashable], int]] = None,
    rank: bool = False,
) -> Search:
    """Breadth-first search from `start`.

    `successors(node)` returns tuples whose last item is a child node; the
    items before it name the move. `visit(node)` is called once for every
    stored node, the start included, and returns EXPAND, LEAF (keep the node
    but do not expand it) or GOAL (stop here); without `visit` every node is
    expanded. Either cap may be `math.inf`.

    With `rank`, every node is a pair (key, rank) whose rank never falls
    along an edge, and the successors of a node depend on its key alone
    (the rank only labels them). Nodes are expanded by rank, then by level,
    each once, at its least level: a stored node that waits for expansion
    moves to a lower level when a shorter path reaches it. A goal is still
    taken when it is stored, which is exact when a goal's rank is its
    parent's: the first goal then has the least rank, and the least level
    among those. The search has swept when every key stored for expansion
    was expanded, under some rank; max_steps levels count as in the
    unranked search, and hard_cap counts the stored nodes.
    """
    if rank:
        return _ranked(start, successors, max_steps, hard_cap, visit)
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
                parents[child] = node, step
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


def _ranked(start, successors, max_steps, hard_cap, visit) -> Search:
    """`bfs` with `rank`. What a node's expansion stores or moves waits at
    a (rank, level) slot no lower than the node's own, so the slots are
    taken in order from a heap, each holding its nodes in the order they
    came."""
    parents: dict = {start: None}
    level: dict = {}  # stored node waiting for expansion -> its level
    slots: dict = {}  # (rank, level) -> the nodes waiting there
    order: list = []  # a heap of the slots

    def wait(node, depth):
        level[node] = depth
        if depth < max_steps:
            nodes = slots.get(slot := (node[1], depth))
            if nodes is None:
                slots[slot] = [node]
                heapq.heappush(order, slot)
            else:
                nodes.append(node)

    act = EXPAND if visit is None else visit(start)
    if act == GOAL:
        return Search(parents, FOUND, start)
    if act == EXPAND:
        wait(start, 0)
    done = set()  # the keys of the expanded nodes
    while order:
        slot = heapq.heappop(order)
        depth = slot[1] + 1
        for node in slots.pop(slot):
            if level.get(node) != slot[1]:
                continue  # expanded, or moved to a lower level since
            del level[node]
            done.add(node[0])
            for step in successors(node):
                child = step[-1]
                if child not in parents:
                    if len(parents) >= hard_cap:
                        return Search(parents, HARD_CAP)
                    parents[child] = node, step
                    act = EXPAND if visit is None else visit(child)
                    if act == GOAL:
                        return Search(parents, FOUND, child)
                    if act == EXPAND:
                        wait(child, depth)
                elif level.get(child, -1) > depth:
                    parents[child] = node, step
                    wait(child, depth)
    # what still waits was stored at the last level
    return Search(parents, MAX_STEPS if any(key not in done for key, _ in level) else SWEPT)


_ROOT = object()  # the private start node behind reach's starts


def reach(starts: Iterable[Hashable], successors: Successors) -> list:
    """Every node reachable from `starts`, in the order `bfs` stores them."""

    def step(node):
        return [(s,) for s in starts] if node is _ROOT else successors(node)

    return list(bfs(_ROOT, step, math.inf, math.inf).parents)[1:]


def explore(starts: Iterable[Hashable], successors: Successors) -> tuple[list, list[tuple]]:
    """`reach`, and every edge `(node, *move, child)`, one for each successor
    tuple of each node, grouped by node in the order of the nodes."""
    edges: list[tuple] = []

    def step(node):
        out = list(successors(node))
        edges.extend((node, *t) for t in out)
        return out

    return reach(starts, step), edges


def moves(parents: dict, node: Hashable) -> list[tuple]:
    """The successor tuples the search stored, from the start to `node`."""
    out = []
    while (link := parents[node]) is not None:
        node, step = link
        out.append(step)
    out.reverse()
    return out
