"""Spans around the calls into each igkit layer, recorded from outside.

`install` wraps public functions at the module attributes their callers look
them up by (igkit.cli's own namespace, the engine's module globals, the
counters pipeline's imports, `igkit.kernel.expand`, and the two
`CompiledGrammar` methods), without editing the program. Spans are kept in
memory as parallel arrays, written once by `dump`, and turned into per-layer
self times and counts by `analyze`. A span's self time is its duration minus
its children's, so the self times of all layers add up to the time spent
inside `cli.main`.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

KINDS = [
    "cli.main", "grammar.parse", "grammar.render", "engine.search", "engine.compile",
    "engine.decode", "kernel.expand", "closure.construct", "automata.determinize",
    "semilinear.decide", "va.build", "va.search", "etol.search", "counters.build",
    "counters.run",
]
K = {name: i for i, name in enumerate(KINDS)}

# Self-time metric of each span kind.
SELF_METRIC = {
    "cli.main": "cli.self_s", "grammar.parse": "grammar.parse_s",
    "grammar.render": "grammar.render_s", "engine.search": "engine.search_self_s",
    "engine.compile": "engine.compile_s", "engine.decode": "engine.decode_s",
    "kernel.expand": "kernel.expand_s", "closure.construct": "closure.construct_s",
    "automata.determinize": "automata.determinize_s", "semilinear.decide": "semilinear.decide_s",
    "va.build": "va.build_s", "va.search": "va.search_s", "etol.search": "etol.search_s",
    "counters.build": "counters.build_s", "counters.run": "counters.run_s",
}
# Metric summing each span kind's count, and the kind's call-count metric.
COUNT_METRIC = {
    "kernel.expand": "kernel.successors", "closure.construct": "closure.productions_out",
    "automata.determinize": "automata.dfa_states", "va.build": "va.states",
    "etol.search": "etol.words_seen", "counters.build": "counters.nfa_states",
    "counters.run": "counters.configs",
}
CALLS_METRIC = {
    "grammar.parse": "grammar.parse_calls", "engine.search": "engine.searches",
    "engine.compile": "engine.compile_calls", "engine.decode": "engine.decode_calls",
    "kernel.expand": "kernel.expand_calls", "closure.construct": "closure.calls",
}


def _forms(r) -> int:
    """Forms a search reports: EnumerationResult.forms_seen or
    Verdict.info["forms"]; -1 when it reports none."""
    if hasattr(r, "forms_seen"):
        return r.forms_seen
    info = getattr(r, "info", None)
    return info.get("forms", -1) if isinstance(info, dict) else -1


def _size(attr):
    return lambda r: len(getattr(r, attr))


class Tracer:
    def __init__(self):
        self.kind = array("B")
        self.parent = array("i")
        self.query = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.count = array("q")
        self.open = [-1]
        self.qid = 0
        self.compiled: list = []  # CompiledGrammar objects of the current query
        self.stack_pool: list[int] = []  # peak pool size per query

    def wrap(self, kind: str, fn, count=None):
        k = K[kind]
        t = self

        def traced(*args, **kwargs):
            i = len(t.kind)
            t.kind.append(k)
            t.parent.append(t.open[-1])
            t.query.append(t.qid)
            t.t0.append(0.0)
            t.t1.append(0.0)
            t.count.append(0)
            t.open.append(i)
            start = perf_counter()
            try:
                r = fn(*args, **kwargs)
            finally:
                t.t1[i] = perf_counter()
                t.t0[i] = start
                t.open.pop()
            if count is not None:
                t.count[i] = count(r)
            return r

        return traced

    def wrap_kernel(self, fn):
        """The hot path, unrolled: one span per expansion, counting successors."""
        k = K["kernel.expand"]
        kind, parent, query, t0, t1, count, open_ = (
            self.kind, self.parent, self.query, self.t0, self.t1, self.count, self.open)
        t = self

        def expand(*args):
            kind.append(k)
            parent.append(open_[-1])
            query.append(t.qid)
            start = perf_counter()
            r = fn(*args)
            t1.append(perf_counter())
            t0.append(start)
            count.append(len(r))
            return r

        return expand

    def end_query(self):
        self.stack_pool.append(max((len(c.pool_top) for c in self.compiled), default=0))
        self.compiled.clear()
        self.qid += 1

    def dump(self, path: str):
        with open(path, "wb") as f:
            head = {"n": len(self.kind), "stack_pool": self.stack_pool}
            f.write((json.dumps(head) + "\n").encode())
            for arr in (self.kind, self.parent, self.query, self.t0, self.t1, self.count):
                arr.tofile(f)


def install(tracer: Tracer) -> None:
    """Wrap every traced function where its callers look it up."""
    from igkit import automata, cli, closure, counters, engine, kernel, semilinear
    from igkit import vector_automata as va

    w = tracer.wrap
    cli.main = w("cli.main", cli.main)
    for name in ("parse_grammar", "parse_fsa", "parse_morphism", "parse_slset", "parse_etol",
                 "parse_ncm"):
        setattr(cli, name, w("grammar.parse", getattr(cli, name)))
    for name in ("derivation_to_trace", "serialize_grammar", "serialize_fsa", "serialize_ncm"):
        setattr(cli, name, w("grammar.render", getattr(cli, name)))
    for mod, names in ((cli, ("enumerate_language", "membership", "min_index",
                              "check_uncontrolled")),
                       (engine, ("membership",)),
                       (counters, ("enumerate_language",))):
        for name in names:
            setattr(mod, name, w("engine.search", getattr(mod, name), _forms))
    closures = ("union", "morphism_image", "inverse_morphism", "normalize_rhs", "intersect_dfa",
                "inverse_projection", "nivat_transduce")
    for mod, names in ((cli, closures),
                       (counters, ("intersect_dfa", "inverse_projection", "normalize_rhs"))):
        for name in names:
            setattr(mod, name, w("closure.construct", getattr(mod, name), _size("productions")))
    for mod in (cli, counters, closure):
        mod.determinize = w("automata.determinize", mod.determinize, _size("states"))
    for name in ("slset_member", "slset_subset", "slset_equal", "slset_empty",
                 "bounded_word_member", "bounded_lang_subset"):
        setattr(cli, name, w("semilinear.decide", getattr(cli, name)))
    states = lambda r: r.num_states  # noqa: E731
    for name in ("equation_automaton", "never", "product", "union", "project_tracks",
                 "saturate", "determinize", "complement"):
        setattr(va, name, w("va.build", getattr(va, name), states))
    for name in ("linearset_automaton", "slset_automaton"):
        setattr(semilinear, name, w("va.build", getattr(semilinear, name), states))
    for name in ("is_empty", "member"):
        setattr(va, name, w("va.search", getattr(va, name)))
    cli.etol_enumerate = w("etol.search", cli.etol_enumerate, lambda r: r.words_seen)
    cli.parikh_of_intersection = w("counters.build", cli.parikh_of_intersection)
    for mod in (cli, counters):
        mod.to_one_reversal = w("counters.build", mod.to_one_reversal)
        mod.expand_to_nfa = w("counters.build", mod.expand_to_nfa, _size("states"))
    cli.ncm_run = w("counters.run", cli.ncm_run, lambda r: r.configs_seen)

    kernel.expand = tracer.wrap_kernel(kernel.expand)
    compiled = engine.CompiledGrammar
    init = compiled.__init__

    def compile_and_track(self, g):
        init(self, g)
        tracer.compiled.append(self)

    compiled.__init__ = w("engine.compile", compile_and_track)
    compiled.decode_form = w("engine.decode", compiled.decode_form)


def load(path: str) -> dict:
    with open(path, "rb") as f:
        head = json.loads(f.readline())
        n = head["n"]
        cols = {}
        for name, code in (("kind", "B"), ("parent", "i"), ("query", "i"), ("t0", "d"),
                           ("t1", "d"), ("count", "q")):
            arr = array(code)
            arr.fromfile(f, n)
            cols[name] = arr
    cols["stack_pool"] = head["stack_pool"]
    return cols


def analyze(spans: dict) -> dict:
    """Per-layer self times and counts from the recorded spans."""
    kind, parent, t0, t1, count = (spans[k] for k in ("kind", "parent", "t0", "t1", "count"))
    n = len(kind)
    child = [0.0] * n
    succ_under = [0] * n  # kernel successors per parent span
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += t1[i] - t0[i]
            if kind[i] == K["kernel.expand"]:
                succ_under[p] += count[i]
    self_s = [0.0] * len(KINDS)
    calls = [0] * len(KINDS)
    counts = [0] * len(KINDS)
    forms = useful_succ = 0
    wall = 0.0
    search = K["engine.search"]
    for i in range(n):
        k = kind[i]
        dur = t1[i] - t0[i]
        self_s[k] += dur - child[i]
        calls[k] += 1
        if parent[i] < 0:
            wall += dur
        if k == search:
            if count[i] >= 0:
                forms += count[i]
                useful_succ += succ_under[i]
        else:
            counts[k] += count[i]
    out = {SELF_METRIC[name]: self_s[K[name]] for name in KINDS}
    out.update({m: calls[K[name]] for name, m in CALLS_METRIC.items()})
    out.update({m: counts[K[name]] for name, m in COUNT_METRIC.items()})
    out["engine.forms"] = forms
    out["engine.useful_ratio"] = forms / useful_succ if useful_succ else 0.0
    out["engine.stack_pool"] = max(spans["stack_pool"], default=0)
    out["trace.wall_s"] = wall
    return out
