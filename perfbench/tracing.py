"""Span tracing for the benchmark's traced run, and the per-layer metrics.

The tracer wraps public chipfire functions at every binding site inside the
``chipfire`` package (module globals, and methods on their class).  Each call
becomes a span (name, start, end, parent span) kept in flat arrays in memory
and written out when the run ends.  Self time is a span's duration minus the
durations of its child spans.  Counters are read from the arguments and
results of the wrapped calls and from the caches on live ``Game`` objects.

Nothing under ``src/`` is changed: wrappers are installed for the traced pass
and removed afterwards.  A target missing at the commit under test is
reported as absent; its metrics read 0.
"""

import importlib
import json
import sys
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

from workloads import CLI_KINDS, scan_box

PACKAGE = "chipfire"

# (module, attribute path, layer name).  A dotted path wraps a method defined
# on that class, so "C.__init__" counts constructions of C.
TARGETS = [
    ("graph_core", "LatticeHandle.__init__", "graph_core.LatticeHandle"),
    ("graph_core", "period_vector", "graph_core.period_vector"),
    ("graph_core", "LatticeHandle.residue", "graph_core.residue"),
    ("graph_core", "LatticeHandle.contains", "graph_core.contains"),
    ("games", "Game.__init__", "games.Game"),
    ("games", "Game.apply", "games.apply"),
    ("divisor_algebra", "equivalent", "divisor_algebra.equivalent"),
    ("reduction", "is_reduced", "reduction.is_reduced"),
    ("reduction", "reduce", "reduction.reduce"),
    ("reduction", "dhar", "reduction.dhar"),
    ("reduction", "all_reduced_representatives", "reduction.all_reduced_representatives"),
    ("rank_extremes", "rank", "rank_extremes.rank"),
    ("rank_extremes", "in_sigma", "rank_extremes.in_sigma"),
    ("rank_extremes", "enumerate_extremes", "rank_extremes.enumerate_extremes"),
    ("rank_extremes", "is_extreme", "rank_extremes.is_extreme"),
    ("riemann_roch", "rr_verdict", "riemann_roch.rr_verdict"),
    ("riemann_roch", "reflection_invariant", "riemann_roch.reflection_invariant"),
    ("sandpile", "stabilize", "sandpile.stabilize"),
    ("sandpile", "is_recurrent", "sandpile.is_recurrent"),
    ("cli", "main", "cli.main"),
    ("graph_io", "load_graph", "graph_io.load_graph"),
]

# Cache attributes on Game, read at the end of every op.
CACHES = [("reduced_cache", "reduction.reduced_cache"), ("sigma_cache", "rank_extremes.sigma_cache")]

RR, RS, CQ = "rr-ladder", "rank-sweep", "cli-queries"

# Per-layer metrics: name -> (unit, better, end-to-end metric it should
# move, workloads where it should move it).
LAYER_METRICS = {}


def _metric(name, unit, better, moves, *workloads):
    LAYER_METRICS[name] = (unit, better, moves, workloads)


def _calls_self(name, moves, *workloads):
    _metric(f"{name}.calls", "count", "lower", moves, *workloads)
    _metric(f"{name}.self_s", "s", "lower", moves, *workloads)


_calls_self("graph_core.LatticeHandle", "setup_s", RR, RS, CQ)
_calls_self("graph_core.period_vector", "setup_s", RR, RS, CQ)
_calls_self("graph_core.residue", "wall_s", RS)
_calls_self("graph_core.contains", "wall_s", RR)
_calls_self("games.Game", "op_p50_ms", CQ)
_calls_self("games.apply", "op_p50_ms", CQ)
_metric("divisor_algebra.equivalent.calls", "count", "lower", "wall_s", RR)
_calls_self("reduction.is_reduced", "wall_s", RR)
_metric("reduction.is_reduced.misses", "count", "lower", "wall_s", RR)
_metric("reduction.is_reduced.hit_ratio", "ratio", "higher", "wall_s", RR)
_calls_self("reduction.reduce", "op_p50_ms", CQ)
_calls_self("reduction.dhar", "op_p50_ms", CQ)
_metric("reduction.dhar.steps", "count", "lower", "op_p50_ms", CQ)
_calls_self("reduction.all_reduced_representatives", "wall_s", RS)
_metric("reduction.reduced_cache.entries", "count", "lower", "peak_rss_mb", RR)
_calls_self("rank_extremes.rank", "wall_s", RS, CQ)
_calls_self("rank_extremes.in_sigma", "wall_s", RS, CQ)
_metric("rank_extremes.in_sigma.misses", "count", "lower", "wall_s", RS, CQ)
_metric("rank_extremes.in_sigma.hit_ratio", "ratio", "higher", "wall_s", RS, CQ)
_metric("rank_extremes.sigma_cache.entries", "count", "lower", "peak_rss_mb", RR, RS)
_calls_self("rank_extremes.enumerate_extremes", "wall_s", RR)
_metric("rank_extremes.enumerate_extremes.candidates", "count", "lower", "wall_s", RR)
_metric("rank_extremes.enumerate_extremes.classes", "count", "higher", "wall_s", RR)
_metric("rank_extremes.enumerate_extremes.class_yield", "ratio", "higher", "wall_s", RR)
_metric("rank_extremes.is_extreme.calls", "count", "lower", "wall_s", RR)
_calls_self("riemann_roch.rr_verdict", "wall_s", RR)
_metric("riemann_roch.reflection_invariant.self_s", "s", "lower", "wall_s", RR)
_calls_self("sandpile.stabilize", "op_p50_ms", CQ)
_metric("sandpile.stabilize.firings", "count", "lower", "op_p50_ms", CQ)
_calls_self("sandpile.is_recurrent", "op_p50_ms", CQ)
_calls_self("cli.main", "op_p50_ms", CQ)
_metric("graph_io.load_graph.self_s", "s", "lower", "op_p50_ms", CQ)
for _sub in CLI_KINDS:
    _metric(f"cli.{_sub}.p50_ms", "ms", "lower", "op_p50_ms", CQ)
_metric("trace.overhead_s", "s", "lower", "wall_s", RR, RS, CQ)


def _cache_hook(attr, counter):
    """Count cache misses as growth of a Game cache across the call."""

    def hook(tracer, args, kwargs):
        cache = getattr(args[0], attr, None) if args else None
        if cache is None:
            return None
        before = len(cache)

        def done(result):
            tracer.counts[counter] += len(cache) - before

        return done

    return hook


def _game_hook(tracer, args, kwargs):
    tracer.track_game(args[0])
    return None


def _dhar_hook(tracer, args, kwargs):
    def done(trace):
        tracer.counts["reduction.dhar.steps"] += len(trace.steps)

    return done


def _stabilize_hook(tracer, args, kwargs):
    def done(result):
        tracer.counts["sandpile.stabilize.firings"] += sum(result[1])

    return done


def _extremes_hook(tracer, args, kwargs):
    game = args[0]
    base = args[1] if len(args) > 1 else kwargs.get("base", 0)

    def done(result):
        tracer.counts["rank_extremes.enumerate_extremes.candidates"] += scan_box(game, base)
        tracer.counts["rank_extremes.enumerate_extremes.classes"] += len(result.classes)

    return done


HOOKS = {
    "games.Game": _game_hook,
    "reduction.is_reduced": _cache_hook("reduced_cache", "reduction.is_reduced.misses"),
    "rank_extremes.in_sigma": _cache_hook("sigma_cache", "rank_extremes.in_sigma.misses"),
    "reduction.dhar": _dhar_hook,
    "sandpile.stabilize": _stabilize_hook,
    "rank_extremes.enumerate_extremes": _extremes_hook,
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = defaultdict(int)
        self.cache_peak = defaultdict(int)
        self.absent = []
        self._games = weakref.WeakSet()
        self._patches = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx):
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self.name_id(name)
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            done = hook(self, args, kwargs) if hook else None
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if done is not None:
                done(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def track_game(self, game):
        self._games.add(game)

    def op_done(self):
        """Record cache sizes over the Games alive at the end of an op."""
        for attr, name in CACHES:
            total = sum(len(getattr(g, attr, ())) for g in self._games)
            self.cache_peak[name] = max(self.cache_peak[name], total)

    def install(self):
        """Wrap every target at each of its binding sites."""
        for module_name, path, name in TARGETS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(attr)
                if original is None:
                    self.absent.append(name)
                else:
                    self._patch(owner, attr, self.wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans: one JSON header line, then the four arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)


def self_times(names, span_name, span_parent, span_start, span_end):
    """Per-name (calls, self seconds): each span's duration minus its children's."""
    n = len(span_name)
    child = [0.0] * n
    for i in range(n):
        parent = span_parent[i]
        if parent >= 0:
            child[parent] += span_end[i] - span_start[i]
    out = {name: [0, 0.0] for name in names}
    for i in range(n):
        entry = out[names[span_name[i]]]
        entry[0] += 1
        entry[1] += span_end[i] - span_start[i] - child[i]
    return out


def layer_metrics(tracer, op_kinds=None, op_seconds=None, overhead_s=0.0):
    """Every metric in LAYER_METRICS, from a finished traced pass.

    op_kinds/op_seconds give the CLI subcommand of each op and its untraced
    latency, for cli.<subcommand>.p50_ms.
    """
    values = dict.fromkeys(LAYER_METRICS, 0)
    times = self_times(
        tracer.names, tracer.span_name, tracer.span_parent, tracer.span_start, tracer.span_end
    )
    for name, (calls, self_s) in times.items():
        if f"{name}.calls" in values:
            values[f"{name}.calls"] = calls
        if f"{name}.self_s" in values:
            values[f"{name}.self_s"] = self_s
    for key, count in tracer.counts.items():
        values[key] = count
    for key, peak in tracer.cache_peak.items():
        values[f"{key}.entries"] = peak
    for name in ("reduction.is_reduced", "rank_extremes.in_sigma"):
        calls, _ = times.get(name, (0, 0.0))
        misses = tracer.counts.get(f"{name}.misses")
        if calls and misses is not None:
            values[f"{name}.hit_ratio"] = 1 - misses / calls
    candidates = values["rank_extremes.enumerate_extremes.candidates"]
    if candidates:
        values["rank_extremes.enumerate_extremes.class_yield"] = (
            values["rank_extremes.enumerate_extremes.classes"] / candidates
        )
    if op_kinds:
        by_kind = defaultdict(list)
        for kind, seconds in zip(op_kinds, op_seconds):
            by_kind[kind].append(seconds)
        for kind, samples in by_kind.items():
            key = f"cli.{kind}.p50_ms"
            if key in values:
                values[key] = percentile(samples, 50) * 1e3
    values["trace.overhead_s"] = overhead_s
    return values


def percentile(samples, pct):
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
