"""Span tracer that wraps relgw's public functions from the outside.

Nothing in the program is edited: `Tracer.install()` replaces every binding
of a traced function (the defining module's and each `from .x import y`
copy in other relgw modules) and every traced method on its class with a
timing wrapper, and `uninstall()` puts the originals back.

Two kinds of span exist:

* kept spans (commands, parsing, evaluator calls, enumerations) are stored
  one by one as (id, name, start, end, parent id, self seconds);
* hot spans (lattice arithmetic, keys, cone enumeration, about a million
  calls per pass) are summed per (nearest kept parent span, name) into
  call count, total seconds and self seconds.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans plus the untraced remainder of
the root add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from collections import Counter
from dataclasses import dataclass

ROOT_SPAN = 0


@dataclass(frozen=True)
class Target:
    """One traced callable: `owner` names the class of a method, None for
    a module-level function."""

    name: str
    module: str
    owner: str | None
    attr: str
    hot: bool
    hook: str | None = None


def _t(name, module, attr, owner=None, hot=False, hook=None):
    return Target(name, module, owner, attr, hot, hook)


# Layer -> traced callables.  Names are "<layer>.<what>"; the metric names in
# BENCHMARK.json are built from them (see `layer_metrics`).
TARGETS = (
    _t("lattice.class_new", "relgw.lattice", "__post_init__", "HomologyClass", hot=True),
    _t("lattice.add", "relgw.lattice", "__add__", "HomologyClass", hot=True),
    _t("lattice.encode", "relgw.lattice", "encode", "HomologyClass", hot=True),
    _t("lattice.intersect", "relgw.lattice", "intersect", "IntersectionForm",
       hot=True),
    _t("lattice.area", "relgw.lattice", "__call__", "LinearFunctional", hot=True),
    _t("lattice.map", "relgw.lattice", "__call__", "LatticeMap", hot=True),
    _t("spaces.classes", "relgw.spaces", "classes", "EffectiveModel", hot=True,
       hook="classes_out"),
    _t("spaces.builtin", "relgw.spaces", "builtin", hot=True),
    _t("dimension.expected", "relgw.dimension", "expected_dimension", hot=True),
    _t("dimension.key", "relgw.dimension", "key", "InvariantSpec", hot=True),
    _t("vanishing.decide", "relgw.vanishing", "decide", hook="decide"),
    _t("vanishing.hypothesis", "relgw.vanishing", "check_degeneration_hypothesis"),
    _t("kbeval.seed_table", "relgw.kbeval", "seed_table"),
    _t("kbeval.evaluate", "relgw.kbeval", "evaluate", "Evaluator", hook="evaluate"),
    _t("kbeval.solver", "relgw.kbeval", "splitting_identity"),
    _t("strata.enumerate", "relgw.strata", "enumerate_strata", hook="strata"),
    _t("strata.key", "relgw.strata", "stratum_key", hot=True),
    _t("strata.validate", "relgw.strata", "validate", hot=True),
    _t("decompose.ledger", "relgw.decompose", "evaluate_decomposition", hook="ledger"),
    _t("decompose.prune", "relgw.decompose", "prune_term", hook="prune"),
    _t("scenario.parse", "relgw.scenario", "parse_scenario"),
    _t("cli.run", "relgw.cli", "run"),
)

# Callables that are only counted, never timed: their time stays in the
# caller's self time.
COUNTED = (
    ("strata.candidates", "relgw.strata", None, "total_genus"),
    ("kbeval.kb_write", "relgw.kbeval", "KnowledgeBase", "add"),
)


class Tracer:
    """Span bookkeeping.  `clock` is injectable so tests can script time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []          # kept spans, in end order
        self.agg: dict[tuple[int, str], list] = {}
        self.counters: Counter = Counter()
        self.active: Counter = Counter()      # kept-span nesting per name
        self._next_id = ROOT_SPAN + 1
        # frame = [child seconds, kept span id]; the root frame never closes
        self.stack: list[list] = [[0.0, ROOT_SPAN]]
        self._patches: list[tuple[object, str, object]] = []

    # -- span arithmetic ---------------------------------------------------

    def enter(self) -> list:
        frame = [0.0, self.stack[-1][1]]
        self.stack.append(frame)
        return frame

    def leave_hot(self, name: str, frame: list, dur: float) -> None:
        self.stack.pop()
        parent = self.stack[-1]
        parent[0] += dur
        key = (parent[1], name)
        entry = self.agg.get(key)
        if entry is None:
            self.agg[key] = [1, dur, dur - frame[0]]
        else:
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame[0]

    def enter_kept(self, name: str) -> list:
        frame = [0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def leave_kept(self, name: str, frame: list, start: float,
                   end: float) -> None:
        self.stack.pop()
        self.active[name] -= 1
        parent = self.stack[-1]
        dur = end - start
        parent[0] += dur
        self.spans.append((frame[1], name, start, end, parent[1],
                           dur - frame[0]))

    @contextlib.contextmanager
    def span(self, name: str):
        """A kept span opened by the benchmark itself."""
        frame = self.enter_kept(name)
        start = self.clock()
        try:
            yield
        finally:
            self.leave_kept(name, frame, start, self.clock())

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds], spans of all kinds.

        Total seconds of a recursive name count nested calls again; self
        seconds never double count.
        """
        out: dict[str, list] = {}
        for _id, name, start, end, _parent, self_s in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        for (_parent, name), (calls, total, self_s) in self.agg.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        return out

    def write(self, path) -> None:
        """Kept spans and per-parent hot aggregates as gzipped TSV."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("kind\tid\tname\tstart\tend\tparent\tcalls\ttotal_s"
                     "\tself_s\n")
            for sid, name, start, end, parent, self_s in self.spans:
                fh.write(f"span\t{sid}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{parent}\t1\t{end - start:.9f}\t{self_s:.9f}\n")
            for (parent, name), (calls, total, self_s) in sorted(
                    self.agg.items()):
                fh.write(f"agg\t-\t{name}\t-\t-\t{parent}\t{calls}\t"
                         f"{total:.9f}\t{self_s:.9f}\n")

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            self._patch(target.module, target.owner, target.attr,
                        lambda fn, t=target: self._wrap(t, fn))
        for name, module, owner, attr in COUNTED:
            self._patch(module, owner, attr,
                        lambda fn, n=name: self._count(n, fn))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, module, owner, attr, make) -> None:
        mod = sys.modules[module]
        if owner is not None:
            holder = getattr(mod, owner)
            original = holder.__dict__[attr]
            self._patches.append((holder, attr, original))
            setattr(holder, attr, make(original))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        # every module-level binding of the same function object
        for modname, other in list(sys.modules.items()):
            if other is None or not (modname == "relgw"
                                     or modname.startswith("relgw.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, key, original))
                    setattr(other, key, wrapped)

    def _wrap(self, target: Target, fn):
        name, clock = target.name, self.clock
        hook = _HOOKS[target.hook] if target.hook else None
        counters = self.counters
        if target.hot:
            enter, leave = self.enter, self.leave_hot

            @functools.wraps(fn)
            def hot(*args, **kwargs):
                frame = enter()
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(name, frame, clock() - start)
                if hook is not None:
                    hook(self, counters, result)
                return result
            return hot

        enter_kept, leave_kept = self.enter_kept, self.leave_kept

        @functools.wraps(fn)
        def kept(*args, **kwargs):
            frame = enter_kept(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave_kept(name, frame, start, clock())
            if hook is not None:
                hook(self, counters, result)
            return result
        return kept

    def _count(self, name: str, fn):
        counters, active = self.counters, self.active

        if name == "kbeval.kb_write":
            @functools.wraps(fn)
            def write(*args, **kwargs):
                added = fn(*args, **kwargs)
                if added and active["kbeval.evaluate"]:
                    counters[name] += 1
                return added
            return write

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted


# -- result hooks: counts read off the values a layer returns ---------------


def _hook_classes_out(tracer, counters, result):
    counters["spaces.classes_out"] += len(result)


def _hook_decide(tracer, counters, result):
    counters["vanishing.zero"] += bool(result.is_zero)


def _hook_evaluate(tracer, counters, result):
    # outermost evaluations only: the ones a caller asked for
    if tracer.active["kbeval.evaluate"] == 0:
        counters["kbeval.outer"] += 1
        counters["kbeval.known"] += bool(result.known)


def _hook_strata(tracer, counters, result):
    counters["strata.found"] += len(result)


def _hook_ledger(tracer, counters, result):
    counters["decompose.terms"] += len(result.reports)
    counters["decompose.excluded"] += sum(result.excluded.values())


def _hook_prune(tracer, counters, result):
    counters["decompose.pruned"] += result is not None


_HOOKS = {
    "classes_out": _hook_classes_out,
    "decide": _hook_decide,
    "evaluate": _hook_evaluate,
    "strata": _hook_strata,
    "ledger": _hook_ledger,
    "prune": _hook_prune,
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit), all of them, zeros included."""
    t = tracer.totals()
    c = tracer.counters

    def calls(name):
        return t.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return t.get(name, [0, 0.0, 0.0])[2]

    out: dict[str, tuple[float, str]] = {}

    def pair(metric, name):
        out[f"{metric}_calls"] = (calls(name), "count")
        out[f"{metric}_s"] = (self_s(name), "s")

    out["lattice.class_new"] = (calls("lattice.class_new"), "count")
    out["lattice.class_new_s"] = (self_s("lattice.class_new"), "s")
    for short in ("add", "encode", "intersect", "area", "map"):
        pair(f"lattice.{short}", f"lattice.{short}")
    pair("spaces.classes", "spaces.classes")
    out["spaces.classes_out"] = (c["spaces.classes_out"], "count")
    out["spaces.builtin_s"] = (self_s("spaces.builtin"), "s")
    pair("dimension.expected", "dimension.expected")
    pair("dimension.key", "dimension.key")
    pair("vanishing.decide", "vanishing.decide")
    out["vanishing.zero_ratio"] = (
        _ratio(c["vanishing.zero"], calls("vanishing.decide")), "ratio")
    pair("vanishing.hypothesis", "vanishing.hypothesis")
    pair("kbeval.seed_table", "kbeval.seed_table")
    pair("kbeval.evaluate", "kbeval.evaluate")
    pair("kbeval.solver", "kbeval.solver")
    out["kbeval.kb_writes"] = (c["kbeval.kb_write"], "count")
    out["kbeval.known_ratio"] = (
        _ratio(c["kbeval.known"], c["kbeval.outer"]), "ratio")
    pair("strata.enumerate", "strata.enumerate")
    out["strata.candidates"] = (c["strata.candidates"], "count")
    out["strata.found"] = (c["strata.found"], "count")
    out["strata.useful_ratio"] = (
        _ratio(c["strata.found"], c["strata.candidates"]), "ratio")
    pair("strata.key", "strata.key")
    pair("strata.validate", "strata.validate")
    out["decompose.ledger_calls"] = (calls("decompose.ledger"), "count")
    # inclusive: the whole ledger, enumeration and evaluation together
    out["decompose.ledger_s"] = (t.get("decompose.ledger", [0, 0.0])[1], "s")
    out["decompose.enumerate_self_s"] = (self_s("decompose.ledger"), "s")
    out["decompose.terms"] = (c["decompose.terms"], "count")
    out["decompose.excluded"] = (c["decompose.excluded"], "count")
    pair("decompose.prune", "decompose.prune")
    out["decompose.pruned"] = (c["decompose.pruned"], "count")
    pair("scenario.parse", "scenario.parse")
    out["cli.run_calls"] = (calls("cli.run"), "count")
    out["cli.run_self_s"] = (self_s("cli.run"), "s")
    return out

