"""Span tracing of jtcalc's layers from outside the package.

`Tracer.installed()` replaces each traced public function with a wrapper,
at its defining module and at every other jtcalc module that bound the same
object by name (`strata` imports `jt_at_point`, `theta` imports
`eval_unipotent`, and so on), and wraps `ExactMatrix`, `Chart`,
`Polynomial` and `RatFunc` methods on their classes.  On exit every binding
is restored.  Nothing under `src/` is edited.

A span is (id, parent id, name, start, end, nested), kept in memory and
written out when the run ends.  `nested` marks a span that runs inside
another span of the same name (e.g. `eval_ga_point` calling
`texp_element`), so inclusive times count the outermost one only.  Counts
without spans (points yielded, constraint checks, `pow(p)` calls, matrix
cells ranked, `RatFunc` operations) are plain counters.
"""

from __future__ import annotations

import gzip
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# per-layer metric -> (kind, span names or counter); kinds:
#   s      inclusive seconds of the outermost spans
#   calls  number of outermost spans
#   self_s seconds of the spans minus their traced children
#   count  counter value
METRICS = {
    "strata.points": ("count", "strata.points"),
    "strata.tuple_at.self_s": ("self_s", ("strata.tuple_at",)),
    "strata.aggregate.self_s": ("self_s", ("strata.aggregate",)),
    "strata.minors.s": ("s", ("strata.minors",)),
    "theta.jt_at_point.calls": ("calls", ("theta.jt_at_point",)),
    "theta.full.self_s": ("self_s", ("theta.full",)),
    "theta.exp.self_s": ("self_s", ("theta.exp",)),
    "theta.one_param.self_s": ("self_s", ("theta.one_param",)),
    "modules.validate.s": ("s", ("modules.validate",)),
    "modules.validate.calls": ("calls", ("modules.validate",)),
    "modules.texp.s": ("s", ("modules.texp",)),
    "modules.eval_unipotent.self_s": ("self_s", ("modules.eval_unipotent",)),
    "linalg.rank.ff1_s": ("s", ("linalg.rank.ff1",)),
    "linalg.rank.ffn_s": ("s", ("linalg.rank.ffn",)),
    "linalg.rank.sym_s": ("s", ("linalg.rank.sym",)),
    "linalg.rank.calls": ("calls", ("linalg.rank.ff1", "linalg.rank.ffn", "linalg.rank.sym")),
    "linalg.rank.cells": ("count", "linalg.rank.cells"),
    "linalg.matmul.ff_s": ("s", ("linalg.matmul.ff",)),
    "linalg.matmul.sym_s": ("s", ("linalg.matmul.sym",)),
    "linalg.matmul.calls": ("calls", ("linalg.matmul.ff", "linalg.matmul.sym")),
    "linalg.kron.s": ("s", ("linalg.kron",)),
    "linalg.pow_p.calls": ("count", "linalg.pow_p.calls"),
    "linalg.minors.s": ("s", ("linalg.minors",)),
    "jordan.rank_profile.self_s": ("self_s", ("jordan.rank_profile",)),
    "jordan.value_space.s": ("s", ("jordan.value_space",)),
    "jordan.value_space.calls": ("calls", ("jordan.value_space",)),
    "fields.poly_eval.s": ("s", ("fields.poly_eval",)),
    "fields.poly_eval.calls": ("calls", ("fields.poly_eval",)),
    "fields.ratfunc.ops": ("count", "fields.ratfunc.ops"),
}
ROOT = "answer"


def unit(metric):
    if metric == "strata.accept_ratio":
        return "ratio"
    if metric == "trace.overhead_frac":
        return "fraction"
    return "s" if metric.endswith("_s") or metric.endswith(".s") else "count"


def _char(domain):
    p = getattr(domain, "p", None)
    return p if p is not None else domain.field.p


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self.reset()

    def reset(self):
        self.spans = []
        self.counters = {}
        self.labels = {}
        self._next = 1
        self._stack = [0]
        self._depth = [0] * len(self.names)

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    # -- recording -------------------------------------------------------------

    def _enter(self, nid):
        sid = self._next
        self._next = sid + 1
        parent = self._stack[-1]
        self._stack.append(sid)
        nested = self._depth[nid] > 0
        self._depth[nid] += 1
        return sid, parent, nested

    def _leave(self, sid, parent, nid, nested, t0, t1):
        self._stack.pop()
        self._depth[nid] -= 1
        self.spans.append((sid, parent, nid, t0, t1, nested))

    def span(self, fn, name):
        """Wrap fn in a span; `name` is a string or a function of the call's arguments."""
        fixed = None if callable(name) else self._name_id(name)
        label = name if callable(name) else None
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            nid = fixed if label is None else self._name_id(label(*args, **kwargs))
            sid, parent, nested = enter(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(sid, parent, nid, nested, t0, perf_counter())

        return wrapper

    def counted(self, fn, counter, amount=None):
        """Wrap fn so each call adds `amount(*args)` (default 1) to a counter."""
        count = self.count

        def wrapper(*args, **kwargs):
            n = 1 if amount is None else amount(*args, **kwargs)
            if n:
                count(counter, n)
            return fn(*args, **kwargs)

        return wrapper

    def counted_gen(self, fn, counter):
        """Wrap a generator function so each yielded item adds 1 to a counter."""
        count = self.count

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                count(counter)
                yield item

        return wrapper

    @contextmanager
    def root(self, label):
        """The span of one answer; every span of that answer descends from it."""
        nid = 0
        sid, parent, nested = self._enter(nid)
        self.labels[sid] = label
        t0 = perf_counter()
        try:
            yield
        finally:
            self._leave(sid, parent, nid, nested, t0, perf_counter())

    # -- installing ----------------------------------------------------------------

    def _wrappers(self):
        """(owner, attribute, wrapper factory) for every traced function."""
        from jtcalc import fields, jordan, linalg, modules, strata, theta

        FiniteField = fields.FiniteField
        TruncatedCurveRing = fields.TruncatedCurveRing

        def rank_label(m):
            d = m.domain
            if isinstance(d, FiniteField):
                return "linalg.rank.ff1" if d.n == 1 else "linalg.rank.ffn"
            return "linalg.rank.sym"

        def matmul_label(a, b):
            d = a.domain
            if isinstance(d, FiniteField) or (
                isinstance(d, TruncatedCurveRing) and isinstance(d.base, FiniteField)
            ):
                return "linalg.matmul.ff"
            return "linalg.matmul.sym"

        span = lambda name: lambda fn: self.span(fn, name)
        funcs = [
            (strata, "tabulate_jt", span("strata.aggregate")),
            (strata, "verify_closed_stratum", span("strata.aggregate")),
            (strata, "constant_rank_on_strata", span("strata.aggregate")),
            (strata, "rank_locus_minors", span("strata.minors")),
            (strata, "enumerate_points", lambda fn: self.counted_gen(fn, "strata.points")),
            (theta, "jt_at_point", span("theta.jt_at_point")),
            (theta, "theta_full", span("theta.full")),
            (theta, "theta_exp", span("theta.exp")),
            (theta, "one_param", span("theta.one_param")),
            (modules, "validate_commuting_tuple", span("modules.validate")),
            (modules, "texp_matrix", span("modules.texp")),
            (modules, "texp_element", span("modules.texp")),
            (modules, "eval_ga_point", span("modules.texp")),
            (modules, "eval_unipotent", span("modules.eval_unipotent")),
            (jordan, "jt_of_nilpotent", span("jordan.rank_profile")),
            (jordan, "jt_tensor", span("jordan.value_space")),
            (jordan, "dominance_leq", span("jordan.value_space")),
            (jordan, "jt_perp", span("jordan.value_space")),
            (jordan, "jt_power", span("jordan.value_space")),
        ]
        M = linalg.ExactMatrix
        methods = [
            (strata.Chart, "tuple_at", span("strata.tuple_at")),
            (strata.Chart, "satisfies", lambda fn: self.counted(fn, "strata.satisfies")),
            (M, "rank", lambda fn: self.span(
                self.counted(fn, "linalg.rank.cells", lambda m: m.rows * m.cols), rank_label)),
            (M, "__matmul__", lambda fn: self.span(fn, matmul_label)),
            (M, "kron", span("linalg.kron")),
            (M, "minors", span("linalg.minors")),
            (M, "pow", lambda fn: self.counted(
                fn, "linalg.pow_p.calls", lambda m, k: int(k == _char(m.domain)))),
            (fields.Polynomial, "evaluate", span("fields.poly_eval")),
            (fields.Polynomial, "evaluate_in", span("fields.poly_eval")),
        ]
        for op in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__truediv__", "__pow__", "inverse"):
            methods.append((fields.RatFunc, op, lambda fn: self.counted(fn, "fields.ratfunc.ops")))
        return funcs, methods

    @contextmanager
    def installed(self):
        funcs, methods = self._wrappers()
        saved = []
        try:
            pkg = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "jtcalc" or name.startswith("jtcalc."))]
            for owner, attr, make in funcs:
                original = getattr(owner, attr)
                wrapped = make(original)
                for mod in pkg:
                    if vars(mod).get(attr) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
            for cls, attr, make in methods:
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                setattr(cls, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the spans and counters recorded since reset()."""
        child = {}
        for sid, parent, nid, t0, t1, nested in self.spans:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        incl, calls, self_s = {}, {}, {}
        for sid, parent, nid, t0, t1, nested in self.spans:
            dur = t1 - t0
            self_s[nid] = self_s.get(nid, 0.0) + dur - child.get(sid, 0.0)
            if not nested:
                incl[nid] = incl.get(nid, 0.0) + dur
                calls[nid] = calls.get(nid, 0) + 1
        table = {"s": incl, "calls": calls, "self_s": self_s}
        out = {}
        for metric, (kind, source) in METRICS.items():
            if kind == "count":
                out[metric] = self.counters.get(source, 0)
                continue
            ids = [self._ids[n] for n in source if n in self._ids]
            out[metric] = sum(table[kind].get(i, 0) for i in ids)
        sat = self.counters.get("strata.satisfies", 0)
        out["strata.accept_ratio"] = out["strata.points"] / sat if sat else 0.0
        return out

    def write(self, path):
        """Write the recorded spans as gzipped JSON."""
        doc = {
            "names": self.names,
            "fields": ["id", "parent", "name", "start", "end", "nested"],
            "answers": {str(k): v for k, v in self.labels.items()},
            "counters": self.counters,
            "spans": [[s, p, n, round(t0, 9), round(t1, 9), int(x)] for s, p, n, t0, t1, x in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
