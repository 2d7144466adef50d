"""Span tracer that wraps quadcong's public layer entry points from outside.

Each wrapped call records a span (name, start, end, parent).  A layer's
self time is its spans' duration minus the time covered by child spans.
Spans stay in memory; `layer_metrics` folds them into the per-layer
metrics named in BENCHMARK.json when the job ends.

A function is replaced at every module binding that holds it, because
callers resolve names through their own module globals: `fundamental_unit`
is called through `quadcong.suite`, `quadcong.cli` and `quadcong.quadfield`
(from `class_number`).  `BernoulliCache` and `CongruenceReport` methods are
patched on the class.  Under `--jobs 2` forked workers inherit the wrappers
but their spans stay in the workers, so only parent-side spans are counted.
"""
from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
import time

# (span name, module, attribute) for plain functions.
FUNCTIONS = (
    ("characters.split_character", "quadcong.characters", "split_character"),
    ("characters.char_values", "quadcong.characters", "char_values"),
    ("quadfield.fundamental_unit", "quadcong.quadfield", "fundamental_unit"),
    ("quadfield.class_number", "quadcong.quadfield", "class_number"),
    ("quadfield.vp_u", "quadcong.quadfield", "vp_u"),
    ("padic.vp", "quadcong.padic", "vp"),
    ("padic.unit_log_series", "quadcong.padic", "unit_log_series"),
    ("padic.fermat_quotient", "quadcong.padic", "fermat_quotient"),
    ("lseries.a_coefficients_direct", "quadcong.lseries", "a_coefficients_direct"),
    ("lseries.wilson_quotient", "quadcong.lseries", "wilson_quotient"),
    ("suite.build_instances", "quadcong.suite", "build_instances"),
    ("suite.run_instance", "quadcong.suite", "run_instance"),
    ("suite.scan", "quadcong.suite", "scan"),
    ("cli.load_cache", "quadcong.cli", "load_cache"),
    ("cli.store_cache", "quadcong.cli", "store_cache"),
    ("reports.make_report", "quadcong.reports", "make_report"),
)

# (span name, module, class, method) for methods patched on the class.
METHODS = (
    ("bernoulli.plain", "quadcong.bernoulli", "BernoulliCache", "bernoulli"),
    ("bernoulli.gen", "quadcong.bernoulli", "BernoulliCache", "gen_bernoulli"),
    ("reports.to_json_line", "quadcong.reports", "CongruenceReport", "to_json_line"),
)

# Spans whose call count and self time are reported.
SELF_TIMED = (
    "bernoulli.gen", "bernoulli.plain",
    "characters.split_character", "characters.char_values",
    "quadfield.fundamental_unit", "quadfield.class_number", "quadfield.vp_u",
    "padic.vp", "padic.unit_log_series", "padic.fermat_quotient",
    "lseries.a_coefficients_direct", "lseries.wilson_quotient",
    "suite.run_instance", "reports.make_report", "reports.to_json_line",
)


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class Tracer:
    """Records spans for the wrapped calls of one job; `restore` unwraps."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, cache growth]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.max_n = 0
        self.distinct_d: set[int] = set()
        self.cache_accepted = 0
        self.cache_rejected = 0
        self.cache_file_bytes = 0
        self.child_cpu_s = 0.0

    # -- span bookkeeping --------------------------------------------------

    def _wrap(self, name: str, fn, cache_arg: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        key = name.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            size0 = len(args[0]) if cache_arg else 0
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            state = before(args) if before else None
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if cache_arg:
                    span[4] = len(args[0]) - size0
            if after:
                after(result, state)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "quadcong" or n.startswith("quadcong."))]
        for name, modname, attr in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, cache_arg=clsname == "BernoulliCache"))

    def restore(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- per-call hooks: `_before_<span>` sees the arguments and returns a
    # state that `_after_<span>` gets with the result --------------------

    def _before_bernoulli_plain(self, args):
        self.max_n = max(self.max_n, args[1])

    def _before_quadfield_fundamental_unit(self, args):
        self.distinct_d.add(args[0])

    def _after_cli_load_cache(self, result, state):
        self.cache_accepted += result[0]
        self.cache_rejected += result[1]

    def _after_cli_store_cache(self, result, state):
        self.cache_file_bytes = os.path.getsize(result)

    def _before_suite_scan(self, args):
        return _children_cpu()

    def _after_suite_scan(self, result, state):
        self.child_cpu_s += _children_cpu() - state

    # -- folding spans into metrics -----------------------------------------

    def layer_metrics(self, cache_entries: int, stream_bytes: int) -> dict[str, float]:
        n = len(self.spans)
        child_time = [0.0] * n
        child_growth = [0] * n
        for name, start, end, parent, growth in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                child_growth[parent] += growth
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        computed: dict[str, int] = {}
        for i, (name, start, end, parent, growth) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            computed[name] = computed.get(name, 0) + growth - child_growth[i]
        m: dict[str, float] = {}
        for name in SELF_TIMED:
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m["bernoulli.gen.computed"] = computed.get("bernoulli.gen", 0)
        m["bernoulli.plain.computed"] = computed.get("bernoulli.plain", 0)
        m["bernoulli.plain.max_n"] = self.max_n
        m["bernoulli.cache.entries"] = cache_entries
        m["quadfield.fundamental_unit.distinct_d"] = len(self.distinct_d)
        m["suite.build_instances.s"] = total.get("suite.build_instances", 0.0)
        m["suite.scan.parent_s"] = total.get("suite.scan", 0.0)
        m["suite.scan.child_cpu_s"] = self.child_cpu_s
        m["cli.load_cache.s"] = total.get("cli.load_cache", 0.0)
        m["cli.load_cache.accepted"] = self.cache_accepted
        m["cli.load_cache.rejected"] = self.cache_rejected
        m["cli.store_cache.s"] = total.get("cli.store_cache", 0.0)
        m["cli.cache_file_bytes"] = self.cache_file_bytes
        m["reports.stream_bytes"] = stream_bytes
        return m
