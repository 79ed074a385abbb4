"""Spans around the public functions of each layer, recorded from outside
the package by replacing module and class attributes.

A span is ``(id, name, start_ns, end_ns, parent_id, query_id, attrs)``.
Spans live in memory in the query's child process and travel back to the
benchmark with the query's result.  A layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# (module, attribute, span name); the span name is the layer that owns
# the function, the attribute is where the caller looks it up
MODULE_TARGETS = (
    ("hdmas.cli", "parse_model", "parsing.parse_model"),
    ("hdmas.cli", "parse_formula", "parsing.parse_formula"),
    ("hdmas.cli", "nf", "normalform.nf"),
    ("hdmas.cli", "check_wellformed", "model.check_wellformed"),
    ("hdmas.engine", "build_prf", "engine.build_prf"),
    ("hdmas.engine", "guard_union", "model.guard_union"),
    ("hdmas.engine", "decide", "qe.decide"),
    ("hdmas.engine", "simplify", "presburger.simplify"),
    ("hdmas.qe", "simplify", "presburger.simplify"),
    ("hdmas.model", "is_valid", "qe.is_valid"),
)
METHOD_TARGETS = (
    ("pre_image", "engine.pre_image"),
    ("g_fixpoint", "engine.g_fixpoint"),
    ("u_fixpoint", "engine.u_fixpoint"),
)
ROOT = "cli.query"


class Tracer:
    """Installs and removes the wrappers; collects spans of one query."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.query: int | None = None
        self._stack: list[int] = []
        self._next = 0
        self._saved: list[tuple] = []

    def begin(self, query: int) -> None:
        self.spans, self.query, self._stack, self._next = [], query, [], 0

    def _wrap(self, name: str, fn, fixpoint: bool = False):
        tracer = self
        signature = inspect.signature(fn) if fixpoint else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else None
            states = None
            if signature is not None:
                # the fixpoints append one state set per iteration to
                # ``trace``, after the starting set
                bound = signature.bind(*args, **kwargs)
                if bound.arguments.get("trace") is None:
                    states = bound.arguments["trace"] = []
                    args, kwargs = bound.args, bound.kwargs
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                attrs = (None if states is None
                         else {"iterations": max(len(states) - 1, 0)})
                tracer.spans.append((sid, name, start, end, parent,
                                     tracer.query, attrs))
        return wrapper

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        import importlib

        from hdmas.engine import ModelChecker

        for module_name, attr, span in MODULE_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        for attr, span in METHOD_TARGETS:
            original = getattr(ModelChecker, attr)
            self._saved.append((ModelChecker, attr, original))
            setattr(ModelChecker, attr,
                    self._wrap(span, original, fixpoint=attr != "pre_image"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


SIMPLIFY = "presburger.simplify"
FIXPOINTS = ("engine.g_fixpoint", "engine.u_fixpoint")


def layer_totals(spans) -> dict[str, float]:
    """Per-layer counts and milliseconds of one query's spans."""
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[4] is not None:
            child_ns[s[4]] += s[3] - s[2]
    total_ms: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    simplify_calls = 0
    simplify_ms = 0.0
    iterations = 0
    for sid, name, start, end, parent, _query, attrs in spans:
        calls[name] += 1
        total_ms[name] += (end - start) / 1e6
        self_ms[name] += (end - start - child_ns[sid]) / 1e6
        if name in FIXPOINTS and attrs:
            iterations += attrs["iterations"]
        if name == SIMPLIFY:
            ancestor = parent
            while ancestor is not None and by_id[ancestor][1] != SIMPLIFY:
                ancestor = by_id[ancestor][4]
            if ancestor is None:
                simplify_calls += 1
                simplify_ms += (end - start) / 1e6
    return {
        "engine.build_prf_calls": calls["engine.build_prf"],
        "engine.build_prf_self_ms": self_ms["engine.build_prf"],
        "model.guard_union_calls": calls["model.guard_union"],
        "model.guard_union_ms": total_ms["model.guard_union"],
        "engine.pre_image_self_ms": self_ms["engine.pre_image"],
        "engine.fixpoint_iterations": iterations,
        "qe.decide_calls": calls["qe.decide"],
        "qe.decide_self_ms": self_ms["qe.decide"],
        "presburger.simplify_calls": simplify_calls,
        "presburger.simplify_ms": simplify_ms,
        "model.check_wellformed_self_ms": self_ms["model.check_wellformed"],
        "qe.is_valid_calls": calls["qe.is_valid"],
        "qe.is_valid_ms": total_ms["qe.is_valid"],
        "parsing.parse_model_ms": total_ms["parsing.parse_model"],
        "parsing.parse_formula_ms": total_ms["parsing.parse_formula"],
        "normalform.nf_ms": total_ms["normalform.nf"],
        "cli.query_self_ms": self_ms[ROOT],
    }
