"""Span timing and counters wrapped around telesim's public functions.

The wrappers live here, not in the package: installing them replaces each
function in its defining module and in every other ``telesim`` module that
bound it by name (``cli`` does ``from .verify import check_bogoliubov``), and
replaces methods on their classes. Uninstalling restores the originals.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans plus the time no span covers add up to the
traced wall time.

``Evaluator.eval`` recurses once per DAG node, millions of times per op, so
only the outermost call of a recursion opens a span; inner calls just bump a
counter. Memo misses are counted at ``Evaluator._eval``, which the evaluator
calls exactly once per distinct (evaluator, expression) pair.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from dataclasses import fields

# span name -> (defining module, attribute path)
SPANS = {
    "dsl.parse": ("telesim.dsl", "parse_circuit"),
    "circuit.evaluate": ("telesim.circuit", "evaluate_circuit"),
    "coeff.eval": ("telesim.coeff", "Evaluator.eval"),
    "opalg.table": ("telesim.opalg", "ModeEvaluator.table"),
    "opalg.variance": ("telesim.opalg", "quadrature_variance"),
    "opalg.prune": ("telesim.opalg", "prune_for_display"),
    "verify.bogoliubov": ("telesim.verify", "check_bogoliubov"),
    "verify.limits": ("telesim.verify", "limit_coefficients"),
    "verify.oracle": ("telesim.verify", "covariance_oracle"),
    "verify.causality": ("telesim.verify", "causality_report"),
    "verify.signaling": ("telesim.verify", "signaling_test"),
    "verify.selectivity": ("telesim.verify", "selectivity_report"),
    "cli.report": ("telesim.cli", "emit_report"),
    "cli.render": ("telesim.cli", "ReportDocument.render"),
    "cli.self": ("telesim.cli", "main"),
}

COUNTS = (
    "coeff.eval_calls",
    "coeff.eval_misses",
    "coeff.evaluators",
    "opalg.table_calls",
    "opalg.table_repeats",
)


class Tracer:
    """Collects span self times and counters while installed."""

    def __init__(self):
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.fires = dict.fromkeys(SPANS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.covered_s = 0.0
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        # in place: the installed wrappers hold these dicts
        for key in self.self_s:
            self.self_s[key] = 0.0
        for table in (self.fires, self.counts):
            for key in table:
                table[key] = 0
        self.covered_s = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, (module_name, path) in SPANS.items():
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            if name == "coeff.eval":
                wrapper = self._eval_entry(original, self._span(name, original))
            elif name == "opalg.table":
                wrapper = self._span(name, self._table_counter(original))
            else:
                wrapper = self._span(name, original)
            self._replace(owner, attr, original, wrapper)
        coeff = sys.modules["telesim.coeff"]
        self._replace(
            coeff.Evaluator, "_eval", coeff.Evaluator._eval,
            self._counter("coeff.eval_misses", coeff.Evaluator._eval),
        )
        self._replace(
            coeff.Evaluator, "__init__", coeff.Evaluator.__init__,
            self._counter("coeff.evaluators", coeff.Evaluator.__init__),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, original, wrapper) -> None:
        targets = [owner]
        if isinstance(owner, type(sys)):
            # every module that imported the function by name holds its own binding
            targets = [
                module
                for key, module in sorted(sys.modules.items())
                if (key == "telesim" or key.startswith("telesim."))
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._restore.append((target, attr, original))
            setattr(target, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        fires = self.fires

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self_s[name] += elapsed - stack.pop()
                fires[name] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed

        return wrapper

    def _eval_entry(self, plain, spanned):
        counts = self.counts
        depth = [0]

        @functools.wraps(plain)
        def eval(evaluator, expr):
            counts["coeff.eval_calls"] += 1
            if depth[0]:
                return plain(evaluator, expr)
            depth[0] = 1
            try:
                return spanned(evaluator, expr)
            finally:
                depth[0] = 0

        return eval

    def _table_counter(self, fn):
        counts = self.counts
        # ModeEvaluator caches each table with its expression, so an id seen
        # by a live evaluator cannot have been recycled
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

        @functools.wraps(fn)
        def table(evaluator, expr):
            counts["opalg.table_calls"] += 1
            ids = seen.setdefault(evaluator, set())
            if id(expr) in ids:
                counts["opalg.table_repeats"] += 1
            else:
                ids.add(id(expr))
            return fn(evaluator, expr)

        return table

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def dag_stats(protocols) -> tuple[int, int]:
    """Unique coefficient nodes and longest path over all port coefficients.

    Nodes are counted once per circuit; depth counts nodes along the path,
    so a lone constant has depth 1. The walk is iterative because deep
    N-bin DAGs exceed the interpreter's recursion limit.
    """
    from telesim.coeff import CoefExpr

    nodes = 0
    depth = 0
    for protocol in protocols:
        depth_of: dict[int, int] = {}
        roots = [
            coef
            for expr in protocol.all_ports().values()
            for pair in expr.terms.values()
            for coef in pair
        ]
        for root in roots:
            stack = [root]
            while stack:
                node = stack[-1]
                if id(node) in depth_of:
                    stack.pop()
                    continue
                kids = [
                    value
                    for value in (getattr(node, f.name) for f in fields(node))
                    if isinstance(value, CoefExpr)
                ]
                pending = [kid for kid in kids if id(kid) not in depth_of]
                if pending:
                    stack.extend(pending)
                    continue
                depth_of[id(node)] = 1 + max((depth_of[id(k)] for k in kids), default=0)
                stack.pop()
            depth = max(depth, depth_of[id(root)])
        nodes += len(depth_of)
    return nodes, depth
