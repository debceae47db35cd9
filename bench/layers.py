"""Layer timing for the traced run, from outside the program.

witness-lab carries no instrumentation of its own, so the traced run
replaces each layer's public functions with timing wrappers at the
places they are looked up: ``solvers``, ``cli``, ``densest`` and ``dsf``
import ``evaluate`` / ``full_join_results`` by name, and
``engine.is_witness`` calls the ``engine`` module global.  A span is
recorded only while an operation (one ``cli.main`` call, the root span
``cli.rest``) is open.  Each layer's self time is its span time minus the
time of the spans nested inside it, so the layers add up to the
operation time.
"""
from __future__ import annotations

import contextlib
import functools
from collections import Counter
from time import perf_counter

ROOT = "cli.rest"

# (module, attribute, layer): every place a layer is looked up during a
# timed operation.  The four solver entry points share one layer.
WRAPPED = (
    ("cli", "load_database", "storage.load_database"),
    ("cli", "write_witness", "storage.write_witness"),
    ("cli", "classify", "structure.classify"),
    ("cli", "evaluate", "engine.evaluate"),
    ("cli", "is_witness", "engine.is_witness"),
    ("cli", "line_to_dsf", "dsf.line_to_dsf"),
    ("cli", "solve_exact_head_cluster", "solvers.solve"),
    ("cli", "solve_approx_head_domination", "solvers.solve"),
    ("cli", "solve_greedy_single_nonoutput", "solvers.solve"),
    ("cli", "solve_baseline_union", "solvers.solve"),
    ("solvers", "evaluate", "engine.evaluate"),
    ("solvers", "full_join_results", "engine.full_join_results"),
    ("solvers", "min_price_candidate", "densest.min_price_candidate"),
    ("engine", "evaluate", "engine.evaluate"),
    ("densest", "evaluate", "engine.evaluate"),
    ("dsf", "evaluate", "engine.evaluate"),
)

LAYERS = (ROOT,) + tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))
PRICED = "densest.min_price_candidate.priced"


class Tracer:
    """Self time per layer and call counts (``<layer>.calls``), accumulated over a run."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # per open span: seconds spent in nested spans
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()

    def span(self, layer: str, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.self_s[layer] += elapsed - frame[0]
            self.calls[f"{layer}.calls"] += 1
            if self._stack:
                self._stack[-1][0] += elapsed

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            result = self.span(layer, fn, *args, **kwargs)
            if layer == "densest.min_price_candidate" and result is not None:
                self.calls[PRICED] += 1
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every entry of ``WRAPPED`` in ``modules`` (name -> module),
        and restore the original functions on exit."""
        saved = []
        try:
            for module, attribute, layer in WRAPPED:
                target = modules[module]
                original = getattr(target, attribute)
                saved.append((target, attribute, original))
                setattr(target, attribute, self._wrap(layer, original))
            yield self
        finally:
            for target, attribute, original in reversed(saved):
                setattr(target, attribute, original)

    def snapshot(self) -> tuple[Counter, Counter]:
        return Counter(self.self_s), Counter(self.calls)
