"""Span tracer that wraps the package's public functions from outside.

Each traced function is replaced at every module-level binding of the same
function object across ``definetti.*``, so copies made by ``from ... import``
and calls between functions of one module (``integration_error_estimate``
calling ``integrate``) are both recorded. A class (``certifier.Instance``) is
traced through its ``__init__``, which keeps ``isinstance`` and dataclass
behaviour intact. A listed name that no longer exists is reported as absent.

Spans live in memory as ``[function index, start, end, parent span, row]``
and are written out once, when the run ends. A row is one ``verify`` call;
spans outside every ``verify`` call have row -1.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

TRACED = {
    "cli": ("main", "parse_state_spec", "parse_rule_spec", "rows_to_csv_text"),
    "certifier": ("Instance", "verify", "chain_bound", "g_max"),
    "haar": ("integrate", "integration_error_estimate", "exact_qubit_rule", "monte_carlo_rule"),
    "hamming": ("weight_family", "threshold_projectors"),
    "linalg": ("sandwich_bra_last", "partial_trace_last", "trace_norm"),
    "symmetric": ("symmetrizer", "random_symmetric_pure"),
}
TRACED_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)
ROW_FUNCTION = "certifier.verify"
CONDITIONING_FUNCTION = "linalg.sandwich_bra_last"


def import_package() -> None:
    """Import every submodule of ``definetti`` so all bindings can be found."""
    package = importlib.import_module("definetti")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"definetti.{info.name}")


def rebind(target, replacement) -> int:
    """Point every module-level binding of `target` in ``definetti.*`` at `replacement`."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "definetti" or name.startswith("definetti.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                setattr(module, attr, replacement)
                count += 1
    return count


def find(qualified: str):
    """The object named ``module.function`` in ``definetti``, or None when absent."""
    module_name, _, attr = qualified.partition(".")
    try:
        module = importlib.import_module(f"definetti.{module_name}")
    except ImportError:
        return None
    return getattr(module, attr, None)


class Tracer:
    """Records one span per call of each function in TRACED."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names: list[str] = []
        self.absent: list[str] = []
        self.spans: list[list] = []
        self.conditioning_bytes = 0
        self._stack: list[int] = []
        self._rows = 0

    def install(self) -> None:
        import_package()
        for qualified in TRACED_NAMES:
            target = find(qualified)
            if target is None:
                self.absent.append(qualified)
                continue
            index = len(self.names)
            self.names.append(qualified)
            if isinstance(target, type):
                target.__init__ = self._wrap(target.__init__, qualified, index)
            else:
                rebind(target, self._wrap(target, qualified, index))

    def _wrap(self, func, qualified: str, index: int):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        starts_row = qualified == ROW_FUNCTION
        counts_bytes = qualified == CONDITIONING_FUNCTION

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if starts_row:
                self._rows += 1
                row = self._rows - 1
            else:
                row = spans[parent][4] if parent >= 0 else -1
            if counts_bytes and args:
                self.conditioning_bytes += getattr(getattr(args[0], "entries", None), "nbytes", 0)
            span = [index, 0.0, 0.0, parent, row]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        payload = {
            "trace_id": self.trace_id,
            "names": self.names,
            "absent": self.absent,
            "conditioning_bytes": self.conditioning_bytes,
            "span_fields": ["function", "start", "end", "parent", "row"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def summarize(trace: dict) -> dict:
    """Per traced name: calls, inclusive time_s and self_s; None for absent names.

    self_s is the span's duration minus the durations of the traced spans
    directly nested in it.
    """
    spans = trace["spans"]
    nested = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            nested[parent] += end - start
    stats = {name: {"calls": 0, "time_s": 0.0, "self_s": 0.0} for name in trace["names"]}
    for (index, start, end, _, _), inner in zip(spans, nested):
        entry = stats[trace["names"][index]]
        entry["calls"] += 1
        entry["time_s"] += end - start
        entry["self_s"] += end - start - inner
    for name in TRACED_NAMES:
        stats.setdefault(name, None)
    return stats
