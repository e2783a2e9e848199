"""Outside-in tracing: wrap troplane's public functions and record spans.

Callers inside troplane use ``from .x import f`` and ``verify.SUITES`` holds
function references, so installing a wrapper rebinds every ``troplane.*``
module attribute (and every SUITES entry) that refers to a wrapped function.
A wrapper records a span only while an op is in progress, so input
generation and output checks leave no spans.

A span is ``(name index, start ns, end ns, parent span, op id, pass)``.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

from troplane import verify

from workloads import SUITE_NAMES

LAYERS = {
    "cli": ("main", "parse_matrix"),
    "normalform": ("canonical_form", "normalize", "read_params"),
    "matrices": ("mul", "power", "MonomialMatrix.to_matrix",
                 "MonomialMatrix.conjugate"),
    "triangle": ("analyze", "member"),
    "arrangement": ("enumerate_cells", "signature_at", "antenna_cell",
                    "bounded_complex"),
    "mapping": ("piecewise_report", "apply", "project"),
    "svgfig": ("render_figure", "fmt"),
    "projective": ("cross",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
SUITES = tuple(f"verify.{name}" for name in SUITE_NAMES)
CELLS = "arrangement.enumerate_cells"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in order."""
    out = []
    for fn in FUNCTIONS:
        out.append((f"{fn}.calls_per_op", "count", "lower"))
        out.append((f"{fn}.self_ms_per_op", "ms", "lower"))
    out.append((f"{CELLS}.cells_per_call", "count", "higher"))
    out += [(f"{s}.self_ms_per_op", "ms", "lower") for s in SUITES]
    out.append(("trace_overhead_ratio", "ratio", "higher"))
    return out


class Tracer:
    def __init__(self):
        self.names = list(FUNCTIONS + SUITES)
        self.spans: list = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.pass_id = 0
        self.cells = Counter()  # pass -> cells returned by enumerate_cells
        self._undo: list = []

    def _wrap(self, name: str, fn):
        idx = self.names.index(name)
        spans, stack = self.spans, self.stack
        count_cells = name == CELLS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (idx, start, end, parent, op, self.pass_id)
            if count_cells:
                self.cells[self.pass_id] += len(result.cells)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod, fns in LAYERS.items():
            module = importlib.import_module(f"troplane.{mod}")
            for fn in fns:
                cls_name, _, attr = fn.rpartition(".")
                if cls_name:
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[attr]
                    wrapper = self._wrap(f"{mod}.{fn}", orig)
                    self._set(cls, attr, wrapper)
                else:
                    orig = getattr(module, attr)
                    wrapper = self._wrap(f"{mod}.{fn}", orig)
                wrapped[id(orig)] = (orig, wrapper)
        known = set(SUITE_NAMES)
        for name, fn in verify.SUITES:
            if name in known:
                wrapped[id(fn)] = (fn, self._wrap(f"verify.{name}", fn))
        suites = list(verify.SUITES)
        self._undo.append((verify.SUITES, None, suites))
        verify.SUITES[:] = [(name, wrapped.get(id(fn), (fn, fn))[1])
                            for name, fn in suites]
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "troplane" and not mod_name.startswith("troplane."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if attr is None:
                owner[:] = old
            else:
                setattr(owner, attr, old)

    def counts(self, pass_id: int) -> Counter:
        """Calls per wrapped name in one pass."""
        return Counter(self.names[s[0]] for s in self.spans if s[5] == pass_id)

    def metrics(self, ops: int, overhead_ratio: float, scale: float) -> dict:
        """Per-layer metrics over every traced pass; `ops` is their op total
        and `scale` normalizes times to machine speed (see run.py)."""
        child_ns = [0] * len(self.spans)
        for idx, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        self_ns = Counter()
        for sid, (idx, start, end, _, _, _) in enumerate(self.spans):
            calls[idx] += 1
            self_ns[idx] += end - start - child_ns[sid]
        out = {}
        for idx, name in enumerate(self.names):
            if name in FUNCTIONS:
                out[f"{name}.calls_per_op"] = (calls[idx] / ops, "count")
            out[f"{name}.self_ms_per_op"] = (
                self_ns[idx] * scale / 1e6 / ops, "ms")
        n_cells = calls[self.names.index(CELLS)]
        out[f"{CELLS}.cells_per_call"] = (
            sum(self.cells.values()) / n_cells if n_cells else 0.0, "count")
        out["trace_overhead_ratio"] = (overhead_ratio, "ratio")
        return {name: out[name] for name, _, _ in per_layer_metrics()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for idx, start, end, parent, op, pass_id in self.spans:
                f.write(json.dumps([self.names[idx], start, end, parent, op,
                                    pass_id]) + "\n")
