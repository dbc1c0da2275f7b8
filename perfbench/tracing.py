"""Spans around the calls into each gmlucas layer, installed from outside.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, every public module-level function of the five function layers by a
wrapper that records a span (name, start, end, parent span, request id),
and the add and mul operators of the three arith classes by a wrapper that
counts calls and times the outermost one. Nothing under ``src/`` changes.

A layer's self time is the time its spans cover minus the time covered by
their child spans and by arith operators called directly inside them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from gmlucas.arith import Dyadic, GaussianDyadic, Poly

LAYERS = ("cli", "verify", "symfun", "polyfam", "sequences")
ROUTE_LAYERS = ("sequences", "polyfam", "symfun")
ARITH_CLASSES = (Dyadic, GaussianDyadic, Poly)
ARITH_OPS = {"__add__": "add", "__radd__": "add", "__mul__": "mul", "__rmul__": "mul"}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Wasted-work counters: sym_decompose_* reruns the kernel from zero, and the
# genfun route builds n + 1 coefficients to keep one.
_WORK_COUNTERS = {
    "symfun.kernel_term": ("kernel_steps", lambda a, k: max(_arg(a, k, 1, "n"), 0)),
    "symfun.series_div": ("series_coeffs", lambda a, k: _arg(a, k, 2, "order") + 1),
}

_DONE = object()


class Tracer:
    def __init__(self):
        self.request = None
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.arith_calls: Counter[str] = Counter()
        self.arith_op_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._ids = itertools.count()
        self._arith_depth = 0
        self._origin = time.perf_counter()

    # ------------------------------------------------------------- recording

    def _open(self) -> tuple[list, int | None, float]:
        parent = self._stack[-1][0] if self._stack else None
        frame = [next(self._ids), 0.0]
        self._stack.append(frame)
        return frame, parent, time.perf_counter()

    def _close(self, layer: str, name: str, frame: list, parent, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - frame[1]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((frame[0], name, start - self._origin, end - self._origin,
                           parent, self.request))

    def _wrap_function(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        work = _WORK_COUNTERS.get(name)

        if inspect.isgeneratorfunction(fn):
            # One span per step, so the time spent producing each item lands
            # in this layer rather than in whoever iterates.
            @functools.wraps(fn)
            def traced_steps(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame, parent, start = self._open()
                    try:
                        item = next(gen)
                    except StopIteration:
                        item = _DONE
                    finally:
                        self._close(layer, name, frame, parent, start)
                    if item is _DONE:
                        return
                    yield item

            return traced_steps

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work:
                self.work[work[0]] += work[1](args, kwargs)
            frame, parent, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer, name, frame, parent, start)

        return traced

    def _wrap_op(self, key: str, fn):
        def traced(a, b):
            if self._arith_depth:
                self._arith_depth += 1
                try:
                    result = fn(a, b)
                finally:
                    self._arith_depth -= 1
            else:
                self._arith_depth = 1
                start = time.perf_counter()
                try:
                    result = fn(a, b)
                finally:
                    self._arith_depth = 0
                    elapsed = time.perf_counter() - start
                    self.arith_op_s[key] += elapsed
                    if self._stack:
                        self._stack[-1][1] += elapsed
            if result is not NotImplemented:
                self.arith_calls[key] += 1
            return result

        return traced

    # ---------------------------------------------------------- installation

    @contextlib.contextmanager
    def installed(self):
        """Patch the layers and operators; restore them on exit."""
        undo = []

        def patch(target, attr, value):
            undo.append((target, attr, getattr(target, attr)))
            setattr(target, attr, value)

        try:
            wrapped = {}
            for layer in LAYERS:
                module = importlib.import_module(f"gmlucas.{layer}")
                for attr, obj in vars(module).items():
                    if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                            and not attr.startswith("_")):
                        wrapped[obj] = self._wrap_function(layer, obj)
            # Rebind every reference, including names other modules imported.
            modules = [m for name, m in sys.modules.items()
                       if name == "gmlucas" or name.startswith("gmlucas.")]
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        patch(module, attr, wrapped[obj])
            for cls in ARITH_CLASSES:
                for dunder, op in ARITH_OPS.items():
                    patch(cls, dunder, self._wrap_op(f"{cls.__name__}.{op}", vars(cls)[dunder]))
            yield self
        finally:
            for target, attr, value in reversed(undo):
                setattr(target, attr, value)

    # --------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        names = {span[0]: span[1] for span in self.spans}
        requests = sum(1 for span in self.spans if span[1] == "cli.main" and span[4] is None)
        routes = sum(1 for span in self.spans
                     if span[4] is not None and names[span[4]].startswith("cli.")
                     and span[1].split(".")[0] in ROUTE_LAYERS)
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out["cli.routes_per_request"] = routes / requests if requests else 0.0
        for layer in ROUTE_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
        out["symfun.kernel_steps"] = self.work["kernel_steps"]
        out["symfun.series_coeffs"] = self.work["series_coeffs"]
        out["arith.self_s"] = sum(self.arith_op_s.values())
        for cls in ARITH_CLASSES:
            for op in ("add", "mul"):
                key = f"{cls.__name__}.{op}"
                out[f"arith.calls.{key}"] = self.arith_calls[key]
        return out

    def dump(self, path: Path, **header) -> None:
        """Write the spans and the arith aggregates as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header,
                   span_fields=["id", "name", "start_s", "end_s", "parent", "request"],
                   spans=self.spans,
                   arith_calls=dict(self.arith_calls),
                   arith_op_s=dict(self.arith_op_s),
                   layer_self_s=dict(self.self_s),
                   layer_calls=dict(self.calls),
                   work=dict(self.work))
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
