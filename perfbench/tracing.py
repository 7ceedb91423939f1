"""In-memory span tracer that wraps layer functions where callers look them up.

A span is ``(id, parent, name, start, end, extra)`` with times from
``time.perf_counter``. Spans nest by call order in one thread, so a span's
self time is its duration minus the durations of its direct children.
Nothing is written until :meth:`Tracer.write` is called at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median, quantiles
from typing import Callable, Optional

# (module, attribute) -> span name; a name may be wrapped at several lookup
# sites. ``nn.backward`` is split into mean and stack by its ``reduce`` kwarg.
FUNCTION_SPANS = (
    ("dpforecast.optim", "forward_batch", "nn.forward_batch"),
    ("dpforecast.nn", "forward_batch", "nn.forward_batch"),
    ("dpforecast.optim", "backward_batch", "nn.backward"),
    ("dpforecast.optim", "adam_step", "optim.adam_step"),
    ("dpforecast.optim", "dp_aggregate", "optim.dp_aggregate"),
    ("dpforecast.optim", "train", "optim.train"),
    ("dpforecast.data", "load_csv", "data.load_csv"),
    ("dpforecast.data", "iqr_clean", "data.iqr_clean"),
    ("dpforecast.forecast", "make_windows", "data.make_windows"),
    ("dpforecast.forecast", "sanitize_series", "privacy.sanitize_series"),
    ("dpforecast.privacy", "compute_epsilon", "privacy.compute_epsilon"),
    ("dpforecast.forecast", "prepare", "forecast.prepare"),
)
SCALER_METHODS = ("fit", "transform", "transform_inputs", "inverse_transform_targets")

# Layers reported with .calls, .ms_p50 and .share (self time over traced wall).
LAYERS = (
    "nn.forward_batch", "nn.backward_mean", "nn.backward_stack",
    "optim.adam_step", "optim.dp_aggregate",
    "data.load_csv", "data.iqr_clean", "data.make_windows", "data.scaler",
    "privacy.sanitize_series", "privacy.compute_epsilon",
    "forecast.prepare", "forecast.evaluate", "forecast.write_artifacts",
    "cli.evaluate",
)
ROOT_SPANS = ("bench.setup", "bench.op", "bench.account")


class Tracer:
    """Collects nested spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.errors: dict[str, int] = {}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), parent, name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        except BaseException:
            self.errors[name] = self.errors.get(name, 0) + 1
            raise
        finally:
            self._close(span)

    def error_count(self) -> int:
        return sum(self.errors.values())

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn: Callable, name: Optional[str], name_of=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name if name_of is None else name_of(args, kwargs)) as span:
                out = fn(*args, **kwargs)
                if span[2] == "nn.backward_stack":
                    span[5] = sum(v.nbytes for v in out.values()) / 1e6
                return out
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer function that exists; record the ones that do not."""
        self.absent = []
        for module_name, attr, name in FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            name_of = None
            if name == "nn.backward":
                name_of = _backward_span_name
                name = None
            self._patch(module, attr, self._wrap(fn, name, name_of))
        scaler = getattr(importlib.import_module("dpforecast.data"), "MinMaxScaler", None)
        for method in SCALER_METHODS:
            fn = getattr(scaler, method, None)
            if fn is None:
                self.absent.append(f"dpforecast.data.MinMaxScaler.{method}")
                continue
            self._patch(scaler, method, self._wrap(fn, "data.scaler"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting -------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[4] - s[3]
        return own

    def wall(self) -> float:
        """Traced run wall time: the summed durations of the benchmark's root spans."""
        return sum(s[4] - s[3] for s in self.spans if s[1] < 0 and s[2] in ROOT_SPANS)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        own = self.self_times()
        wall = self.wall()
        by_name: dict[str, list[int]] = {}
        for s in self.spans:
            by_name.setdefault(s[2], []).append(s[0])

        def durations_ms(name):
            return [1e3 * (self.spans[i][4] - self.spans[i][3]) for i in by_name.get(name, [])]

        def p50(values):
            return median(values) if values else 0.0

        def self_share(name):
            return sum(own[i] for i in by_name.get(name, [])) / wall if wall > 0 else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (len(by_name.get(layer, [])), "count")
            out[f"{layer}.ms_p50"] = (p50(durations_ms(layer)), "ms")
            out[f"{layer}.share"] = (self_share(layer), "fraction")
        out["optim.train.calls"] = (len(by_name.get("optim.train", [])), "count")
        out["optim.train.ms_p50"] = (p50(durations_ms("optim.train")), "ms")
        out["optim.train.self_share"] = (self_share("optim.train"), "fraction")
        steps = self.step_intervals_ms()
        out["optim.step_ms_p50"] = (p50(steps), "ms")
        out["optim.step_ms_p90"] = (
            quantiles(steps, n=10)[-1] if len(steps) >= 2 else p50(steps), "ms")
        out["nn.backward_stack.out_mb"] = (
            p50([self.spans[i][5] for i in by_name.get("nn.backward_stack", [])]), "MB")
        out["forecast.prepare.self_ms_p50"] = (
            p50([1e3 * own[i] for i in by_name.get("forecast.prepare", [])]), "ms")
        out["trace.absent_layers"] = (len(self.absent), "count")
        return out

    def step_intervals_ms(self) -> list[float]:
        """Gaps between consecutive ``adam_step`` returns inside one ``train`` call."""
        last_end: dict[int, float] = {}
        gaps = []
        for s in self.spans:
            if s[2] != "optim.adam_step":
                continue
            train = self._ancestor(s, "optim.train")
            if train is None:
                continue
            if train in last_end:
                gaps.append(1e3 * (s[4] - last_end[train]))
            last_end[train] = s[4]
        return gaps

    def _ancestor(self, span: list, name: str) -> Optional[int]:
        parent = span[1]
        while parent >= 0:
            if self.spans[parent][2] == name:
                return parent
            parent = self.spans[parent][1]
        return None

    def train_accounting(self) -> tuple[float, float, float]:
        """Traced ``train`` wall time, the self times of it and its descendants
        summed, and its own self time."""
        own = self.self_times()
        wall = accounted = train_self = 0.0
        for s in self.spans:
            if s[2] == "optim.train":
                wall += s[4] - s[3]
                train_self += own[s[0]]
            elif self._ancestor(s, "optim.train") is None:
                continue
            accounted += own[s[0]]
        return wall, accounted, train_self

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end, extra."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"id": s[0], "parent": s[1], "name": s[2],
                     "start": s[3], "end": s[4], "extra": s[5]}) + "\n")


def _backward_span_name(args, kwargs) -> str:
    # backward_batch(spec, params, tape, targets, loss, reduce)
    reduce = kwargs.get("reduce", args[5] if len(args) > 5 else "mean")
    return "nn.backward_stack" if reduce == "stack" else "nn.backward_mean"


class NullTracer:
    """Stand-in for untraced runs: it wraps nothing and records nothing."""

    @contextmanager
    def span(self, name: str):
        yield None

    def installed(self):
        return nullcontext(self)

    def error_count(self) -> int:
        return 0


NULL = NullTracer()
