"""Spans and counters around calls into freqfilter's public functions.

The tracer is installed only for a traced pass. Installing it swaps every
module attribute in the package that refers to a traced function (so
`freqfilter.filters.rfft` as well as `freqfilter.spectral.rfft`) for a
timing wrapper, and uninstalling puts the originals back, so untraced passes
run the unmodified program. Spans are kept in memory with their parent id
and the id of the benchmark operation that caused them; rolling_evaluate
spans also record a tracemalloc peak.
Kernel counts (columns, flops, bytes) are computed from array shapes.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

MODULES = ("data_io", "tensor", "spectral", "filters", "predictors", "training", "metrics", "cli")

# Lengths whose largest prime factor exceeds this take the chirp (Bluestein) path.
DIRECT_PRIME_LIMIT = 61

MB = 1024.0 * 1024.0


def largest_prime_factor(n: int) -> int:
    largest, f = 1, 2
    while f * f <= n:
        while n % f == 0:
            largest, n = f, n // f
        f += 1
    return max(largest, n)


def _columns(shape) -> tuple[int, int]:
    n = int(shape[0])
    return n, int(np.prod(shape[1:], dtype=np.int64)) if len(shape) > 1 else 1


def _count_transform(tracer, name, n, cols, in_bytes, out_bytes):
    c = tracer.counts
    c["spectral.columns"] += cols
    if largest_prime_factor(n) > DIRECT_PRIME_LIMIT:
        c["spectral.chirp_columns"] += cols
    # FFTW's convention for the nominal work of a length-n complex transform.
    c["spectral.flops_computed"] += cols * 5.0 * n * math.log2(max(n, 2))
    c["spectral.bytes_computed"] += in_bytes + out_bytes
    if name == "spectral.rfft":
        spectral = importlib.import_module("freqfilter.spectral")
        full = n if hasattr(spectral, "_fft") else n // 2 + 1
        c["spectral.half_bins"] += cols * (n // 2 + 1)
        c["spectral.full_bins"] += cols * full


def _after_rfft(tracer, args, kwargs, result):
    shape = np.shape(args[0])
    n, cols = _columns(shape)
    _count_transform(tracer, "spectral.rfft", n, cols, n * cols * 8, (n // 2 + 1) * cols * 16)


def _after_irfft(tracer, args, kwargs, result):
    n, cols = _columns(np.shape(result))
    _count_transform(tracer, "spectral.irfft", n, cols, (n // 2 + 1) * cols * 16, n * cols * 8)


def _after_predict(tracer, args, kwargs, result):
    shape = np.shape(result)
    tracer.counts["predictors.predict.windows"] += shape[0] if len(shape) == 3 else 1
    if tracer.inside("cli.predict"):
        tracer.counts["cli.predict.predict_calls"] += 1


def _after_train(tracer, args, kwargs, result):
    epochs = len(result.entries) - 1
    tracer.counts["training.epochs_run"] += epochs
    tracer.counts["training.best_epoch"] += result.best_epoch or 0
    data = args[1] if len(args) > 1 else kwargs["data"]
    tracer.counts["training.samples"] += epochs * data.n_samples("train")


def _after_load_csv(tracer, args, kwargs, result):
    tracer.counts["data_io.bytes_read"] += os.path.getsize(args[0])


def _after_save_csv(tracer, args, kwargs, result):
    tracer.counts["data_io.bytes_written"] += os.path.getsize(args[1])


# (module, attribute, span name, hook run after a successful call)
TARGETS = (
    ("spectral", "rfft", "spectral.rfft", _after_rfft),
    ("spectral", "irfft", "spectral.irfft", _after_irfft),
    ("filters", "filter_forward", "filters.filter_forward", None),
    ("filters", "filter_backward", "filters.filter_backward", None),
    ("filters", "moving_average", "filters.moving_average", None),
    ("predictors", "copy_last_step", "predictors.copy_last_step", None),
    ("predictors", "rolling_evaluate", "predictors.rolling_evaluate", None),
    ("predictors", "FilterPredictorState.forward", "predictors.forward", None),
    ("predictors", "FilterPredictorState.backward", "predictors.backward", None),
    ("predictors", "FilterPredictorState.predict", "predictors.predict", _after_predict),
    ("training", "WindowedDataset.gather", "training.gather", None),
    ("training", "mae_loss", "training.mae_loss", None),
    ("training", "adam_step", "training.adam_step", None),
    ("training", "evaluate_loss", "training.evaluate_loss", None),
    ("training", "train", "training.train", _after_train),
    ("metrics", "compute_metrics", "metrics.compute_metrics", None),
    ("data_io", "load_csv", "data_io.load_csv", _after_load_csv),
    ("data_io", "save_csv", "data_io.save_csv", _after_save_csv),
    ("data_io", "load_checkpoint", "data_io.load_checkpoint", None),
    ("data_io", "save_checkpoint", "data_io.save_checkpoint", None),
    ("data_io", "generate_synthetic", "data_io.generate_synthetic", None),
    ("tensor", "TimeSeriesTensor.__post_init__", "tensor.TimeSeriesTensor", None),
    ("tensor", "ComplexPlane.__post_init__", "tensor.ComplexPlane", None),
    ("cli", "cmd_predict", "cli.predict", None),
    ("cli", "cmd_evaluate", "cli.evaluate_forecast", None),
)

# Per-layer metrics of a traced pass: (name, unit). Every traced run reports all of them.
PER_LAYER = (
    ("spectral.rfft.calls", "count"),
    ("spectral.rfft.s", "s"),
    ("spectral.irfft.calls", "count"),
    ("spectral.irfft.s", "s"),
    ("spectral.columns", "count"),
    ("spectral.chirp_columns", "count"),
    ("spectral.flops_computed", "flop"),
    ("spectral.bytes_computed", "bytes"),
    ("spectral.useful_bin_frac", "ratio"),
    ("spectral.self_s", "s"),
    ("filters.filter_forward.calls", "count"),
    ("filters.filter_forward.s", "s"),
    ("filters.filter_backward.calls", "count"),
    ("filters.filter_backward.s", "s"),
    ("filters.moving_average.s", "s"),
    ("filters.self_s", "s"),
    ("training.train.s", "s"),
    ("training.samples_per_s", "samples/s"),
    ("training.gather.s", "s"),
    ("training.mae_loss.s", "s"),
    ("training.adam_step.calls", "count"),
    ("training.adam_step.s", "s"),
    ("training.evaluate_loss.s", "s"),
    ("training.epochs_run", "count"),
    ("training.useful_epoch_frac", "ratio"),
    ("training.self_s", "s"),
    ("predictors.forward.s", "s"),
    ("predictors.backward.s", "s"),
    ("predictors.predict.windows", "count"),
    ("predictors.rolling_evaluate.s", "s"),
    ("predictors.rolling_evaluate.peak_mb", "MB"),
    ("predictors.copy_last_step.s", "s"),
    ("predictors.self_s", "s"),
    ("metrics.compute_metrics.calls", "count"),
    ("metrics.compute_metrics.s", "s"),
    ("metrics.self_s", "s"),
    ("data_io.load_csv.s", "s"),
    ("data_io.load_csv.mb_per_s", "MB/s"),
    ("data_io.save_csv.s", "s"),
    ("data_io.save_csv.mb_per_s", "MB/s"),
    ("data_io.bytes_read", "bytes"),
    ("data_io.bytes_written", "bytes"),
    ("data_io.load_checkpoint.s", "s"),
    ("data_io.save_checkpoint.s", "s"),
    ("data_io.generate_synthetic.s", "s"),
    ("data_io.self_s", "s"),
    ("tensor.TimeSeriesTensor.calls", "count"),
    ("tensor.TimeSeriesTensor.s", "s"),
    ("tensor.ComplexPlane.calls", "count"),
    ("tensor.self_s", "s"),
    ("cli.predict.s", "s"),
    ("cli.predict.rows", "count"),
    ("cli.predict.predict_calls", "count"),
    ("cli.predict.rows_per_s", "rows/s"),
    ("cli.evaluate_forecast.s", "s"),
    ("cli.evaluate_forecast.rows", "count"),
    ("cli.evaluate_forecast.rows_per_s", "rows/s"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


# Spans that record a tracemalloc peak. tracemalloc slows every allocation, and
# four times over in the CSV and CLI loops, so it runs only inside these.
MEMORY_SPANS = ("predictors.rolling_evaluate",)


class _Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "peak")

    def __init__(self, sid, parent, root, name, start):
        self.id, self.parent, self.root, self.name = sid, parent, root, name
        self.start, self.end = start, None
        self.peak = 0


class Tracer:
    """In-memory spans of one traced pass, plus counters made at the same boundaries."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counts: Counter = Counter()
        self._stack: list[_Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans) + 1
        span = _Span(sid, parent.id if parent else None, parent.root if parent else sid, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        if name in MEMORY_SPANS:
            tracemalloc.start()
        return span

    def close(self, span: _Span) -> None:
        if span.name in MEMORY_SPANS:
            span.peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        span.end = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self._stack)

    # -- installation ----------------------------------------------------------
    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module("freqfilter")]
        modules += [importlib.import_module(f"freqfilter.{m}") for m in MODULES]
        for module_name, attr, name, hook in TARGETS:
            owner = importlib.import_module(f"freqfilter.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = cls.__dict__.get(meth) if cls is not None else None
                if original is None:
                    continue
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, hook))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values for the pass; layers the pass never entered read 0."""
        out = {name: 0.0 for name, _ in PER_LAYER}
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        for s in self.spans:
            dur = s.end - s.start
            module = s.name.split(".")[0]
            if module in MODULES:
                out[f"{module}.self_s"] += dur - child_time[s.id]
            for key, value in ((f"{s.name}.calls", 1), (f"{s.name}.s", dur)):
                if key in out:
                    out[key] += value
            if s.name == "predictors.rolling_evaluate":
                out["predictors.rolling_evaluate.peak_mb"] = max(out["predictors.rolling_evaluate.peak_mb"], s.peak / MB)
        c = self.counts
        for key in out:
            if key in c:
                out[key] = float(c[key])
        out["spectral.useful_bin_frac"] = c["spectral.half_bins"] / c["spectral.full_bins"] if c["spectral.full_bins"] else 0.0
        out["training.useful_epoch_frac"] = c["training.best_epoch"] / c["training.epochs_run"] if c["training.epochs_run"] else 0.0
        out["training.samples_per_s"] = _rate(c["training.samples"], out["training.train.s"])
        out["data_io.load_csv.mb_per_s"] = _rate(c["data_io.bytes_read"] / MB, out["data_io.load_csv.s"])
        out["data_io.save_csv.mb_per_s"] = _rate(c["data_io.bytes_written"] / MB, out["data_io.save_csv.s"])
        out["cli.predict.rows_per_s"] = _rate(out["cli.predict.rows"], out["cli.predict.s"])
        out["cli.evaluate_forecast.rows_per_s"] = _rate(out["cli.evaluate_forecast.rows"], out["cli.evaluate_forecast.s"])
        out["trace.spans"] = float(len(self.spans))
        return out

    def span_records(self, pass_index: int):
        t0 = self.spans[0].start if self.spans else 0.0
        for s in self.spans:
            yield {
                "pass": pass_index,
                "id": s.id,
                "parent": s.parent,
                "root": s.root,
                "name": s.name,
                "start_s": s.start - t0,
                "dur_s": s.end - s.start,
                "peak_mb": s.peak / MB,
            }


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0
