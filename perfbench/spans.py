"""In-memory spans around radarqi's functions, for the traced run.

A span is recorded by wrapping a function where the program looks it up at
call time: every radarqi module attribute bound to the same function object,
or a class attribute for methods. A name the program no longer defines is
skipped, so a renamed or deleted function gives an absent span (its metrics
read 0), not a crash. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


def _conv_fwd_flops(args, result) -> float:
    x, kernel = args[0], args[1]
    return 2.0 * x.shape[0] * x.shape[1] * x.shape[2] * kernel[..., 0].size * kernel.shape[3]


def _conv_bwd_flops(args, result) -> float:
    # dkernel = patches^T @ dout and dpatches = dout @ kernel^T: two matmuls
    # of (n*h*w) x (9*c_in) x c_out each.
    dout, dkernel = args[1], result[1]
    return 4.0 * dout.size * dkernel.size / dout.shape[-1]


# (span name, module, attribute, method or None, flop count of one call or None)
TARGETS = (
    ("fista.ImagingOperator", "radarqi.fista", "ImagingOperator", "__init__", None),
    ("fista.power_iteration_lmax", "radarqi.fista", "power_iteration_lmax", None, None),
    ("fista.fista_solve_many", "radarqi.fista", "fista_solve_many", None, None),
    ("fista.fista_solve", "radarqi.fista", "fista_solve", None, None),
    ("forward.build_sensing_matrix", "radarqi.forward", "build_sensing_matrix", None, None),
    ("forward.synthesize_echoes", "radarqi.forward", "synthesize_echoes", None, None),
    ("datasets.synthetic_digit_rasters", "radarqi.datasets", "synthetic_digit_rasters", None, None),
    ("models.LFistaResNet.forward", "radarqi.models", "LFistaResNet", "forward", None),
    ("models.LFistaResNet.forward_cached", "radarqi.models", "LFistaResNet", "forward_cached", None),
    ("models.LFistaResNet.backward", "radarqi.models", "LFistaResNet", "backward", None),
    ("models.predict_maps", "radarqi.models", "predict_maps", None, None),
    ("nn_ops.conv2d_3x3_cached", "radarqi.nn_ops", "conv2d_3x3_cached", None, _conv_fwd_flops),
    ("nn_ops.conv2d_3x3_backward", "radarqi.nn_ops", "conv2d_3x3_backward", None, _conv_bwd_flops),
    ("training.fit", "radarqi.training", "fit", None, None),
    ("training.hybrid_loss_batch", "radarqi.training", "hybrid_loss_batch", None, None),
    ("training.adam_step", "radarqi.training", "adam_step", None, None),
    ("training._validation_metrics", "radarqi.training", "_validation_metrics", None, None),
    ("training.save_checkpoint", "radarqi.training", "save_checkpoint", None, None),
    ("training.load_checkpoint", "radarqi.training", "load_checkpoint", None, None),
    ("metrics.ssim", "radarqi.metrics", "ssim", None, None),
    ("io.load_echoes", "radarqi.io", "load_echoes", None, None),
    ("io.write_pgm", "radarqi.io", "write_pgm", None, None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top
    batch: int | None
    dtype: str | None
    flops: float

    @property
    def duration(self) -> float:
        return self.end - self.start


# Spans whose first array argument is not a batch: one image (pair) per
# call, or the sensing matrix.
FIXED_BATCH = {"metrics.ssim": 1, "io.write_pgm": 1, "fista.power_iteration_lmax": None}


def _batch_and_dtype(name, args, result):
    """Leading dimension of the first array argument (1 for a single vector)
    and the dtype of the first array in the result."""
    outputs = result if isinstance(result, tuple) else (result,)
    dtype = next((str(o.dtype) for o in outputs if isinstance(o, np.ndarray)), None)
    if name in FIXED_BATCH:
        return FIXED_BATCH[name], dtype
    batch = next(
        (a.shape[0] if a.ndim > 1 else 1 for a in args if isinstance(a, np.ndarray)), None
    )
    return batch, dtype


class Tracer:
    """Records nested spans while :meth:`active` has the targets wrapped."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, flops=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                batch, dtype = _batch_and_dtype(name, args, result)
                work = flops(args, result) if flops is not None and result is not None else 0.0
                self.spans[index] = Span(name, start, end, parent, batch, dtype, work)

        return traced

    @contextmanager
    def active(self):
        """Wrap every target that exists; restore the originals on exit."""
        patches = []
        try:
            for name, module_name, attr, method, flops in TARGETS:
                module = sys.modules.get(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                if method is not None:
                    fn = original.__dict__.get(method)
                    if fn is not None:
                        patches.append((original, method, fn))
                        setattr(original, method, self.wrap(name, fn, flops))
                    continue
                wrapped = self.wrap(name, original, flops)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "radarqi" and not mod_name.startswith("radarqi."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans if s is not None]


@dataclass
class LayerRow:
    """One per-layer metric with the batch sizes, dtypes and thread count it
    was measured at."""

    name: str
    value: float
    unit: str
    batch: str
    dtype: str
    threads: int


# Per-layer metric names and units, in report order.
LAYER_UNITS = {
    "fista.operator_build_ms": "ms",
    "fista.power_iteration_ms": "ms",
    "fista.operator_builds": "count",
    "fista.solve_ms": "ms",
    "fista.iter_us_per_sample": "us",
    "fista.gram_gflops_per_s": "GFLOP/s",
    "fista.iters_to_tol": "count",
    "models.forward_cached_self_ms": "ms",
    "models.backward_self_ms": "ms",
    "models.predict_ms_per_sample": "ms",
    "models.forward_b1_self_ms": "ms",
    "training.step_ms_p50": "ms",
    "training.step_ms_p90": "ms",
    "training.loss_ms": "ms",
    "training.adam_ms": "ms",
    "training.validation_ms": "ms",
    "training.save_checkpoint_ms": "ms",
    "training.load_checkpoint_ms": "ms",
    "training.checkpoint_bytes": "bytes",
    "nn_ops.conv_fwd_ms": "ms",
    "nn_ops.conv_bwd_ms": "ms",
    "nn_ops.conv_fwd_calls": "count",
    "nn_ops.conv_bwd_calls": "count",
    "nn_ops.conv_gflops_per_s": "GFLOP/s",
    "metrics.ssim_us_per_pair": "us",
    "metrics.ssim_calls": "count",
    "forward.build_sensing_matrix_ms": "ms",
    "forward.synthesize_echoes_ms": "ms",
    "datasets.synthetic_digit_rasters_ms": "ms",
    "io.load_echoes_ms": "ms",
    "io.echo_bytes": "bytes",
    "io.write_pgm_ms": "ms",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "trace.overhead_s": "s",
}


def _describe(spans) -> tuple[str, str]:
    batches = sorted({s.batch for s in spans if s.batch is not None})
    dtypes = sorted({s.dtype for s in spans if s.dtype is not None})
    return ",".join(map(str, batches)) or "-", ",".join(dtypes) or "-"


def layer_rows(
    spans: list[Span],
    counters: dict[str, float],
    passes: int,
    n_cells: int,
    fista_iters: int,
    threads: int,
) -> list[LayerRow]:
    """Per-layer metrics from the spans of ``passes`` traced passes (one
    set-up plus one round each). Totals are per pass; ``_self_`` times
    exclude the time of child spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def picked(name):
        return [spans[i] for i in by_name.get(name, [])]

    def total(name):
        return sum(s.duration for s in picked(name))

    def self_times(name, keep=lambda s: True):
        return [spans[i].duration - child_time[i] for i in by_name.get(name, []) if keep(spans[i])]

    def per_pass(x):
        return x / passes

    def ratio(num, den):
        return num / den if den else 0.0

    rows: dict[str, tuple[float, list[Span]]] = {}

    def put(metric, value, source):
        rows[metric] = (float(value), source)

    build = picked("fista.ImagingOperator")
    put("fista.operator_build_ms", per_pass(total("fista.ImagingOperator")) * 1e3, build)
    put("fista.power_iteration_ms", per_pass(total("fista.power_iteration_lmax")) * 1e3,
        picked("fista.power_iteration_lmax"))
    put("fista.operator_builds", per_pass(len(build)), build)
    solves = picked("fista.fista_solve_many")
    solve_s = total("fista.fista_solve_many")
    solved = sum(s.batch or 0 for s in solves)
    put("fista.solve_ms", per_pass(solve_s) * 1e3, solves)
    put("fista.iter_us_per_sample", ratio(solve_s * 1e6, solved * fista_iters), solves)
    put("fista.gram_gflops_per_s",
        ratio(2.0 * n_cells * n_cells * solved * fista_iters, solve_s) / 1e9, solves)
    put("fista.iters_to_tol", counters.get("fista.iters_to_tol", 0.0), picked("fista.fista_solve"))

    fwd_self = self_times("models.LFistaResNet.forward_cached")
    bwd_self = self_times("models.LFistaResNet.backward")
    put("models.forward_cached_self_ms", ratio(sum(fwd_self), len(fwd_self)) * 1e3,
        picked("models.LFistaResNet.forward_cached"))
    put("models.backward_self_ms", ratio(sum(bwd_self), len(bwd_self)) * 1e3,
        picked("models.LFistaResNet.backward"))
    predicts = picked("models.predict_maps")
    put("models.predict_ms_per_sample",
        ratio(total("models.predict_maps") * 1e3, sum(s.batch or 0 for s in predicts)), predicts)
    b1 = self_times("models.LFistaResNet.forward", keep=lambda s: s.batch == 1)
    b1_spans = [s for s in picked("models.LFistaResNet.forward") if s.batch == 1]
    put("models.forward_b1_self_ms", statistics.median(b1) * 1e3 if b1 else 0.0, b1_spans)

    # A step runs from an unrolled network's forward_cached to the Adam
    # update that follows it within the same fit call.
    steps, step_spans, last_forward = [], [], {}
    for s in spans:
        if s.name == "models.LFistaResNet.forward_cached":
            last_forward[s.parent] = s.start
        elif s.name == "training.adam_step" and s.parent in last_forward:
            steps.append(s.end - last_forward.pop(s.parent))
            step_spans.append(s)
    for q in (50, 90):
        put(f"training.step_ms_p{q}", float(np.percentile(steps, q)) * 1e3 if steps else 0.0,
            step_spans)
    for metric, span in (
        ("training.loss_ms", "training.hybrid_loss_batch"),
        ("training.adam_ms", "training.adam_step"),
        ("training.validation_ms", "training._validation_metrics"),
        ("training.save_checkpoint_ms", "training.save_checkpoint"),
        ("training.load_checkpoint_ms", "training.load_checkpoint"),
        ("nn_ops.conv_fwd_ms", "nn_ops.conv2d_3x3_cached"),
        ("nn_ops.conv_bwd_ms", "nn_ops.conv2d_3x3_backward"),
        ("forward.build_sensing_matrix_ms", "forward.build_sensing_matrix"),
        ("forward.synthesize_echoes_ms", "forward.synthesize_echoes"),
        ("datasets.synthetic_digit_rasters_ms", "datasets.synthetic_digit_rasters"),
        ("io.load_echoes_ms", "io.load_echoes"),
        ("io.write_pgm_ms", "io.write_pgm"),
    ):
        put(metric, per_pass(total(span)) * 1e3, picked(span))
    put("training.checkpoint_bytes", per_pass(counters.get("training.checkpoint_bytes", 0.0)),
        picked("training.save_checkpoint"))
    put("io.echo_bytes", per_pass(counters.get("io.echo_bytes", 0.0)), picked("io.load_echoes"))

    convs = picked("nn_ops.conv2d_3x3_cached") + picked("nn_ops.conv2d_3x3_backward")
    put("nn_ops.conv_fwd_calls", per_pass(len(picked("nn_ops.conv2d_3x3_cached"))),
        picked("nn_ops.conv2d_3x3_cached"))
    put("nn_ops.conv_bwd_calls", per_pass(len(picked("nn_ops.conv2d_3x3_backward"))),
        picked("nn_ops.conv2d_3x3_backward"))
    put("nn_ops.conv_gflops_per_s",
        ratio(sum(s.flops for s in convs), sum(s.duration for s in convs)) / 1e9, convs)
    ssims = picked("metrics.ssim")
    put("metrics.ssim_us_per_pair", ratio(total("metrics.ssim") * 1e6, len(ssims)), ssims)
    put("metrics.ssim_calls", per_pass(len(ssims)), ssims)
    # Batch-1 latency is timed in the untraced rounds of the same calls.
    for metric in ("latency_ms_p50", "latency_ms_p90"):
        put(metric, counters.get(metric, 0.0), b1_spans)
    put("trace.overhead_s", counters.get("trace.overhead_s", 0.0), [])

    out = []
    for metric, unit in LAYER_UNITS.items():
        value, source = rows[metric]
        batch, dtype = _describe(source)
        out.append(LayerRow(metric, value, unit, batch, dtype, threads))
    return out
