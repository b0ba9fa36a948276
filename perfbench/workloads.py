"""The benchmark's three workloads, driven through radarqi's public functions.

A workload has a set-up (scene, operator, dataset and the files it reads)
and a round (the timed part). A run sets up several times, keeps the last
set-up, and repeats rounds until its time is up. Every call into
the program is one attempted operation; a raised error, a non-finite output
or a failed check counts it as failed and ends the run's measurement.

Call the program through module attributes (``fista.fista_solve_many``, not
an imported name) so the traced run can wrap each call.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from radarqi import datasets, fista, forward, harness, models, training
from radarqi import io as rio
from radarqi import metrics as rmetrics
from radarqi.config import ExperimentConfig, apply_fast_profile

from spans import Tracer, layer_rows

NETWORK_KINDS = ("lfista_resnet", "fista_resnet", "dnn")

# End-to-end metric names and units, in report order.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ssim": "1",
    "mse": "1",
}


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one run; :func:`paper_scale` is what the benchmark runs."""

    cfg: ExperimentConfig
    snr_samples: int = 50
    f0_samples: int = 20
    b1_calls: int = 100
    tol_echoes: int = 8
    setup_repeats: int = 3


def paper_scale() -> Scale:
    """Paper geometry (28x28 cells, 4 antennas x 50 frequencies), fast-profile
    split (200/50/100) and one training epoch, so that a 35-second run holds
    several training rounds to take the median of."""
    return Scale(dataclasses.replace(apply_fast_profile(ExperimentConfig()), epochs=1))


class OperationFailed(Exception):
    """An operation raised, returned a non-finite output or failed a check."""


class Ledger:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, label: str, fn, *args, check=None, **kwargs):
        """Run one operation; ``check(result)`` returns a problem or None."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
            problem = check(result) if check is not None else None
        except Exception as exc:  # any error of the program is a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")
            raise OperationFailed(label)
        return result

    def check(self, label: str, problem: str | None) -> None:
        self.call(label, lambda: None, check=lambda _: problem)


def finite(x) -> str | None:
    return None if np.all(np.isfinite(x)) else "non-finite output"


def identical_params(expected: dict):
    def check(model) -> str | None:
        for name, arr in expected.items():
            if not np.array_equal(model.params[name], arr):
                return f"parameter {name} differs from the checkpoint written"
        return None

    return check


@dataclass
class Scene:
    cfg: ExperimentConfig
    seed: int
    workdir: Path
    matrix: object
    op: fista.ImagingOperator
    maps: dict[str, np.ndarray]
    echoes: dict[str, np.ndarray]
    files: dict = field(default_factory=dict)
    ckpt_params: dict = field(default_factory=dict)

    @property
    def training_data(self) -> training.TrainingData:
        return training.TrainingData(
            self.maps["train"], self.echoes["train"], self.maps["val"], self.echoes["val"]
        )


@dataclass
class Round:
    """What one round measured; ``quality`` maps a method to its per-image
    (mse, ssim) arrays, ``latencies_ms`` holds batch-1 call times."""

    wall_s: float
    samples: int
    quality: dict[str, tuple[np.ndarray, np.ndarray]]
    latencies_ms: list[float] = field(default_factory=list)


def build_scene(scale: Scale, seed: int, workdir: Path, ledger: Ledger) -> Scene:
    """Scene, operator and the seeded digit dataset with noise-free echoes."""
    cfg = scale.cfg
    _, _, _, matrix = ledger.call("harness.build_scene", harness.build_scene, cfg)
    op = ledger.call("fista.ImagingOperator", fista.ImagingOperator, matrix)
    sizes = (cfg.train_size, cfg.val_size, cfg.test_size)
    rasters = ledger.call(
        "datasets.synthetic_digit_rasters", datasets.synthetic_digit_rasters, sum(sizes), seed
    )
    maps, echoes = {}, {}
    for split, idx in zip(("train", "val", "test"), datasets.split_dataset(rasters, seed, sizes)):
        maps[split] = rasters[idx].reshape(len(idx), -1).astype(np.float64) / 255.0
        echoes[split] = ledger.call(
            "forward.synthesize_echoes", forward.synthesize_echoes, matrix, maps[split], check=finite
        )
    return Scene(cfg, seed, workdir, matrix, op, maps, echoes)


def save_test_echoes(scene: Scene, ledger: Ledger) -> None:
    cfg = scene.cfg
    path = scene.workdir / "echoes_test.bin"
    ledger.call(
        "io.save_echoes", rio.save_echoes, path, scene.echoes["test"], cfg.f0_hz,
        cfg.bandwidth_hz, cfg.n_freqs, cfg.n_antennas, None, scene.seed,
    )
    scene.files["echoes"] = path


def load_test_echoes(scene: Scene, ledger: Ledger, counters: dict) -> np.ndarray:
    """The timed read of the container, checked against what set-up wrote."""
    path = scene.files["echoes"]
    expected = scene.echoes["test"]

    def check(result):
        echoes, meta = result
        if not np.array_equal(echoes, expected) or meta["count"] != len(expected):
            return "load_echoes(save_echoes(x)) is not x"
        return None

    echoes, _ = ledger.call("io.load_echoes", rio.load_echoes, path, check=check)
    counters["io.echo_bytes"] = counters.get("io.echo_bytes", 0) + path.stat().st_size
    return echoes


def score(ledger: Ledger, truth: np.ndarray, recon: np.ndarray, side: int):
    """Per-image MSE and SSIM of clamped reconstructions, as the harness scores them."""

    def quality():
        clamped = np.clip(recon, 0.0, 1.0)
        pairs = [(t.reshape(side, side), r.reshape(side, side)) for t, r in zip(truth, clamped)]
        return (
            np.array([rmetrics.mse(t, r) for t, r in pairs]),
            np.array([rmetrics.ssim(t, r) for t, r in pairs]),
        )

    return ledger.call("metrics.quality", quality, check=lambda q: finite(q[0]) or finite(q[1]))


def merge(quality: dict, method: str, scored) -> None:
    if method in quality:
        old = quality[method]
        quality[method] = (np.concatenate([old[0], scored[0]]), np.concatenate([old[1], scored[1]]))
    else:
        quality[method] = scored


# ---------------------------------------------------------------------------
# reconstruct_fista: the classic solver on a saved echo container
# ---------------------------------------------------------------------------


def setup_reconstruct(scene: Scene, ledger: Ledger) -> None:
    save_test_echoes(scene, ledger)


def round_reconstruct(scene: Scene, ledger: Ledger, counters: dict, scale: Scale) -> Round:
    cfg, side = scene.cfg, scene.cfg.side_cells
    start = time.perf_counter()
    echoes = load_test_echoes(scene, ledger, counters)
    solver = fista.FistaConfig(lam=cfg.fista_lambda, max_iter=cfg.fista_max_iter)
    estimates = ledger.call(
        "fista.fista_solve_many", fista.fista_solve_many, scene.op.matrix, echoes, solver,
        scene.op, check=finite,
    )
    for i, est in enumerate(estimates):
        ledger.call(
            "io.write_pgm", rio.write_pgm, scene.workdir / f"fista_{i:05d}.pgm",
            np.clip(est, 0.0, 1.0).reshape(side, side),
        )
    quality = {"fista": score(ledger, scene.maps["test"], estimates, side)}
    wall = time.perf_counter() - start
    return Round(wall, len(echoes), quality)


def iterations_to_tolerance(scene: Scene, scale: Scale, ledger: Ledger) -> float:
    """Mean FISTA iterations to rel_tol 1e-3 over the first test echoes."""
    if not hasattr(fista, "fista_solve"):
        return 0.0
    cfg = scene.cfg
    solver = fista.FistaConfig(lam=cfg.fista_lambda, max_iter=cfg.fista_max_iter, rel_tol=1e-3)
    runs = [
        ledger.call(
            "fista.fista_solve", fista.fista_solve, scene.op.matrix, echo, solver, scene.op,
            check=lambda r: finite(r.estimate),
        ).iterations_run
        for echo in scene.echoes["test"][: scale.tol_echoes]
    ]
    return float(np.mean(runs))


# ---------------------------------------------------------------------------
# train_unrolled: fit, checkpoint and evaluate the three networks
# ---------------------------------------------------------------------------


def setup_train(scene: Scene, ledger: Ledger) -> None:
    pass


def trained_checkpoint(ckpt) -> str | None:
    if not np.isfinite(ckpt.best_val_loss):
        return "non-finite validation loss"
    return next((f"non-finite {n}" for n, a in ckpt.params.items() if finite(a)), None)


def round_train(scene: Scene, ledger: Ledger, counters: dict, scale: Scale) -> Round:
    cfg, op = scene.cfg, scene.op
    data = scene.training_data
    quality = {}
    start = time.perf_counter()
    for kind in NETWORK_KINDS:
        model = ledger.call("models.build_model", models.build_model, kind, op, cfg, cfg.seed)
        ckpt = ledger.call("training.fit", training.fit, model, op, data, cfg, check=trained_checkpoint)
        path = scene.workdir / f"checkpoint_{kind}.ckpt"
        ledger.call("training.save_checkpoint", training.save_checkpoint, path, ckpt)
        counters["training.checkpoint_bytes"] = (
            counters.get("training.checkpoint_bytes", 0) + path.stat().st_size
        )
        net = ledger.call(
            "harness.load_trained_model", harness.load_trained_model, cfg, op, kind, path,
            check=identical_params(ckpt.params),
        )
        pred = ledger.call(
            "models.predict_maps", models.predict_maps, net, scene.echoes["test"], op, check=finite
        )
        quality[kind] = score(ledger, scene.maps["test"], pred, cfg.side_cells)
    wall = time.perf_counter() - start
    samples = cfg.epochs * cfg.train_size * len(NETWORK_KINDS)
    return Round(wall, samples, quality)


# ---------------------------------------------------------------------------
# infer_sweep: the read path, sweeps and a batch-1 closed loop
# ---------------------------------------------------------------------------


def setup_infer(scene: Scene, ledger: Ledger) -> None:
    """Write the echo container and initial-weight checkpoints of each network."""
    save_test_echoes(scene, ledger)
    untrained = dataclasses.replace(scene.cfg, epochs=0)
    for kind in NETWORK_KINDS:
        model = ledger.call("models.build_model", models.build_model, kind, scene.op, untrained, untrained.seed)
        ckpt = ledger.call(
            "training.fit", training.fit, model, scene.op, scene.training_data, untrained,
            check=trained_checkpoint,
        )
        path = scene.workdir / f"checkpoint_{kind}.ckpt"
        ledger.call("training.save_checkpoint", training.save_checkpoint, path, ckpt)
        scene.files[kind] = path
        scene.ckpt_params[kind] = ckpt.params


def round_infer(scene: Scene, ledger: Ledger, counters: dict, scale: Scale) -> Round:
    cfg, op, side = scene.cfg, scene.op, scene.cfg.side_cells
    quality = {}
    start = time.perf_counter()
    echoes = load_test_echoes(scene, ledger, counters)
    nets = {}
    for kind in NETWORK_KINDS:
        path = scene.files[kind]
        nets[kind] = ledger.call(
            "harness.load_trained_model", harness.load_trained_model, cfg, op, kind, path,
            check=identical_params(scene.ckpt_params[kind]),
        )
        counters["training.checkpoint_bytes"] = (
            counters.get("training.checkpoint_bytes", 0) + path.stat().st_size
        )
    lfista = nets["lfista_resnet"]

    n_snr = scale.snr_samples
    truth = scene.maps["test"][:n_snr]
    batched = 0
    reference = None
    for k, snr in enumerate((None,) + tuple(harness.SNR_GRID_DB)):
        noisy = ledger.call(
            "harness.noisy_echoes", harness.noisy_echoes, echoes[:n_snr], snr, scene.seed + k,
            check=finite,
        )
        pred = ledger.call("models.predict_maps", models.predict_maps, lfista, noisy, op, check=finite)
        reference = pred if snr is None else reference
        merge(quality, "lfista_resnet", score(ledger, truth, pred, side))
        batched += len(noisy)

    n_f0 = scale.f0_samples
    truth = scene.maps["test"][:n_f0]
    for f0_ghz in harness.F0_GRID_GHZ:
        _, _, _, matrix = ledger.call(
            "harness.build_scene", harness.build_scene, cfg, f0_hz=f0_ghz * 1e9
        )
        op_f = ledger.call("fista.ImagingOperator", fista.ImagingOperator, matrix)
        shifted = ledger.call(
            "forward.synthesize_echoes", forward.synthesize_echoes, matrix, truth, check=finite
        )
        for kind, net in nets.items():
            pred = ledger.call("models.predict_maps", models.predict_maps, net, shifted, op_f, check=finite)
            merge(quality, kind, score(ledger, truth, pred, side))
            batched += len(shifted)
    wall = time.perf_counter() - start

    # Closed loop, one caller: each single-echo forward is sent after the
    # previous one returns, and must equal its row of the batched output.
    latencies = []

    def timed_forward(echo):
        t0 = time.perf_counter()
        out = lfista.forward(echo, op)
        latencies.append((time.perf_counter() - t0) * 1e3)
        return out

    for i in range(scale.b1_calls):
        ref = reference[i % n_snr]

        def same_as_batched(out, ref=ref):
            if finite(out):
                return "non-finite output"
            err = np.max(np.abs(out - ref)) / max(np.max(np.abs(ref)), 1e-300)
            return None if err <= 1e-9 else f"batch-1 output differs from batched by {err:.3g}"

        ledger.call(
            "LFistaResNet.forward batch 1", timed_forward, echoes[i % n_snr], check=same_as_batched
        )
    return Round(wall, batched, quality, latencies)


WORKLOADS = {
    "reconstruct_fista": (setup_reconstruct, round_reconstruct),
    "train_unrolled": (setup_train, round_train),
    "infer_sweep": (setup_infer, round_infer),
}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class Result:
    """A run's outcome. ``metrics`` (the gated end-to-end metrics) and
    ``info`` (per-method quality, batch-1 latency) map a name to
    (value, unit, samples); ``layers`` holds the per-layer rows."""

    attempted: int
    failed: int
    errors: list[str]
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    info: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    layers: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    round_walls: list[float] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _setup(workload, scale, seed, workdir, ledger) -> Scene:
    scene = build_scene(scale, seed, workdir, ledger)
    WORKLOADS[workload][0](scene, ledger)
    return scene


def _round(workload, scene, ledger, counters, scale) -> Round:
    return WORKLOADS[workload][1](scene, ledger, counters, scale)


def _check_repeat(ledger: Ledger, first: Round, again: Round) -> None:
    same = first.quality.keys() == again.quality.keys() and all(
        np.array_equal(first.quality[m][i], again.quality[m][i])
        for m in first.quality
        for i in (0, 1)
    )
    ledger.check("repeat round", None if same else "a repeated round scored differently")


def run(workload: str, scale: Scale, seed: int, seconds: float, trace: bool, workdir: Path,
        threads: int) -> Result:
    """One benchmark run: end-to-end metrics, or with ``trace`` per-layer metrics."""
    ledger = Ledger()
    rounds: list[Round] = []
    setups: list[float] = []
    traced_walls: list[float] = []
    counters: dict[str, float] = {}
    tracer = Tracer()
    try:
        for _ in range(1 if trace else scale.setup_repeats):
            t0 = time.perf_counter()
            scene = _setup(workload, scale, seed, workdir, ledger)
            setups.append(time.perf_counter() - t0)
        start = time.perf_counter()
        while True:
            rounds.append(_round(workload, scene, ledger, {}, scale))
            if len(rounds) > 1:
                _check_repeat(ledger, rounds[0], rounds[-1])
            if trace:
                # A traced pass: a fresh set-up and one round, spans on.
                with tracer.active():
                    traced_scene = _setup(workload, scale, seed, workdir, ledger)
                    if workload == "reconstruct_fista":
                        counters["fista.iters_to_tol"] = iterations_to_tolerance(traced_scene, scale, ledger)
                    traced = _round(workload, traced_scene, ledger, counters, scale)
                _check_repeat(ledger, rounds[0], traced)
                traced_walls.append(traced.wall_s)
            # Start another round only if it should end within half a round
            # of the time, so that runs end on average when the time is up.
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) / 2 > seconds:
                break
    except OperationFailed:
        pass

    result = Result(ledger.attempted, ledger.failed, ledger.errors)
    result.round_walls = [r.wall_s for r in rounds]
    if not rounds or (trace and not traced_walls):
        return result
    latencies = [x for r in rounds for x in r.latencies_ms]
    for q in (50, 90):
        counters[f"latency_ms_p{q}"] = float(np.percentile(latencies, q)) if latencies else 0.0
    if trace:
        counters["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
            r.wall_s for r in rounds
        )
        spans = [s for s in tracer.spans if s is not None]
        result.layers = layer_rows(
            spans, counters, len(traced_walls), scale.cfg.n_cells, scale.cfg.fista_max_iter, threads
        )
        result.spans = tracer.records()
        return result

    first = rounds[0].quality
    all_mse = np.concatenate([q[0] for q in first.values()])
    all_ssim = np.concatenate([q[1] for q in first.values()])
    samples = sum(r.samples for r in rounds)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(r.wall_s for r in rounds), len(rounds)),
        "samples_per_s": (statistics.median(r.samples / r.wall_s for r in rounds), samples),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "ssim": (float(np.mean(all_ssim)), len(all_ssim)),
        "mse": (float(np.mean(all_mse)), len(all_mse)),
    }
    result.metrics = {name: (values[name][0], unit, values[name][1]) for name, unit in E2E_UNITS.items()}
    for method, (mses, ssims) in first.items():
        result.info[f"ssim.{method}"] = (float(np.mean(ssims)), "1", len(ssims))
        result.info[f"mse.{method}"] = (float(np.mean(mses)), "1", len(mses))
    if latencies:
        for q in (50, 90):
            result.info[f"latency_ms_p{q}"] = (counters[f"latency_ms_p{q}"], "ms", len(latencies))
    return result
