"""The CLI end to end on a small scene: every subcommand runs, two runs
write byte-identical artifacts, and the exit-code contract holds."""

from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli
from radarqi import io as rio

SMALL_CONFIG = """\
side_cells = 8
n_antennas = 3
n_freqs = 10
n_blocks = 6
train_size = 24
val_size = 8
test_size = 8
epochs = 2
batch_size = 8
fista_max_iter = 200
"""


def write_config(path: Path, text: str = SMALL_CONFIG) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def cli_ok(args, cwd):
    proc = run_cli(args, cwd)
    assert proc.returncode == 0, f"{args} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc


def run_pipeline(workdir: Path, config: Path, out: Path) -> Path:
    """Every subcommand once, into ``out``."""
    cfg = ["--config", str(config)]
    echoes = str(out / "echoes_test.bin")
    steps = [
        ["synth", "--out-dir", str(out), "--split", "test"],
        ["train", "--out-dir", str(out)],
        ["eval", "--out-dir", str(out), "--echoes", echoes],
        ["sweep-snr", "--out-dir", str(out / "snr"), "--checkpoint-dir", str(out)],
        ["sweep-freq", "--out-dir", str(out / "freq"), "--checkpoint-dir", str(out)],
        ["shapes", "--out-dir", str(out / "shapes"), "--checkpoint-dir", str(out)],
        ["fista", "--out-dir", str(out / "fista"), "--echoes", echoes,
         "--max-iter", "200", "--record-objective"],
        ["infer", "--out-dir", str(out / "infer"), "--echoes", echoes,
         "--checkpoint", str(out / "checkpoint_lfista_resnet.ckpt")],
    ]
    for step in steps:
        cli_ok(step[:1] + cfg + step[1:], workdir)
    return out


def artifacts(out: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "timing.txt"
    }


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    config = write_config(workdir / "small.cfg")
    runs = [run_pipeline(workdir, config, workdir / name) for name in ("run1", "run2")]
    return workdir, config, runs


def test_every_subcommand_writes_its_artifacts(two_runs):
    _, _, (run1, _) = two_runs
    names = set(artifacts(run1))
    for kind in ("fista_resnet", "lfista_resnet", "dnn"):
        assert f"checkpoint_{kind}.ckpt" in names
        assert f"train_log_{kind}.csv" in names
    for name in (
        "echoes_test.bin",
        "comparison_summary.csv",
        "comparison_samples.csv",
        "grid_fista.pgm",
        "snr/sweep_snr.csv",
        "freq/sweep_freq.csv",
        "shapes/shapes.csv",
        "fista/fista_objective_00007.csv",
        "fista/fista_00007.pgm",
        "infer/infer_00007.pgm",
    ):
        assert name in names


def test_two_runs_byte_identical(two_runs):
    _, _, (run1, run2) = two_runs
    first, second = artifacts(run1), artifacts(run2)
    assert sorted(first) == sorted(second)
    differing = [name for name in first if first[name] != second[name]]
    assert differing == []


def test_unknown_config_key_exits_2(two_runs):
    workdir, _, _ = two_runs
    config = write_config(workdir / "bad.cfg", SMALL_CONFIG + "antenna_count = 4\n")
    proc = run_cli(["synth", "--config", str(config), "--out-dir", str(workdir / "x")], workdir)
    assert proc.returncode == 2, proc.stderr
    assert "antenna_count" in proc.stderr


def test_missing_checkpoint_exits_2(two_runs):
    workdir, config, _ = two_runs
    empty = workdir / "no_checkpoints"
    empty.mkdir(exist_ok=True)
    proc = run_cli(
        ["shapes", "--config", str(config), "--out-dir", str(empty), "--checkpoint-dir", str(empty)],
        workdir,
    )
    assert proc.returncode == 2, proc.stderr
    assert "missing checkpoint" in proc.stderr


def test_infer_missing_checkpoint_exits_2(two_runs):
    workdir, config, (run1, _) = two_runs
    proc = run_cli(
        ["infer", "--config", str(config), "--out-dir", str(workdir / "x"),
         "--echoes", str(run1 / "echoes_test.bin"), "--checkpoint", str(workdir / "none.ckpt")],
        workdir,
    )
    assert proc.returncode == 2, proc.stderr
    assert "missing checkpoint" in proc.stderr


def test_container_with_another_echo_count_exits_3(two_runs):
    workdir, config, (run1, _) = two_runs
    other = workdir / "train_split"
    cli_ok(["synth", "--config", str(config), "--out-dir", str(other), "--split", "train"], workdir)
    proc = run_cli(
        ["eval", "--config", str(config), "--out-dir", str(other), "--checkpoint-dir", str(run1),
         "--echoes", str(other / "echoes_train.bin")],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert "test split" in proc.stderr


def test_non_finite_echo_exits_4(two_runs):
    workdir, config, (run1, _) = two_runs
    echoes, meta = rio.load_echoes(run1 / "echoes_test.bin")
    echoes[3, 0] = np.nan
    path = workdir / "nan_echo.bin"
    rio.save_echoes(
        path,
        echoes,
        f0_hz=meta["f0_hz"],
        bandwidth_hz=meta["bandwidth_hz"],
        n_freqs=meta["n_freqs"],
        n_antennas=meta["n_antennas"],
        snr_db=meta["snr_db"],
        seed=meta["seed"],
    )
    proc = run_cli(
        ["fista", "--config", str(config), "--out-dir", str(workdir / "nan"),
         "--echoes", str(path), "--max-iter", "5"],
        workdir,
    )
    assert proc.returncode == 4, proc.stderr
    assert "iteration" in proc.stderr


def test_container_from_another_sweep_exits_3(two_runs):
    workdir, config, (run1, _) = two_runs
    other = workdir / "f32"
    cli_ok(["synth", "--config", str(config), "--out-dir", str(other), "--f0-ghz", "32"], workdir)
    proc = run_cli(
        ["eval", "--config", str(config), "--out-dir", str(other), "--checkpoint-dir", str(run1),
         "--echoes", str(other / "echoes_test.bin")],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert "f0_hz" in proc.stderr


def test_checkpoint_from_another_scene_exits_3(two_runs):
    workdir, _, (run1, _) = two_runs
    config = write_config(workdir / "narrow.cfg", SMALL_CONFIG + "bandwidth_hz = 4e9\n")
    out = workdir / "narrow"
    proc = run_cli(
        ["shapes", "--config", str(config), "--out-dir", str(out), "--checkpoint-dir", str(run1)],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert "bandwidth_hz" in proc.stderr


def test_record_objective_keeps_the_reconstructions(two_runs):
    workdir, config, (run1, _) = two_runs
    plain = workdir / "fista_plain"
    cli_ok(["fista", "--config", str(config), "--out-dir", str(plain),
            "--echoes", str(run1 / "echoes_test.bin"), "--max-iter", "200"], workdir)
    traced = artifacts(run1 / "fista")
    pgms = {name: data for name, data in traced.items() if name.endswith(".pgm")}
    assert len(pgms) == 8
    assert pgms == artifacts(plain)
    traces = sorted(name for name in traced if name.startswith("fista_objective_"))
    assert traces == [f"fista_objective_{i:05d}.csv" for i in range(8)]
    for name in traces:
        lines = traced[name].decode().splitlines()
        assert lines[0] == "iteration,objective"
        assert len(lines) == 1 + 201


def test_fista_takes_solver_defaults_from_the_config(two_runs, tmp_path):
    workdir, config, (run1, _) = two_runs
    out = tmp_path / "fista"
    cli_ok(["fista", "--config", str(config), "--out-dir", str(out),
            "--echoes", str(run1 / "echoes_test.bin"), "--record-objective"], workdir)
    lines = (out / "fista_objective_00000.csv").read_text().splitlines()
    assert len(lines) == 1 + 201  # fista_max_iter = 200 in the config


@pytest.mark.parametrize("command, flag", [("sweep-snr", "--snr-db"), ("sweep-freq", "--f0-ghz")])
def test_empty_value_list_exits_2(two_runs, tmp_path, command, flag):
    workdir, config, (run1, _) = two_runs
    out = tmp_path / "out"
    proc = run_cli(
        [command, "--config", str(config), "--out-dir", str(out), "--checkpoint-dir", str(run1), flag],
        workdir,
    )
    assert proc.returncode == 2, proc.stderr
    assert flag in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["synth", "--f0-ghz", "0"], "f0"),
        (["synth", "--f0-ghz", "-3"], "f0"),
        (["sweep-freq", "--f0-ghz", "0", "31"], "f0"),
        (["sweep-snr", "--samples", "-3"], "--samples"),
        (["sweep-snr", "--samples", "0"], "--samples"),
        (["sweep-freq", "--samples", "0"], "--samples"),
    ],
)
def test_override_values_taken_as_given(two_runs, tmp_path, args, message):
    workdir, config, (run1, _) = two_runs
    out = tmp_path / "out"
    proc = run_cli(
        args[:1] + ["--config", str(config), "--out-dir", str(out), *args[1:]]
        + (["--checkpoint-dir", str(run1)] if args[0] != "synth" else []),
        workdir,
    )
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert not (out / "echoes_test.bin").exists()
