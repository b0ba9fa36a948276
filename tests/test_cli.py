"""The CLI end to end on a small scene: every subcommand runs, two runs
write byte-identical artifacts, and the exit-code contract holds."""

import argparse
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli
from radarqi import io as rio
from radarqi.cli import build_parser, main
from radarqi.config import config_from_text
from radarqi.training import load_checkpoint, save_checkpoint

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
        "snr/sweep_snr_ssim_fista.pgm",
        "freq/sweep_freq.csv",
        "freq/sweep_freq_ssim_dnn.pgm",
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


def test_mnist_dir_without_the_training_images_exits_3(two_runs, tmp_path):
    workdir, config, _ = two_runs
    proc = run_cli(
        ["synth", "--config", str(config), "--out-dir", str(tmp_path / "out"),
         "--mnist-dir", str(tmp_path)],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert f"no MNIST training-image IDX file found under {tmp_path}" in proc.stderr


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


@pytest.mark.parametrize("command", ["fista", "infer", "eval"])
def test_container_without_echoes_exits_3(two_runs, tmp_path, command):
    workdir, config, (run1, _) = two_runs
    echoes, meta = rio.load_echoes(run1 / "echoes_test.bin")
    path = tmp_path / "no_echoes.bin"
    keys = ("f0_hz", "bandwidth_hz", "n_freqs", "n_antennas", "snr_db", "seed")
    rio.save_echoes(path, echoes[:0], **{k: meta[k] for k in keys})
    inputs = {
        "fista": ["--max-iter", "5"],
        "infer": ["--checkpoint", str(run1 / "checkpoint_lfista_resnet.ckpt")],
        "eval": ["--checkpoint-dir", str(run1)],
    }[command]
    out = tmp_path / "out"
    proc = run_cli(
        [command, "--config", str(config), "--out-dir", str(out), "--echoes", str(path), *inputs],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert f"{path}: the echo container holds no echoes" in proc.stderr
    assert not list(out.glob("*"))


@pytest.mark.parametrize("kind", ["fista_resnet", "lfista_resnet", "dnn"])
def test_infer_on_a_non_finite_echo_exits_4(two_runs, tmp_path, kind):
    workdir, config, (run1, _) = two_runs
    echoes, meta = rio.load_echoes(run1 / "echoes_test.bin")
    echoes[3, 0] = np.nan
    path = tmp_path / "nan_echo.bin"
    keys = ("f0_hz", "bandwidth_hz", "n_freqs", "n_antennas", "snr_db", "seed")
    rio.save_echoes(path, echoes, **{k: meta[k] for k in keys})
    proc = run_cli(
        ["infer", "--config", str(config), "--out-dir", str(tmp_path / "out"),
         "--echoes", str(path), "--checkpoint", str(run1 / f"checkpoint_{kind}.ckpt")],
        workdir,
    )
    assert proc.returncode == 4, proc.stderr
    assert "non-finite map from echo 3" in proc.stderr
    assert not list((tmp_path / "out").glob("*.pgm"))


@pytest.mark.parametrize(
    "args, xs, labels",
    [
        (["sweep-freq", "--f0-ghz", "30", "30"], ["30.0", "30.0"], ["f0 30 GHz"] * 2),
        (
            ["sweep-snr", "--snr-db", "10", "10"],
            ["none", "10.0", "10.0"],
            ["snr none", "snr 10 dB", "snr 10 dB"],
        ),
    ],
    ids=["sweep-freq", "sweep-snr"],
)
def test_sweep_writes_a_row_per_listed_value(two_runs, tmp_path, args, xs, labels):
    """Four methods per condition, in runner order, and one printed line per
    condition. A repeated frequency scores the same; a repeated SNR draws
    fresh noise, because condition k is seeded with seed + k."""
    workdir, config, (run1, _) = two_runs
    out = tmp_path / "out"
    proc = cli_ok(args[:1] + ["--config", str(config), "--out-dir", str(out),
                  "--checkpoint-dir", str(run1), *args[1:]], workdir)
    column = args[1][2:].replace("-", "_")
    lines = (out / f"{args[0].replace('-', '_')}.csv").read_text().splitlines()
    assert lines[:2] == ["# n_samples = 8", f"{column},method,mean_mse,mean_ssim"]
    methods = ["fista", "fista_resnet", "lfista_resnet", "dnn"]
    assert [line.split(",")[:2] for line in lines[2:]] == [[x, m] for x in xs for m in methods]
    printed = proc.stdout.splitlines()
    assert [line.split(" ssim: fista=")[0] for line in printed] == labels
    same_condition = args[0] == "sweep-freq"
    assert (lines[-8:-4] == lines[-4:]) == same_condition
    if same_condition:
        assert printed[-2] == printed[-1]


@pytest.mark.parametrize(
    "changes",
    [{"f0_hz": float("nan")}, {"bandwidth_hz": 0.0}, {"n_freqs": 0}],
    ids=["nan_f0", "zero_bandwidth", "no_freqs"],
)
def test_container_header_without_a_scene_exits_3(two_runs, tmp_path, changes):
    workdir, config, (run1, _) = two_runs
    echoes, meta = rio.load_echoes(run1 / "echoes_test.bin")
    keys = ("f0_hz", "bandwidth_hz", "n_freqs", "n_antennas", "snr_db", "seed")
    header = {**{k: meta[k] for k in keys}, **changes}
    path = tmp_path / "bad_header.bin"
    rio.save_echoes(path, echoes[:, : header["n_freqs"] * header["n_antennas"]], **header)
    proc = run_cli(
        ["fista", "--config", str(config), "--out-dir", str(tmp_path / "out"),
         "--echoes", str(path), "--max-iter", "5"],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert f"echo container {path} makes no scene" in proc.stderr


@pytest.mark.parametrize(
    "name, line, command",
    [
        ("echoes_test.bin", "f0_hz = 32000000000.0", "fista"),
        ("checkpoint_lfista_resnet.ckpt", "epoch = 99", "infer"),
    ],
    ids=["echoes", "checkpoint"],
)
def test_header_key_listed_twice_exits_3(two_runs, tmp_path, name, line, command):
    workdir, config, (run1, _) = two_runs
    path = tmp_path / name
    path.write_bytes((run1 / name).read_bytes().replace(b"\n", f"\n{line}\n".encode(), 1))
    inputs = {
        "fista": ["--echoes", str(path), "--max-iter", "5"],
        "infer": ["--echoes", str(run1 / "echoes_test.bin"), "--checkpoint", str(path)],
    }[command]
    out = tmp_path / "out"
    proc = run_cli([command, "--config", str(config), "--out-dir", str(out), *inputs], workdir)
    assert proc.returncode == 3, proc.stderr
    key = line.split(" = ")[0]
    assert f"{path}: header key '{key}' is listed twice" in proc.stderr
    assert not list(out.glob("*.pgm"))


@pytest.mark.parametrize(
    "old, new",
    [
        (b"\nres_blocks = 2\n", b"\nres_blocks = two\n"),
        (b"\n[config]\n", b"\n[config]\nantenna_count = 4\n"),
        (b"\ntrain_size = 24\n", b"\ntrain_size = 0\n"),
        (b"\nseed = 0\n", b"\nseed = -1\n"),
    ],
    ids=["bad_value", "unknown_key", "empty_split", "negative_seed"],
)
def test_checkpoint_with_a_bad_config_exits_3(two_runs, tmp_path, old, new):
    workdir, config, (run1, _) = two_runs
    data = (run1 / "checkpoint_lfista_resnet.ckpt").read_bytes()
    assert old in data
    path = tmp_path / "bad_config.ckpt"
    path.write_bytes(data.replace(old, new, 1))
    proc = run_cli(
        ["infer", "--config", str(config), "--out-dir", str(tmp_path / "out"),
         "--echoes", str(run1 / "echoes_test.bin"), "--checkpoint", str(path)],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert f"{path}: bad checkpoint config" in proc.stderr

def test_fista_resnet_checkpoint_with_block_arrays_exits_3(two_runs, tmp_path):
    # fista_resnet holds no block parameters; a checkpoint that carries them
    # is from before that change
    workdir, config, (run1, _) = two_runs
    ckpt = load_checkpoint(run1 / "checkpoint_fista_resnet.ckpt")
    n_blocks = config_from_text(config.read_text()).n_blocks
    blocks = {"block_mu_raw": np.zeros(n_blocks), "block_theta_raw": np.zeros(n_blocks)}
    ckpt.params = {**blocks, **ckpt.params}
    path = tmp_path / "old_fista_resnet.ckpt"
    save_checkpoint(path, ckpt)
    proc = run_cli(
        ["infer", "--config", str(config), "--out-dir", str(tmp_path / "out"),
         "--echoes", str(run1 / "echoes_test.bin"), "--checkpoint", str(path)],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert "unknown ['block_mu_raw', 'block_theta_raw']" in proc.stderr
    assert not list((tmp_path / "out").glob("*.pgm"))


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


@pytest.mark.parametrize(
    "changes, kind, field",
    [
        ({"n_freqs": 12}, "lfista_resnet", "n_freqs"),
        ({"n_freqs": 15, "n_antennas": 2}, "dnn", "n_antennas"),
        ({"bandwidth_hz": 4e9}, "lfista_resnet", "bandwidth_hz"),
    ],
    ids=["12x3", "15x2_same_length", "4ghz"],
)
def test_infer_on_a_container_of_another_scene_exits_3(two_runs, tmp_path, changes, kind, field):
    """Only the start frequency of an infer container may differ from the
    config; a 15 x 2 container has the 10 x 3 echo length, so only its
    header tells it apart."""
    workdir, config, (run1, _) = two_runs
    echoes, meta = rio.load_echoes(run1 / "echoes_test.bin")
    keys = ("f0_hz", "bandwidth_hz", "n_freqs", "n_antennas", "snr_db", "seed")
    header = {**{k: meta[k] for k in keys}, **changes}
    path = tmp_path / "other_scene.bin"
    shape = (len(echoes), header["n_freqs"] * header["n_antennas"])
    rio.save_echoes(path, np.resize(echoes, shape), **header)
    out = tmp_path / "out"
    proc = run_cli(
        ["infer", "--config", str(config), "--out-dir", str(out), "--echoes", str(path),
         "--checkpoint", str(run1 / f"checkpoint_{kind}.ckpt")],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert f"echo container {path} was made with {field}=" in proc.stderr
    assert not list(out.glob("*.pgm"))


@pytest.mark.parametrize(
    "line", ["standoff_m = 1.5", "cell_size_m = 0.02", "side_cells = 6"],
    ids=["standoff", "cell_size", "grid"],
)
def test_container_synthesized_for_another_scene(two_runs, tmp_path, line):
    """synth records the grid and the standoff: infer and eval --echoes
    reject such a container, and fista reconstructs it on its own grid."""
    workdir, config, (run1, _) = two_runs
    field, value = line.split(" = ")
    kept = [row for row in SMALL_CONFIG.splitlines() if not row.startswith(f"{field} =")]
    other = write_config(tmp_path / "other.cfg", "\n".join(kept + [line, ""]))
    cli_ok(["synth", "--config", str(other), "--out-dir", str(tmp_path)], workdir)
    echoes = str(tmp_path / "echoes_test.bin")
    for command, inputs in [
        ("infer", ["--checkpoint", str(run1 / "checkpoint_lfista_resnet.ckpt")]),
        ("eval", ["--checkpoint-dir", str(run1)]),
    ]:
        out = tmp_path / command
        proc = run_cli(
            [command, "--config", str(config), "--out-dir", str(out), "--echoes", echoes, *inputs],
            workdir,
        )
        assert proc.returncode == 3, proc.stderr
        assert f"echo container {echoes} was made with {field}={value}," in proc.stderr
        assert not list(out.glob("*"))
    out = tmp_path / "fista"
    cli_ok(["fista", "--config", str(config), "--out-dir", str(out), "--echoes", echoes,
            "--max-iter", "5"], workdir)
    side = config_from_text(other.read_text()).side_cells
    assert (out / "fista_00000.pgm").read_bytes().startswith(f"P5\n{side} {side}\n".encode())


def test_container_synthesized_for_another_array_frequency(two_runs, tmp_path):
    """synth records the array's design frequency (the config's f0_hz) apart
    from the sweep start: infer and eval --echoes reject a container made
    under another f0_hz, also one whose sweep was moved back to the config's
    start, and fista reconstructs it on its own array."""
    workdir, config, (run1, _) = two_runs
    other = write_config(tmp_path / "f24.cfg", with_line("f0_hz = 24e9"))
    made, moved = tmp_path / "made", tmp_path / "moved"
    cli_ok(["synth", "--config", str(other), "--out-dir", str(made)], workdir)
    cli_ok(["synth", "--config", str(other), "--out-dir", str(moved), "--f0-ghz", "30"], workdir)
    for container, command, field in [
        (made, "infer", "array_f0_hz"),
        (made, "eval", "f0_hz"),
        (moved, "infer", "array_f0_hz"),
        (moved, "eval", "array_f0_hz"),
    ]:
        echoes = str(container / "echoes_test.bin")
        inputs = {
            "infer": ["--checkpoint", str(run1 / "checkpoint_lfista_resnet.ckpt")],
            "eval": ["--checkpoint-dir", str(run1)],
        }[command]
        out = tmp_path / f"{container.name}_{command}"
        proc = run_cli(
            [command, "--config", str(config), "--out-dir", str(out), "--echoes", echoes, *inputs],
            workdir,
        )
        assert proc.returncode == 3, proc.stderr
        expected = f"echo container {echoes} was made with {field}=24000000000.0, current config"
        assert expected in proc.stderr
        assert not list(out.glob("*"))
    pgms = {}
    for name, cfg in [("small", config), ("f24", other)]:
        out = tmp_path / f"fista_{name}"
        cli_ok(["fista", "--config", str(cfg), "--out-dir", str(out),
                "--echoes", str(made / "echoes_test.bin")], workdir)
        pgms[name] = artifacts(out)
    assert pgms["small"] == pgms["f24"] and len(pgms["small"]) == 8


def test_infer_reads_a_container_of_another_start_frequency(two_runs, tmp_path):
    workdir, config, (run1, _) = two_runs
    cli_ok(["synth", "--config", str(config), "--out-dir", str(tmp_path), "--f0-ghz", "32"], workdir)
    out = tmp_path / "out"
    cli_ok(
        ["infer", "--config", str(config), "--out-dir", str(out),
         "--echoes", str(tmp_path / "echoes_test.bin"),
         "--checkpoint", str(run1 / "checkpoint_lfista_resnet.ckpt")],
        workdir,
    )
    assert len(list(out.glob("infer_*.pgm"))) == config_from_text(SMALL_CONFIG).test_size


def test_eval_container_of_another_seed_exits_3(two_runs, tmp_path):
    # the test split depends on the seed, so its echoes score other maps
    workdir, config, (run1, _) = two_runs
    cli_ok(["synth", "--config", str(config), "--out-dir", str(tmp_path), "--seed", "1"], workdir)
    out = tmp_path / "out"
    proc = run_cli(
        ["eval", "--config", str(config), "--out-dir", str(out), "--checkpoint-dir", str(run1),
         "--echoes", str(tmp_path / "echoes_test.bin")],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert "was made with seed=1, current config has 0" in proc.stderr
    assert not list(out.glob("*"))


def test_eval_container_of_the_validation_split_exits_3(two_runs, tmp_path):
    # val and test hold 8 echoes each, so only the recorded split tells them apart
    workdir, config, (run1, _) = two_runs
    cli_ok(["synth", "--config", str(config), "--out-dir", str(tmp_path), "--split", "val"], workdir)
    out = tmp_path / "out"
    proc = run_cli(
        ["eval", "--config", str(config), "--out-dir", str(out), "--checkpoint-dir", str(run1),
         "--echoes", str(tmp_path / "echoes_val.bin")],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert "holds the val split, not the test split" in proc.stderr
    assert not list(out.glob("*"))


def test_checkpoint_of_an_unknown_kind_exits_3(two_runs, tmp_path):
    workdir, config, (run1, _) = two_runs
    data = (run1 / "checkpoint_lfista_resnet.ckpt").read_bytes()
    old = b"\nkind = lfista_resnet\n"
    assert old in data
    path = tmp_path / "unknown_kind.ckpt"
    path.write_bytes(data.replace(old, b"\nkind = resnet9000\n", 1))
    out = tmp_path / "out"
    proc = run_cli(
        ["infer", "--config", str(config), "--out-dir", str(out),
         "--echoes", str(run1 / "echoes_test.bin"), "--checkpoint", str(path)],
        workdir,
    )
    assert proc.returncode == 3, proc.stderr
    assert f"{path}: unknown model kind 'resnet9000'" in proc.stderr
    assert not list(out.glob("*.pgm"))


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
        (["synth", "--snr-db", "nan"], "SNR"),
        (["synth", "--snr-db=-inf"], "SNR"),
        (["sweep-snr", "--snr-db", "nan"], "SNR"),
        (["sweep-snr", "--snr-db", "10", "inf"], "SNR"),
        (["synth", "--snr-db", "5000"], "SNR"),
        (["synth", "--snr-db=-5000"], "SNR"),
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
    assert "Warning" not in proc.stderr
    assert not list(out.rglob("*"))


def test_scene_beyond_the_float_range_exits_2(tmp_path):
    config = write_config(tmp_path / "far.cfg", with_line("standoff_m = 1e300"))
    out = tmp_path / "out"
    proc = run_cli(["synth", "--config", str(config), "--out-dir", str(out)], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "scene" in proc.stderr
    assert "Warning" not in proc.stderr
    assert not list(out.rglob("*"))


def with_line(line: str) -> str:
    """SMALL_CONFIG with ``line`` in place of the line of the same key."""
    key = line.split(" = ")[0]
    kept = [old for old in SMALL_CONFIG.splitlines() if old.split(" = ")[0] != key]
    return "\n".join([*kept, line]) + "\n"


@pytest.mark.parametrize(
    "line, command",
    [
        ("res_channels = 0", "train"),
        ("learning_rate = -0.01", "train"),
        ("plateau_factor = 0.0", "train"),
        ("res_blocks = -1", "train"),
        ("n_blocks = 0", "train"),
        ("frozen_lambda = 0.0", "train"),
        ("learning_rate = nan", "train"),
        ("frozen_lambda = nan", "train"),
        ("loss_lambda2 = inf", "train"),
        ("standoff_m = nan", "synth"),
        ("seed = -1", "synth"),
    ],
)
def test_out_of_range_hyperparameter_exits_2(tmp_path, line, command):
    config = write_config(tmp_path / "bad.cfg", with_line(line))
    out = tmp_path / "out"
    proc = run_cli([command, "--config", str(config), "--out-dir", str(out)], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "config error:" in proc.stderr
    assert line.split(" = ")[0] in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "option, field",
    [
        ("--lambda=nan", "fista_lambda"),
        ("--lambda=inf", "fista_lambda"),
        ("--lambda=-0.1", "fista_lambda"),
        ("--max-iter=0", "fista_max_iter"),
    ],
)
def test_fista_overrides_are_range_checked_as_config(two_runs, tmp_path, option, field):
    workdir, config, (run1, _) = two_runs
    out = tmp_path / "out"
    proc = run_cli(
        ["fista", "--config", str(config), "--out-dir", str(out),
         "--echoes", str(run1 / "echoes_test.bin"), option],
        workdir,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error:" in proc.stderr and field in proc.stderr
    assert not out.exists()


def test_synth_header_holds_the_swept_f0_and_the_config_sweep(two_runs, tmp_path):
    workdir, config, _ = two_runs
    out = tmp_path / "f32"
    cli_ok(["synth", "--config", str(config), "--out-dir", str(out), "--f0-ghz", "32"], workdir)
    header = (out / "echoes_test.bin").read_bytes().split(b"\n[binary]\n")[0].decode()
    cfg = config_from_text(SMALL_CONFIG)
    for line in (
        "f0_hz = 32000000000.0",
        f"bandwidth_hz = {cfg.bandwidth_hz!r}",
        f"n_freqs = {cfg.n_freqs}",
    ):
        assert line in header.splitlines()


# Each subcommand's options, as build_parser() declares them. fista, infer and
# shapes build no dataset, so they take no --seed, --fast or --mnist-dir.
SHARED = {"--config", "--out-dir"}
DATASET = SHARED | {"--seed", "--fast", "--mnist-dir"}
OPTIONS = {
    "synth": DATASET | {"--split", "--snr-db", "--f0-ghz"},
    "fista": SHARED | {"--echoes", "--lambda", "--max-iter", "--record-objective"},
    "train": DATASET | {"--model"},
    "infer": SHARED | {"--checkpoint", "--echoes"},
    "eval": DATASET | {"--echoes", "--checkpoint-dir"},
    "sweep-snr": DATASET | {"--checkpoint-dir", "--samples", "--snr-db"},
    "sweep-freq": DATASET | {"--checkpoint-dir", "--samples", "--f0-ghz"},
    "shapes": SHARED | {"--checkpoint-dir"},
}


def test_each_subcommand_takes_exactly_its_options():
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    found = {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in subparsers.choices.items()
    }
    assert found == OPTIONS
    assert sum(len(options) for options in found.values()) == 50


@pytest.mark.parametrize("command", ["fista", "infer", "shapes"])
@pytest.mark.parametrize(
    "flag", [["--seed", "5"], ["--fast"], ["--mnist-dir", "mnist"]], ids=["seed", "fast", "mnist_dir"]
)
def test_dataset_flag_on_a_subcommand_without_a_dataset_exits_2(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    required = {
        "fista": ["--echoes", "e.bin"],
        "infer": ["--echoes", "e.bin", "--checkpoint", "m.ckpt"],
        "shapes": [],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--out-dir", str(out), *required, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()
