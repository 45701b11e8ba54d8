import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cgsphere
from cgsphere.cli import (
    EXIT_AUDIT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    audit_equivariance,
    main,
)
from cgsphere.network import clear_cg_corruption, corrupt_cg_entry
from cgsphere.training import load_checkpoint

import oracles

SMALL_CFG = """\
bandlimit = 2
grid_bandwidth = 4
layers = 2
tau = 3
hidden = 16
classes = 3
train_per_class = 8
test_per_class = 4
steps = 30
batch_size = 8
lr = 0.005
noise_sigma = 0.2
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + short training run shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.txt"
    cfg.write_text(SMALL_CFG)
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--out", str(run),
                 "--data", str(data)]) == EXIT_OK
    return {"root": root, "cfg": cfg, "data": data, "run": run,
            "ckpt": run / "checkpoint"}


def test_gen_data_outputs(workspace):
    data = workspace["data"]
    for name in ("train", "test", "test_nr", "test_r"):
        assert (data / f"{name}.sph").exists()
        assert (data / f"{name}.labels").exists()
    assert (data / "config.used").exists()
    labels = (data / "train.labels").read_text().split()
    assert len(labels) == 3 * 8


def test_gen_data_deterministic(workspace, tmp_path):
    again = tmp_path / "data2"
    assert main(["gen-data", "--config", str(workspace["cfg"]),
                 "--out", str(again)]) == EXIT_OK
    a = (workspace["data"] / "train.sph").read_bytes()
    b = (again / "train.sph").read_bytes()
    assert a == b


def test_train_artifacts(workspace):
    run = workspace["run"]
    assert (run / "train.log").exists()
    lines = (run / "train.log").read_text().strip().splitlines()
    assert len(lines) == 30
    assert lines[0].split("\t")[0] == "1"
    ckpt = workspace["ckpt"]
    for name in ("model.manifest", "weights.bin", "norm.bin", "adam.bin"):
        assert (ckpt / name).exists()


def test_eval_reports_accuracy(workspace, capsys):
    code = main(["eval", "--checkpoint", str(workspace["ckpt"]),
                 "--data", str(workspace["data"] / "test")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert "confusion" in out
    acc = float(out.split("accuracy", 1)[1].split()[0])
    assert 0.0 <= acc <= 1.0


def test_train_resume_extends_log(workspace, capsys):
    run = workspace["run"]
    code = main(["train", "--config", str(workspace["cfg"]),
                 "--out", str(run), "--data", str(workspace["data"]),
                 "--resume", str(workspace["ckpt"]), "--steps", "5"])
    assert code == EXIT_OK
    lines = (run / "train.log").read_text().strip().splitlines()
    assert len(lines) == 35
    assert lines[-1].split("\t")[0] == "35"


def test_resumed_train_writes_the_uninterrupted_checkpoint(workspace,
                                                           tmp_path):
    # each step's batch comes from (seed, step), so 15 steps, a checkpoint
    # and 15 resumed steps draw the batches of 30 straight steps
    common = ["--config", str(workspace["cfg"]), "--data",
              str(workspace["data"])]
    straight, cut = tmp_path / "straight", tmp_path / "cut"
    assert main(["train", *common, "--out", str(straight),
                 "--steps", "30"]) == EXIT_OK
    assert main(["train", *common, "--out", str(cut),
                 "--steps", "15"]) == EXIT_OK
    assert main(["train", *common, "--out", str(cut), "--steps", "15",
                 "--resume", str(cut / "checkpoint")]) == EXIT_OK
    for blob in ("model.manifest", "weights.bin", "norm.bin", "adam.bin"):
        assert (straight / "checkpoint" / blob).read_bytes() == \
            (cut / "checkpoint" / blob).read_bytes(), blob


def test_audit_passes_on_trained_checkpoint(workspace, capsys):
    code = main(["audit", "--checkpoint", str(workspace["ckpt"]),
                 "--trials", "5"])
    assert code == EXIT_OK
    assert "audit passed" in capsys.readouterr().out


def test_audit_detects_corrupted_coefficient(workspace, capsys):
    # this network reads block (1,1,1) only through layer 0's odd-degree
    # diagonal column, which is zero in a correct network, and (1,2,1)
    # through live columns
    for block in ("1,1,1,0", "1,2,1,0"):
        code = main(["audit", "--checkpoint", str(workspace["ckpt"]),
                     "--trials", "5", "--corrupt-cg", block])
        assert code == EXIT_AUDIT
        assert "AUDIT FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("value", [
    "1,1,5,0", "4,4,4,0", "1,1", "1,1,x,0", "1,1,1,6", "1,1,1,999",
    "1,1,1,-1"])
def test_audit_rejects_unused_or_malformed_corruption(workspace, capsys,
                                                      value):
    # a triangle violation, a degree above the band limit, two values that
    # are not four integers, and entries the 6-entry block (1,1,1) does not
    # have: nothing, or another entry than named, would be corrupted
    try:
        code = main(["audit", "--checkpoint", str(workspace["ckpt"]),
                     "--trials", "1", "--corrupt-cg", value])
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "audit passed" not in captured.out
    assert value in captured.err


@pytest.mark.parametrize("extra", [(), ("--corrupt-cg", "1,1,1,0")])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_audit_rejects_trials_below_one(workspace, capsys, trials, extra):
    # zero trials would check nothing and report a pass
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--checkpoint", str(workspace["ckpt"]),
              "--trials", trials, *extra])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "audit passed" not in captured.out
    assert f"--trials must be at least 1, got {trials}" in captured.err


def test_train_rejects_negative_steps(workspace, capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(workspace["cfg"]),
              "--out", str(tmp_path), "--data", str(workspace["data"]),
              "--steps", "-4"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "trained" not in captured.out
    assert "--steps must be at least 0, got -4" in captured.err
    assert not (tmp_path / "checkpoint").exists()


def test_train_accepts_zero_steps(workspace, capsys, tmp_path):
    assert main(["train", "--config", str(workspace["cfg"]),
                 "--out", str(tmp_path), "--data", str(workspace["data"]),
                 "--steps", "0"]) == EXIT_OK
    assert "trained 0 steps" in capsys.readouterr().out
    assert (tmp_path / "checkpoint").exists()


def test_config_with_negative_steps_exits_one(workspace, capsys, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CFG.replace("steps = 30", "steps = -7"))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path),
                 "--data", str(workspace["data"])]) == EXIT_USAGE
    assert "steps must be at least 0, got -7" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-data", "train", "audit"])
def test_negative_seed_flag_is_usage_error(workspace, capsys, tmp_path,
                                           command):
    args = {"gen-data": ["--config", str(workspace["cfg"]),
                         "--out", str(tmp_path / "d")],
            "train": ["--config", str(workspace["cfg"]),
                      "--out", str(tmp_path / "r"),
                      "--data", str(workspace["data"])],
            "audit": ["--checkpoint", str(workspace["ckpt"])]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--seed", "-5"])
    assert exc.value.code == EXIT_USAGE
    assert "--seed must be at least 0, got -5" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("old, new, message", [
    ("steps = 30", "seed = -1", "seed must be at least 0, got -1"),
    ("noise_sigma = 0.2", "noise_sigma = nan", "noise_sigma must be finite"),
    ("lr = 0.005", "lr = nan", "lr must be finite"),
    ("lr = 0.005", "lr = -1", "lr must be at least 0"),
    ("lr = 0.005", "beta1 = 1.5", "beta1 must lie in [0, 1)"),
    ("lr = 0.005", "adam_eps = 0", "adam_eps must be above 0"),
])
def test_config_with_bad_training_value_exits_one(workspace, capsys, tmp_path,
                                                  old, new, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CFG.replace(old, new))
    for command in (["gen-data", "--out", str(tmp_path / "d")],
                    ["train", "--out", str(tmp_path / "r"),
                     "--data", str(workspace["data"])]):
        assert main([command[0], "--config", str(cfg),
                     *command[1:]]) == EXIT_USAGE
        assert message in capsys.readouterr().err
    assert not (tmp_path / "d").exists() and not (tmp_path / "r").exists()


def test_config_error_names_the_file(workspace, capsys, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CFG.replace("steps = 30", "seed = -1"))
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "d")]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"error: {cfg}: seed must be at least 0, got -1\n"


def checkpoint_with_weight(workspace, tmp_path, value):
    """A copy of the trained checkpoint whose first stored weight (layer 1,
    degree 0) has the real part ``value``."""
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    for path in workspace["ckpt"].iterdir():
        (ckpt / path.name).write_bytes(path.read_bytes())
    blob = bytearray((ckpt / "weights.bin").read_bytes())
    blob[:8] = np.array(value, dtype="<f8").tobytes()
    (ckpt / "weights.bin").write_bytes(bytes(blob))
    return ckpt


# a finite weight of 1e300 loads, then overflows to inf in the CG product,
# which the next mix turns into NaN
OVERFLOW = pytest.mark.filterwarnings(
    "ignore:overflow encountered in multiply:RuntimeWarning",
    "ignore:invalid value encountered in matmul:RuntimeWarning")


@OVERFLOW
def test_audit_fails_on_non_finite_weight(workspace, capsys, tmp_path):
    ckpt = checkpoint_with_weight(workspace, tmp_path, 1e300)
    code = main(["audit", "--checkpoint", str(ckpt), "--trials", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_AUDIT
    assert "AUDIT FAILED (non-finite error; tolerance" in out
    assert "audit passed" not in out
    weights, norm_states, _, _ = load_checkpoint(ckpt)
    assert all(np.isnan(audit_equivariance(weights, norm_states, 3)))


@OVERFLOW
def test_eval_fails_on_non_finite_weight(workspace, capsys, tmp_path):
    ckpt = checkpoint_with_weight(workspace, tmp_path, 1e300)
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(workspace["data"] / "test")])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERIC
    assert captured.err == "numeric failure: non-finite logits for example 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["audit", "eval"])
def test_nan_weight_fails_at_load(workspace, capsys, tmp_path, command):
    ckpt = checkpoint_with_weight(workspace, tmp_path, np.nan)
    args = ["--data", str(workspace["data"] / "test")] \
        if command == "eval" else []
    assert main([command, "--checkpoint", str(ckpt), *args]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.err == (f"error: {ckpt / 'weights.bin'}: layer 1 degree 0 "
                            f"weights must be finite\n")
    assert captured.out == ""


@pytest.mark.parametrize("field, value", [
    ("tau", "2"), ("classes", "2"), ("bandlimit", "1"), ("layers", "3"),
    ("hidden", "8")])
def test_resume_rejects_config_of_another_network(workspace, capsys, tmp_path,
                                                  field, value):
    """The trained checkpoint has L=2, 2 layers, tau=3, 3 classes and a
    16-wide head; a config that differs in one of them stops the resumed
    run before it trains."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(
        f"{field} = {value}\n" if line.startswith(f"{field} =") else line
        for line in SMALL_CFG.splitlines(keepends=True)))
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--out", str(out),
                 "--data", str(workspace["data"]),
                 "--resume", str(workspace["ckpt"]), "--steps", "1"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {cfg}: {field} = {value} does not match the network of "
        f"{workspace['ckpt'] / 'model.manifest'}\n")
    assert not (out / "checkpoint").exists()


def test_resume_rejects_another_seed(workspace, capsys, tmp_path):
    """The checkpoint records the seed its batches were drawn from (the
    config's 0); a resume under another seed would draw another stream, so
    it stops before it trains, naming the manifest and the seed."""
    manifest = workspace["ckpt"] / "model.manifest"
    assert "seed=0" in manifest.read_text().splitlines()
    out = tmp_path / "run"
    code = main(["train", "--config", str(workspace["cfg"]), "--out",
                 str(out), "--data", str(workspace["data"]), "--seed", "3",
                 "--resume", str(workspace["ckpt"]), "--steps", "1"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {manifest}: seed=0 does not match this run's seed 3; "
        f"resume with --seed 0 to continue its batch stream\n")
    assert not (out / "checkpoint").exists()


def test_resume_accepts_a_manifest_without_a_seed(workspace, tmp_path):
    """A checkpoint whose manifest has no seed line, as manifests had
    before, resumes under any seed, and the new checkpoint records it."""
    old = tmp_path / "old"
    shutil.copytree(workspace["ckpt"], old)
    manifest = old / "model.manifest"
    manifest.write_text("".join(
        line for line in manifest.read_text().splitlines(keepends=True)
        if not line.startswith("seed=")))
    out = tmp_path / "run"
    assert main(["train", "--config", str(workspace["cfg"]), "--out",
                 str(out), "--data", str(workspace["data"]), "--seed", "3",
                 "--resume", str(old), "--steps", "1"]) == EXIT_OK
    assert "seed=3" in \
        (out / "checkpoint" / "model.manifest").read_text().splitlines()


@pytest.mark.parametrize("corrupt", [None, (1, 1, 1, 0), (1, 2, 1, 0)])
def test_audit_batch_of_two_matches_two_forwards(workspace, corrupt):
    weights, norms, _, _ = load_checkpoint(workspace["ckpt"])
    if corrupt:
        corrupt_cg_entry(*corrupt)
    try:
        got = audit_equivariance(weights, norms, 4, seed=12)
        want = oracles.audit_two_forwards(weights, norms, 4, seed=12)
    finally:
        clear_cg_corruption()
    assert max(got) > 1e-3 if corrupt else max(got) < 1e-12
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-13


@pytest.mark.parametrize("command", ["eval", "audit"])
def test_checkpoint_of_the_earlier_format_exits_numeric(workspace, capsys,
                                                        tmp_path, command):
    # a CGNET1 checkpoint holds a weight row for every column of each
    # self-pair's grid; the error names the manifest and the format
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    for blob in workspace["ckpt"].iterdir():
        (ckpt / blob.name).write_bytes(blob.read_bytes())
    manifest = ckpt / "model.manifest"
    manifest.write_text(manifest.read_text().replace("format=CGNET2",
                                                     "format=CGNET1"))
    args = ["--data", str(workspace["data"] / "test")] \
        if command == "eval" else ["--trials", "1"]
    assert main([command, "--checkpoint", str(ckpt)] + args) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: format=CGNET1 is not CGNET2")


def test_audit_restores_tables_after_corruption(workspace, capsys):
    # the corruption from the previous invocation must not leak
    code = main(["audit", "--checkpoint", str(workspace["ckpt"]),
                 "--trials", "3"])
    assert code == EXIT_OK


def test_dump_cg_values(capsys):
    assert main(["dump-cg", "1", "1", "0"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    parsed = [line.split() for line in lines]
    for l1, l2, l, m1, m2, m, value in parsed:
        assert int(m1) + int(m2) == int(m)
        assert abs(abs(float(value)) - 1 / math.sqrt(3)) < 1e-15


def test_dump_cg_invalid_triple(capsys):
    assert main(["dump-cg", "1", "1", "5"]) == EXIT_NUMERIC


@pytest.mark.parametrize("triple", [("65", "0", "65"), ("64", "64", "65")])
def test_dump_cg_degree_above_max(capsys, triple):
    assert main(["dump-cg", *triple]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: degree 65 exceeds MAX_DEGREE = 64")


def test_eval_rejects_manifest_without_n_out(workspace, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    for path in workspace["ckpt"].iterdir():
        (ckpt / path.name).write_bytes(path.read_bytes())
    manifest = ckpt / "model.manifest"
    manifest.write_text("".join(
        line for line in manifest.read_text().splitlines(keepends=True)
        if not line.startswith("n_out=")))
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(workspace["data"] / "test")])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "model.manifest" in err and "n_out" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--config", "x", "--out", "y", "--frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_bad_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("bandlimit = nope\n")
    assert main(["gen-data", "--config", str(bad),
                 "--out", str(tmp_path / "d")]) == EXIT_USAGE


def test_gen_data_rejects_empty_split_naming_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CFG.replace("train_per_class = 8",
                                     "train_per_class = 0"))
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "d")]) == EXIT_USAGE
    assert "train_per_class" in capsys.readouterr().err


def test_gen_data_rejects_key_set_twice(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CFG + "train_per_class = 0\n")
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "d")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'train_per_class' is already set on line 7" in err
    assert not (tmp_path / "d").exists()


def test_missing_dataset_is_numeric_error(workspace, capsys):
    code = main(["eval", "--checkpoint", str(workspace["ckpt"]),
                 "--data", str(workspace["root"] / "nope")])
    assert code == EXIT_NUMERIC


@pytest.mark.parametrize("label", ["-1", "3", "1.5", "x"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_bad_label_rejected_naming_file(workspace, tmp_path, capsys, command,
                                        label):
    # the model has 3 classes, so 3 is the smallest label out of range
    data = tmp_path / "data"
    data.mkdir()
    for name in ("train", "test"):
        (data / f"{name}.sph").write_bytes(
            (workspace["data"] / f"{name}.sph").read_bytes())
        labels = (workspace["data"] / f"{name}.labels").read_text().split()
        labels[-1] = label
        (data / f"{name}.labels").write_text("\n".join(labels) + "\n")
    if command == "train":
        argv = ["train", "--config", str(workspace["cfg"]),
                "--out", str(tmp_path / "run"), "--data", str(data),
                "--steps", "1"]
        bad_file = data / "train.labels"
    else:
        argv = ["eval", "--checkpoint", str(workspace["ckpt"]),
                "--data", str(data / "test")]
        bad_file = data / "test.labels"
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert str(bad_file) in err
    assert label in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_dataset_grid_too_coarse_rejected_naming_file(workspace, tmp_path,
                                                      capsys, command):
    # a b=2 grid cannot carry the L=2 model's degrees
    cfg = tmp_path / "coarse.txt"
    cfg.write_text(SMALL_CFG.replace("bandlimit = 2", "bandlimit = 1")
                   .replace("grid_bandwidth = 4", "grid_bandwidth = 2"))
    data = tmp_path / "coarse"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) \
        == EXIT_OK
    capsys.readouterr()
    if command == "train":
        argv = ["train", "--config", str(workspace["cfg"]),
                "--out", str(tmp_path / "run"), "--data", str(data),
                "--steps", "1"]
        bad_file = data / "train.sph"
    else:
        argv = ["eval", "--checkpoint", str(workspace["ckpt"]),
                "--data", str(data / "test")]
        bad_file = data / "test.sph"
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert str(bad_file) in err
    assert "bandwidth b=2" in err and "bandlimit L=2" in err


def test_cli_import_does_not_load_scipy():
    src = str(Path(cgsphere.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cgsphere.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_nr_r_test_sets_share_examples(workspace):
    from cgsphere.data import read_dataset
    nr = read_dataset(workspace["data"] / "test_nr")
    r = read_dataset(workspace["data"] / "test_r")
    np.testing.assert_array_equal(nr.labels, r.labels)
    np.testing.assert_allclose(oracles.grid_energy(nr.signal),
                               oracles.grid_energy(r.signal),
                               rtol=1e-9)
