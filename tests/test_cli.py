"""End-to-end command-line checks: exit codes, artifacts, and determinism."""

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import comem
import comem.tensor as T
from comem import cli
from comem.data import FeatureSequence, write_feature_file

CLI = [sys.executable, "-m", "comem.cli"]

# The directory holding the `comem` this test process imported (an install or
# `src/`). Subprocesses run in temporary cwds, where a relative PYTHONPATH such
# as `src` no longer resolves, so they get this absolute path first.
PACKAGE_ROOT = str(Path(comem.__file__).resolve().parent.parent)

# What the interpreter prints when `python -m comem.cli` cannot import the package.
MISSING_PACKAGE = re.compile(r"No module named '?comem\b")


def run_cli(*args, cwd, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, full_env.get("PYTHONPATH")]))
    r = subprocess.run(CLI + list(args), cwd=cwd, env=full_env,
                       capture_output=True, text=True)
    if MISSING_PACKAGE.search(r.stderr):
        pytest.fail(f"the CLI subprocess could not import comem:\n{r.stderr}")
    return r


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated dataset plus small trained checkpoints, built once via the CLI."""
    ws = tmp_path_factory.mktemp("cli")
    r = run_cli("gen", "--out", "data", "--episodes", "20", "--seed", "21", cwd=ws)
    assert r.returncode == 0, r.stderr
    for task, extra in [("frame", []), ("trans", []), ("frame1", ["--levels", "1"])]:
        name = "frame" if task == "frame1" else task
        r = run_cli("train", "--task", name, "--data", "data", "--out", f"{task}.ckpt",
                    "--epochs", "1", "--batch", "8", *extra, cwd=ws)
        assert r.returncode == 0, r.stderr
    return ws


# -- gen ----------------------------------------------------------------------


def test_gen_is_byte_identical_across_runs(tmp_path):
    for name in ("d1", "d2"):
        r = run_cli("gen", "--out", name, "--episodes", "10", "--seed", "3", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "10 episodes" in r.stdout
    files = sorted(p.relative_to(tmp_path / "d1") for p in (tmp_path / "d1").rglob("*") if p.is_file())
    assert files, "generator wrote no files"
    for rel in files:
        assert filecmp.cmp(tmp_path / "d1" / rel, tmp_path / "d2" / rel, shallow=False), rel
    manifest = json.loads((tmp_path / "d1" / "manifest.json").read_text())
    assert manifest["episodes"] == 10
    assert (tmp_path / "d1" / "run_config.json").exists()


def test_gen_refuses_nonempty_dir(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "junk").write_text("x")
    r = run_cli("gen", "--out", "d", "--episodes", "2", cwd=tmp_path)
    assert r.returncode == 2
    assert "not empty" in r.stderr
    r = run_cli("gen", "--out", "d", "--episodes", "2", "--force", cwd=tmp_path)
    assert r.returncode == 0


# -- train / eval ----------------------------------------------------------------


def test_train_writes_checkpoint_metrics_and_config(workspace):
    assert (workspace / "frame.ckpt").exists()
    assert (workspace / json.loads((workspace / "frame.ckpt").read_text())["blob"]).exists()
    cfg = json.loads((workspace / "frame.ckpt.config.json").read_text())
    assert cfg["command"] == "train" and cfg["config"]["task"] == "frame"
    lines = (workspace / "frame.ckpt.metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_metric,seconds"
    assert len(lines) == 2  # one epoch


def test_refused_train_leaves_no_checkpoint_files(tmp_path):
    """5 episodes leave the validation split empty, so train exits before writing any file of the checkpoint."""
    r = run_cli("gen", "--out", "d", "--episodes", "5", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli("train", "--task", "frame", "--data", "d", "--out", "m.ckpt", cwd=tmp_path)
    assert r.returncode == 2
    assert "validation split is empty" in r.stderr
    assert not list(tmp_path.glob("m.ckpt*"))


def test_eval_dump_reproduces_reported_metric(workspace):
    r = run_cli("eval", "--ckpt", "frame.ckpt", "--data", "data", "--dump", "frame_eval.jsonl", cwd=workspace)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("ACC=")
    reported = float(r.stdout.strip().split("=")[1])
    rows = [json.loads(l) for l in (workspace / "frame_eval.jsonl").read_text().splitlines()]
    manifest = json.loads((workspace / "data" / "manifest.json").read_text())
    assert len(rows) == manifest["splits"]["test"]
    acc = float(np.mean([row["pred"] == row["gold"] for row in rows]))
    assert abs(acc - reported) < 5e-5
    assert (workspace / "frame_eval.jsonl.config.json").exists()


def test_eval_multiple_choice_metric_name(workspace):
    r = run_cli("eval", "--ckpt", "trans.ckpt", "--data", "data", "--dump", "t.jsonl", cwd=workspace)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("ACC=")
    rows = [json.loads(l) for l in (workspace / "t.jsonl").read_text().splitlines()]
    assert all(0 <= row["pred"] < 5 for row in rows)


def test_eval_missing_checkpoint_is_data_error(workspace):
    r = run_cli("eval", "--ckpt", "nope.ckpt", "--data", "data", "--dump", "x.jsonl", cwd=workspace)
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_eval_corrupt_checkpoint_blob_is_data_error(workspace):
    torn = workspace / "torn"
    torn.mkdir()
    (torn / "frame.ckpt").write_bytes((workspace / "frame.ckpt").read_bytes())
    blob = json.loads((torn / "frame.ckpt").read_text())["blob"]
    raw = bytearray((workspace / blob).read_bytes())
    raw[len(raw) // 3] ^= 0x10
    (torn / blob).write_bytes(bytes(raw))
    r = run_cli("eval", "--ckpt", "torn/frame.ckpt", "--data", "data", "--dump", "torn.jsonl", cwd=workspace)
    assert r.returncode == 2
    assert "sha256" in r.stderr
    assert not (workspace / "torn.jsonl").exists()


def test_eval_non_object_qa_line_is_data_error(workspace, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    with open(data / "qa" / "frame_test.jsonl", "a", encoding="utf-8") as fh:
        fh.write("null\n")
    dump = tmp_path / "x.jsonl"
    assert cli.main(["eval", "--ckpt", str(workspace / "frame.ckpt"), "--data", str(data), "--dump", str(dump)]) == 2
    assert not dump.exists()


@pytest.mark.parametrize("command, split", [("train", "val"), ("eval", "test")])
def test_feature_file_of_the_wrong_shape_is_data_error(workspace, tmp_path, command, split):
    """One ``_a.cmf`` of (20, 64) among (34, 64) files: exit 2 with the file named, not a traceback."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    video = json.loads((data / "qa" / f"frame_{split}.jsonl").read_text().splitlines()[0])["video"]
    write_feature_file(data / "features" / f"{video}_a.cmf", FeatureSequence(np.zeros((20, 64), dtype=np.float32)))
    if command == "train":
        args = ["train", "--task", "frame", "--data", "data", "--out", "f.ckpt", "--epochs", "1", "--batch", "8"]
    else:
        args = ["eval", "--ckpt", str(workspace / "frame.ckpt"), "--data", "data", "--dump", "f.jsonl"]
    r = run_cli(*args, cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert f"{video}_a.cmf: features of shape (20, 64)" in r.stderr
    assert "Traceback" not in r.stderr


# -- inspect -----------------------------------------------------------------------


def _some_item_id(workspace, task):
    line = (workspace / "data" / "qa" / f"{task}_test.jsonl").read_text().splitlines()[0]
    return json.loads(line)["id"]


def test_inspect_exports_normalized_maps(workspace):
    qa_id = _some_item_id(workspace, "frame")
    r = run_cli("inspect", "--ckpt", "frame.ckpt", "--data", "data",
                "--id", qa_id, "--out", "maps.json", cwd=workspace)
    assert r.returncode == 0, r.stderr
    report = json.loads((workspace / "maps.json").read_text())
    assert report["id"] == qa_id
    assert len(report["cycles"]) == 2  # default cycle count
    for cycle in report["cycles"]:
        for modality in ("appearance", "motion"):
            levels = np.asarray(cycle[modality]["levels"])  # (N, L)
            steps = np.asarray(cycle[modality]["steps"])  # (L,)
            assert np.allclose(levels.sum(axis=0), 1.0, atol=1e-5)
            assert np.allclose(steps.sum(), 1.0, atol=1e-5)


def test_inspect_single_level_weights_are_all_one(workspace):
    qa_id = _some_item_id(workspace, "frame")
    r = run_cli("inspect", "--ckpt", "frame1.ckpt", "--data", "data",
                "--id", qa_id, "--out", "maps1.json", cwd=workspace)
    assert r.returncode == 0, r.stderr
    report = json.loads((workspace / "maps1.json").read_text())
    for cycle in report["cycles"]:
        levels = np.asarray(cycle["appearance"]["levels"])
        assert levels.shape[0] == 1
        assert np.allclose(levels, 1.0, atol=1e-5)


def test_inspect_multiple_choice_item(workspace):
    qa_id = _some_item_id(workspace, "trans")
    r = run_cli("inspect", "--ckpt", "trans.ckpt", "--data", "data",
                "--id", qa_id, "--out", "maps_mc.json", cwd=workspace)
    assert r.returncode == 0, r.stderr
    report = json.loads((workspace / "maps_mc.json").read_text())
    assert 0 <= report["prediction"] < 5


def test_inspect_unknown_id_is_data_error(workspace):
    r = run_cli("inspect", "--ckpt", "frame.ckpt", "--data", "data",
                "--id", "e999999_frame", "--out", "x.json", cwd=workspace)
    assert r.returncode == 2
    assert "not found" in r.stderr


# -- gradcheck ----------------------------------------------------------------------


def test_gradcheck_passes_and_repeats(tmp_path):
    r1 = run_cli("gradcheck", "--seed", "0", cwd=tmp_path)
    assert r1.returncode == 0, r1.stderr
    assert "max relative error" in r1.stdout
    r2 = run_cli("gradcheck", "--seed", "0", cwd=tmp_path)
    assert r2.stdout == r1.stdout  # same seed, same reported error
    assert (tmp_path / "gradcheck_0.config.json").exists()


def test_gradcheck_detects_corrupted_gradients(tmp_path, monkeypatch):
    """Doubling the gradient that flows into every GRU scan must fail the check (exit 3)."""
    scan = T.gru_scan

    def scan_with_doubled_backward(*args, **kwargs):
        out = scan(*args, **kwargs)
        backward = out._node._backward
        if backward is not None:
            out._node._backward = lambda g: backward(2.0 * g)
        return out

    monkeypatch.setattr(T, "gru_scan", scan_with_doubled_backward)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gradcheck", "--seed", "0"]) == 3


@pytest.mark.parametrize("args", [
    ("gen", "--out", "d", "--episodes", "-5"),
    ("train", "--task", "frame", "--data", "d", "--out", "o.ckpt", "--seed", "-1"),
    ("gradcheck", "--seed", "-1"),
], ids=["gen-episodes", "train-seed", "gradcheck-seed"])
def test_out_of_range_values_are_data_errors_that_write_nothing(tmp_path, args):
    r = run_cli(*args, cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1, r.stderr
    assert not any(tmp_path.iterdir())


# -- usage errors --------------------------------------------------------------------


def test_usage_errors_exit_one(tmp_path):
    assert run_cli("train", "--task", "sorting", "--data", "d", "--out", "o", cwd=tmp_path).returncode == 1
    assert run_cli("gen", "--out", "d", "--episodes", "2", "--frobnicate", cwd=tmp_path).returncode == 1
    assert run_cli(cwd=tmp_path).returncode == 1
