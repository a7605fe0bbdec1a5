"""Whole-file artifacts are written atomically: when the final rename
fails, an existing target keeps its bytes, no partial target or temporary
file is left, and the CLI exits 2 with one error: line."""

import os

import numpy as np
import pytest

from csanet import atomic
from csanet.checkpoint import save_checkpoint
from csanet.cli import main
from csanet.config import RunConfig, write_config
from csanet.data import synth_generate, write_eegd
from csanet.model import CsanetModel
from csanet.verification import mini_model_config

from test_cli import run_cfg_path  # noqa: F401  (the fixture)


def failing_replace(src, dst):
    raise OSError(f"cannot rename {src} to {dst}")


WRITERS = {
    "write_config": lambda path: write_config(RunConfig(), path),
    "write_eegd": lambda path: write_eegd(synth_generate(2, 3, 16, 2, snr=3.0, seed=0), path),
    "save_checkpoint": lambda path: save_checkpoint(CsanetModel(mini_model_config(), np.random.default_rng(0)), path),
}


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("existing", [b"old bytes", None])
def test_failed_replace_leaves_the_target_as_it_was(writer, existing, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    if existing is not None:
        path.write_bytes(existing)
    monkeypatch.setattr(atomic.os, "replace", failing_replace)
    with pytest.raises(OSError, match="cannot rename"):
        WRITERS[writer](path)
    assert os.listdir(tmp_path) == ([] if existing is None else ["artifact"])
    if existing is not None:
        assert path.read_bytes() == existing
    monkeypatch.undo()
    WRITERS[writer](path)
    assert os.listdir(tmp_path) == ["artifact"] and path.read_bytes() != existing


def test_cli_artifacts_survive_a_failed_replace(run_cfg_path, tmp_path, monkeypatch, capsys):  # noqa: F811
    config = run_cfg_path
    trained = tmp_path / "trained"
    assert main(["train", "--config", config, "--out", str(trained)]) == 0
    checkpoint = str(trained / "model.csan")
    runs = {
        "synth": (["synth"], "synth.eegd"),
        "eval": (["eval", "--checkpoint", checkpoint], "report.csv"),
        "psd": (["psd"], "psd.csv"),
        "train": (["train"], "model.csan"),
    }
    monkeypatch.setattr(atomic.os, "replace", failing_replace)
    capsys.readouterr()
    for name, (argv, artifact) in runs.items():
        out = tmp_path / name
        out.mkdir()
        (out / artifact).write_bytes(b"old bytes")
        assert main(argv + ["--config", config, "--out", str(out)]) == 2, name
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "cannot rename" in err[0], (name, err)
        assert (out / artifact).read_bytes() == b"old bytes", name
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")], name
