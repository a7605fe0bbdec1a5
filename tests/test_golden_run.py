"""A seeded run writes the same bytes as the tree that wrote the fixture:
train log, checkpoint and eval report, in float64 and float32."""

from pathlib import Path

import pytest

from csanet.autodiff import precision
from csanet.checkpoint import load_checkpoint
from csanet.config import RunConfig, SplitSpec, SynthSpec, TrainConfig
from csanet.metrics import report_to_csv
from csanet.train import eval_run, train_run
from csanet.verification import mini_model_config

FIXTURE = Path(__file__).parent / "data" / "golden"
FILES = ("train_log.csv", "model.csan", "report.csv")


def golden_run(out_dir):
    """Synthetic 3 subjects x 2 sessions, k-fold, z-scored, eval every
    epoch, S&R on, the mini model, 2 epochs; the last batch is short."""
    cfg = mini_model_config()
    return RunConfig(
        synth=SynthSpec(
            n_per_class=9,
            channels=cfg.channels,
            time_steps=cfg.time_steps,
            n_classes=cfg.n_classes,
            subjects=3,
            sessions=2,
        ),
        model=cfg,
        split=SplitSpec(strategy="kfold", n_folds=3, fold_index=1, seed=5),
        train=TrainConfig(epochs=2, batch_size=5, eval_every=1, normalize=True),
        seed=606,
        out_dir=str(out_dir),
    )


def write_golden(out_dir, dtype):
    """train_run, then eval_run on the reloaded checkpoint, as `csanet eval`
    does; leaves the three FILES in out_dir."""
    with precision(dtype):
        run = golden_run(out_dir)
        result = train_run(run)
        run.model, model = load_checkpoint(result.checkpoint_path)
        report = eval_run(run, model)
    with open(Path(out_dir) / "report.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_to_csv(report))


def write_golden_fixture(directory=FIXTURE):
    """The committed files under tests/data/golden.

    First written on commit 65d529a, before the trial containers became
    arrays. Re-derived on commit 90328ac, whose one-matmul multiscale_pool
    is exact in value but not in bits, and again when each branch's
    training-mode stem and first tail became one op (ops.stem_bn_elu_pool,
    exact in value, with an exact 0 gradient for the dead bn_temporal.beta),
    and again when every training-mode batch norm moved onto one kernel
    pair with float64 batch sums and the TCN onto ops.bn_elu_pool at pool 1
    with its eval-mode batch norms folded into the convs (exact in value),
    each time after tests/test_numerics_contract.py passed against its
    unchanged fixture; and again when the config came to derive the
    feature width, for the config text alone: model.csan lost the four
    retired keys (temporal_filters, attention.embed_dim,
    attention.pool_pads, tcn.filters), while train_log.csv, report.csv and
    the checkpoint's blobs stayed byte-identical; and again, for the config
    text alone, when S&R came to be read from sr.enabled alone and top-k
    kept its one ratio rule: model.csan lost sr_enabled=true and
    attention.topk_mode=ratio, while train_log.csv, report.csv and the
    checkpoint's blobs stayed byte-identical. Always from the repository
    root with src/ and tests/ on sys.path; the re-derivations ran:

        PYTHONPATH=src:tests python -c "from test_golden_run import write_golden_fixture; write_golden_fixture()"
    """
    for dtype in ("float64", "float32"):
        write_golden(Path(directory) / dtype, dtype)
        (Path(directory) / dtype / "run.cfg").unlink()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_run_writes_the_fixture_bytes(dtype, tmp_path):
    write_golden(tmp_path, dtype)
    for name in FILES:
        want = (FIXTURE / dtype / name).read_bytes()
        assert (tmp_path / name).read_bytes() == want, f"{dtype}/{name} differs from the fixture"
