"""Flat key=value config serialization: lossless, byte-stable, validated."""

import pytest

from csanet.config import (
    ModelConfig,
    RunConfig,
    SplitSpec,
    SynthSpec,
    TrainConfig,
    config_from_text,
    config_to_text,
    read_config,
    write_config,
)
from csanet.errors import ConfigurationError


def sample_run():
    return RunConfig(
        synth=SynthSpec(n_per_class=4, channels=6, time_steps=64, n_classes=3, snr=2.5),
        model=ModelConfig(channels=6, time_steps=64, n_classes=3, pools=(4, 4), conv_dropout=0.25),
        split=SplitSpec(strategy="kfold", n_folds=5, fold_index=2, seed=9),
        train=TrainConfig(epochs=10, batch_size=8, lr=0.0009),
        seed=123,
        out_dir="runs/sample",
    )


def test_roundtrip_preserves_every_field():
    run = sample_run()
    assert config_from_text(config_to_text(run)) == run


def test_write_read_write_is_byte_identical(tmp_path):
    run = sample_run()
    p1, p2 = tmp_path / "a.cfg", tmp_path / "b.cfg"
    write_config(run, p1)
    write_config(read_config(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_float_values_roundtrip_exactly():
    run = sample_run()
    run.train.lr = 0.1 + 0.2  # a value whose repr carries full precision
    parsed = config_from_text(config_to_text(run))
    assert parsed.train.lr == run.train.lr


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nseed=7\n# another\nout_dir=x\n"
    run = config_from_text(text)
    assert run.seed == 7 and run.out_dir == "x"


def test_unknown_key_names_the_offender():
    with pytest.raises(ConfigurationError, match="no_such_key"):
        config_from_text("no_such_key=1\n")
    with pytest.raises(ConfigurationError, match="model.bogus"):
        config_from_text("model.bogus=1\n")


def test_bad_value_names_the_key():
    with pytest.raises(ConfigurationError, match="seed"):
        config_from_text("seed=notanint\n")


def test_nested_keys_are_dotted():
    run = config_from_text("model.attention.heads=4\nmodel.spa_filters=16\n")
    assert run.model.attention.heads == 4
    assert run.model.spa_filters == 16


def test_tuple_fields_parse_from_commas():
    run = config_from_text("model.temporal_kernels=32,16,8,4\nsplit.test_sessions=2,3\n")
    assert run.model.temporal_kernels == (32, 16, 8, 4)
    assert run.split.test_sessions == (2, 3)


def test_empty_tuple_roundtrip():
    run = sample_run()
    run.split.test_sessions = ()
    assert config_from_text(config_to_text(run)).split.test_sessions == ()


def test_validation_requires_exactly_one_source():
    run = RunConfig()  # neither data_path nor synth trials
    with pytest.raises(ConfigurationError):
        run.validate()
    run.synth.n_per_class = 2
    run.data_path = "also.eegd"
    with pytest.raises(ConfigurationError):
        run.validate()


def test_retired_keys_are_accepted_when_they_agree_and_never_written():
    # Files written before the width was derived carry four more keys; each
    # equals the value the config derives from spa_filters, D and the pools.
    # Older files also carry model.sr_enabled and attention.topk_mode.
    old = (
        "model.temporal_filters=8,8,8,8\nmodel.depth_multiplier=4\nmodel.attention.embed_dim=32\n"
        "model.attention.pool_kernels=3,5\nmodel.attention.pool_pads=1,2\nmodel.tcn.filters=32\n"
        "model.sr_enabled=true\nmodel.attention.topk_mode=ratio\n"
    )
    run = config_from_text(old)
    assert run == config_from_text("model.depth_multiplier=4\nmodel.attention.pool_kernels=3,5\n")
    assert run.model.attention.pool_pads == (1, 2)
    text = config_to_text(run)
    for key in ("temporal_filters", "embed_dim", "pool_pads", "tcn.filters", "sr_enabled", "topk_mode"):
        assert key not in text and key not in config_to_text(run.model)
    # sr.enabled alone decides S&R. In a run config the retired key may not
    # switch S&R off behind it; in a checkpoint, where it never described
    # the model, it loads at any value.
    for lines, sr in (("", True), ("sr.enabled=false\n", False)):
        assert config_from_text(lines + "model.sr_enabled=true\n").sr.enabled is sr
    assert config_from_text("model.sr_enabled=false\nsr.enabled=false\n").sr.enabled is False
    with pytest.raises(ConfigurationError, match="'model.sr_enabled'=false"):
        config_from_text("model.sr_enabled=false\n")
    for value in ("true", "false"):
        assert config_from_text(f"sr_enabled={value}\n", cls=ModelConfig) == ModelConfig()
    # Ratio is the one top-k rule, in either file.
    assert config_from_text("attention.topk_mode=ratio\n", cls=ModelConfig) == ModelConfig()
    for text, cls in (("model.attention.topk_mode=count\n", RunConfig), ("attention.topk_mode=count\n", ModelConfig)):
        with pytest.raises(ConfigurationError, match="topk_mode'=count"):
            config_from_text(text, cls=cls)
    assert config_from_text("tcn_enabled=false\ntcn.filters=7\n", cls=ModelConfig).tcn_enabled is False
    with pytest.raises(ConfigurationError, match="tcn.filters"):
        config_from_text("tcn.filters=7\n", cls=ModelConfig)
    with pytest.raises(ConfigurationError, match="must be positive"):  # no ZeroDivisionError on the way
        config_from_text("depth_multiplier=0\ntemporal_filters=16,16,16,16\n", cls=ModelConfig).validate()


def test_width_rules():
    ModelConfig(spa_filters=16).validate()
    for cfg in (ModelConfig(spa_filters=30, depth_multiplier=4), ModelConfig(spa_filters=36)):
        with pytest.raises(ConfigurationError, match="must be divisible"):
            cfg.validate()
