"""Model assembly: shape propagation, fusion modes, TCN, parameter counts."""

import numpy as np
import pytest

from csanet.augment import sr_augment
from csanet import ops
from csanet.autodiff import Tensor, _reverse_topo, no_grad, precision
from csanet.config import AttentionConfig, ModelConfig, SrConfig, TcnConfig
from csanet.data import synth_generate, trials_to_arrays
from csanet.errors import ConfigurationError
from csanet.model import CsanetModel, count_parameters
from csanet.verification import mini_model_config


def make_model(cfg, seed=0):
    return CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(seed)))


def bcic_config(**overrides):
    return ModelConfig(channels=22, time_steps=1000, n_classes=4, **overrides)


class TestShapeFormulas:
    def test_branch_width_is_filters_times_multiplier(self):
        cfg = bcic_config()
        assert cfg.branch_width(0) == 32

    def test_t0_staged_floor(self):
        assert bcic_config().t0 == 17  # 1000 -> 125 -> 17

    def test_branch_output_shape(self):
        cfg = bcic_config()
        model = make_model(cfg)
        x = Tensor(np.zeros((3, 1, 22, 1000), dtype=np.float32))
        with no_grad():
            z = model.branch1(x, training=False)
        assert z.shape == (3, 32, 17)

    def test_seed_style_config_t0_and_logits(self):
        cfg = ModelConfig(channels=6, time_steps=200, n_classes=3, pools=(4, 4))
        assert cfg.t0 == 12
        model = make_model(cfg)
        with no_grad():
            logits = model(np.zeros((2, 1, 6, 200), dtype=np.float32), training=False)
        assert logits.shape == (2, 3)

    def test_full_batch_through_augmentation(self):
        cfg = bcic_config()
        model = make_model(cfg)
        batch = synth_generate(16, 22, 1000, 4, snr=3.0, seed=5)
        doubled = sr_augment(batch, SrConfig(segments=8), np.random.default_rng(0))
        x, _ = trials_to_arrays(doubled)
        assert x.shape == (128, 1, 22, 1000)
        with no_grad():
            logits = model(x, training=False)
        assert logits.shape == (128, 4)

    def test_concat_width_matches_readout(self):
        cfg = mini_model_config()
        flat = mini_model_config()
        flat.readout = "flatten"
        assert make_model(cfg).classifier.weight.shape == (2, 4 * 4)
        assert make_model(flat).classifier.weight.shape == (2, 4 * 4 * flat.t0)


class TestFusion:
    def test_zeroed_projections_with_residual_keep_features(self):
        cfg = mini_model_config()
        model = make_model(cfg)
        for branch in model.branches:
            for w in (branch.attention.w_q, branch.attention.w_k, branch.attention.w_v):
                w.data = np.zeros_like(w.data)
        rng = np.random.default_rng(1)
        zs = [Tensor(rng.standard_normal((2, 4, cfg.t0)).astype(np.float32)) for _ in range(4)]
        with no_grad():
            ms = model.fuse_branches(zs, training=False)
        for z, m in zip(zs, ms):
            np.testing.assert_array_equal(m.data, z.data)

    def test_residual_disabled_drops_original_features(self):
        cfg = mini_model_config()
        cfg.residual_enabled = False
        model = make_model(cfg)
        for branch in model.branches:
            for w in (branch.attention.w_q, branch.attention.w_k, branch.attention.w_v):
                w.data = np.zeros_like(w.data)
        rng = np.random.default_rng(1)
        zs = [Tensor(rng.standard_normal((2, 4, cfg.t0)).astype(np.float32)) for _ in range(4)]
        with no_grad():
            ms = model.fuse_branches(zs, training=False)
        for m in ms:
            np.testing.assert_array_equal(m.data, np.zeros_like(m.data))

    def test_identical_inputs_tied_params_give_identical_auxiliaries(self):
        cfg = mini_model_config()
        cfg.attention.topk_enabled = False
        model = make_model(cfg)
        for branch in model.branches[2:]:
            for src, dst in zip(
                model.branch2.attention.parameters(), branch.attention.parameters()
            ):
                dst.data = src.data.copy()
        z = Tensor(np.random.default_rng(2).standard_normal((2, 4, cfg.t0)).astype(np.float32))
        with no_grad():
            ms = model.fuse_branches([z, z, z, z], training=False)
        np.testing.assert_allclose(ms[1].data, ms[2].data, atol=1e-7)
        np.testing.assert_allclose(ms[1].data, ms[3].data, atol=1e-7)

    @pytest.mark.parametrize("mode", ["main_auxiliary", "hierarchical"])
    def test_both_modes_produce_four_equal_shapes(self, mode):
        cfg = mini_model_config()
        cfg.fusion_mode = mode
        model = make_model(cfg)
        rng = np.random.default_rng(3)
        zs = [Tensor(rng.standard_normal((2, 4, cfg.t0)).astype(np.float32)) for _ in range(4)]
        with no_grad():
            ms = model.fuse_branches(zs, training=False)
        assert len(ms) == 4
        assert all(m.shape == (2, 4, cfg.t0) for m in ms)


class TestTcn:
    def test_zero_conv_weights_pass_skip_through(self):
        cfg = mini_model_config()
        model = make_model(cfg)
        for block in model.branch1.tcn.blocks:
            block.conv1.weight.data = np.zeros_like(block.conv1.weight.data)
            block.conv2.weight.data = np.zeros_like(block.conv2.weight.data)
        m = Tensor(np.random.default_rng(4).standard_normal((2, 4, cfg.t0)).astype(np.float32))
        with no_grad():
            out = model.tcn_forward(m, model.branch1, training=False)
        np.testing.assert_allclose(out.data, m.data[:, :, -1], atol=1e-7)

    def test_causality_no_future_leakage(self):
        cfg = mini_model_config()
        model = make_model(cfg)
        rng = np.random.default_rng(5)
        base = rng.standard_normal((1, 4, cfg.t0)).astype(np.float32)
        with no_grad():
            ref = model.branch1.tcn(Tensor(base), training=False).data
        for t in range(cfg.t0):
            bumped = base.copy()
            bumped[:, :, t] += 5.0
            with no_grad():
                out = model.branch1.tcn(Tensor(bumped), training=False).data
            np.testing.assert_array_equal(out[:, :, :t], ref[:, :, :t])

    def test_last_step_readout_shape(self):
        cfg = bcic_config()
        model = make_model(cfg)
        m = Tensor(np.zeros((3, 32, 17), dtype=np.float32))
        with no_grad():
            out = model.tcn_forward(m, model.branch1, training=False)
        assert out.shape == (3, 32)


class TestDeterminism:
    def test_two_eval_forwards_bitwise_identical(self):
        cfg = mini_model_config()
        model = make_model(cfg)
        x = np.random.default_rng(6).standard_normal((2, 1, 3, 64)).astype(np.float32)
        with no_grad():
            a = model(x, training=False).data
            b = model(x, training=False).data
        assert a.tobytes() == b.tobytes()

    def test_same_seed_same_init(self):
        cfg = mini_model_config()
        m1, m2 = make_model(cfg, seed=9), make_model(cfg, seed=9)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            assert p1.data.tobytes() == p2.data.tobytes()


class TestTape:
    def test_mini_training_loss_tape_node_count_is_pinned(self):
        # Per-op Python overhead scales with the tape (B=1 decoding, the
        # gradient check). It was 343 while spa_conv ran through conv2d's
        # reshapes and multiscale_pool through three avg_pool2d calls. The
        # (B, C, T) layout drops three reshape nodes per branch (12), and the
        # band-matrix pool five nodes per call, 4 calls per forward (20): a
        # matmul and its constant matrix replace two reshapes, three pools
        # and two adds. It was 311 until each branch's stem and first tail
        # became one op: the stem's output node goes, 1 per branch (4). It
        # was 307 until each TCN conv's tail (batch_norm -> elu; mini's TCN
        # dropout is 0, so no dropout node) became one bn_elu_pool node: 1
        # per conv, 2 convs per block, 2 blocks per branch (16). It was 291
        # until spa_conv's conv1d_dilated padded its own input: the pad node
        # before it goes, 1 per branch (4).
        cfg = mini_model_config()
        with precision("float64"):
            model = make_model(cfg, seed=14)
            x = Tensor(np.random.default_rng(15).standard_normal((2, 1, cfg.channels, cfg.time_steps)))
            loss = ops.cross_entropy(model(x, training=True), np.array([0, 1]))
        assert len(_reverse_topo(loss)) == 287


# Per-group parameter counts, one row per branch in the order of
# _COUNT_GROUPS, then the classifier and the total. count_parameters reads
# the built model, so the check needs numbers fixed apart from it.
_COUNT_GROUPS = ("temporal_conv", "bn_temporal", "depthwise_conv", "bn_depthwise", "spa_conv", "bn_spa", "attention", "tcn")
_PINNED_COUNTS = {
    "bcic": (
        [
            (1024, 32, 704, 64, 32768, 64, 3074, 16640),
            (512, 32, 704, 64, 32768, 64, 3074, 16640),
            (256, 32, 704, 64, 32768, 64, 3074, 16640),
            (128, 32, 704, 64, 32768, 64, 3074, 16640),
        ],
        516,
        215820,
    ),
    "mini": (
        [
            (16, 4, 12, 8, 64, 8, 50, 160),
            (12, 4, 12, 8, 64, 8, 50, 160),
            (8, 4, 12, 8, 64, 8, 50, 160),
            (6, 4, 12, 8, 64, 8, 50, 160),
        ],
        34,
        1300,
    ),
}


class TestParameterCounting:
    def test_counts_match_built_model(self):
        for key, cfg in (("bcic", bcic_config()), ("mini", mini_model_config())):
            rows, classifier, total = _PINNED_COUNTS[key]
            expected = [
                (f"branch{i + 1}.{group}", n) for i, row in enumerate(rows) for group, n in zip(_COUNT_GROUPS, row)
            ]
            expected += [("classifier", classifier), ("total", total)]
            assert list(count_parameters(cfg).items()) == expected, key

    def test_classifier_count_closed_form(self):
        cfg = bcic_config()
        assert count_parameters(cfg)["classifier"] == 128 * 4 + 4

    def test_doubling_depth_multiplier_doubles_depthwise(self):
        base = bcic_config()
        doubled = bcic_config(
            depth_multiplier=4,
            spa_filters=64,
            attention=AttentionConfig(embed_dim=64),
            tcn=TcnConfig(filters=64),
        )
        c1 = count_parameters(base)
        c2 = count_parameters(doubled)
        for i in range(1, 5):
            assert c2[f"branch{i}.depthwise_conv"] == 2 * c1[f"branch{i}.depthwise_conv"]

    def test_disabling_tcn_removes_exactly_those_groups(self):
        on = count_parameters(bcic_config())
        off = count_parameters(bcic_config(tcn_enabled=False))
        tcn_keys = {k for k in on if ".tcn" in k}
        assert tcn_keys == {f"branch{i}.tcn" for i in range(1, 5)}
        assert set(off) == set(on) - tcn_keys
        assert on["total"] - off["total"] == sum(on[k] for k in tcn_keys)
        model = make_model(bcic_config(tcn_enabled=False))
        assert not any(".tcn." in name for name, _ in model.named_parameters())

    def test_parameter_names_are_unique(self):
        model = make_model(mini_model_config())
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        for name, p in model.named_parameters():
            assert p.name == name


class TestValidation:
    def test_residual_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(channels=4, time_steps=64, temporal_filters=(8, 8, 8, 8)).validate()

    def test_time_too_short_for_pools_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(channels=4, time_steps=40, pools=(8, 7)).validate()
