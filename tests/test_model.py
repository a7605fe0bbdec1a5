"""Model assembly: shape propagation, fusion modes, TCN, parameter counts,
and the training branch stage on threads."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from csanet.augment import sr_augment
from csanet import ops
from csanet.autodiff import Tensor, _reverse_topo, no_grad, precision
from csanet.config import ModelConfig, SrConfig, config_from_text
from csanet.data import synth_generate, trials_to_arrays
from csanet.errors import ConfigurationError, StateError
from csanet import model as model_module
from csanet.model import Branch, CsanetModel, count_parameters, fork_join
from csanet.optim import AdamState, adam_step
from csanet.verification import mini_model_config


def make_model(cfg, seed=0):
    return CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(seed)))


def bcic_config(**overrides):
    return ModelConfig(channels=22, time_steps=1000, n_classes=4, **overrides)


class TestShapeFormulas:
    def test_branch_width_is_filters_times_multiplier(self):
        # spa_filters is the branch width; each branch has spa_filters / D temporal filters.
        model = make_model(bcic_config())
        for branch in model.branches:
            assert branch.temporal_conv.weight.shape[0] == 16
            assert branch.depthwise_conv.weight.shape[0] == 32 == 16 * 2

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
            ms = model.fuse_branches(zs)
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
            ms = model.fuse_branches(zs)
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
            ms = model.fuse_branches([z, z, z, z])
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
            ms = model.fuse_branches(zs)
        assert len(ms) == 4
        assert all(m.shape == (2, 4, cfg.t0) for m in ms)


class TestTcn:
    """CsanetModel.tcn_forward: the four branches' TCNs as one pass over
    their fused maps side by side, and the readout."""

    def test_zero_conv_weights_pass_skip_through(self):
        cfg = mini_model_config()
        model = make_model(cfg)
        for block in model.branch1.tcn.blocks:
            block.conv1.weight.data = np.zeros_like(block.conv1.weight.data)
            block.conv2.weight.data = np.zeros_like(block.conv2.weight.data)
        rng = np.random.default_rng(4)
        ms = [Tensor(rng.standard_normal((2, 4, cfg.t0)).astype(np.float32)) for _ in range(4)]
        out = model.tcn_forward(ms, training=False)  # eval runs on the raw maps
        np.testing.assert_allclose(out[:, :4], ms[0].data[:, :, -1], atol=1e-7)

    def test_causality_no_future_leakage(self):
        # A bump in one branch's fused map at time t leaves that branch's
        # outputs before t and every other branch's outputs byte-equal.
        cfg = mini_model_config()
        cfg.readout = "flatten"
        model = make_model(cfg)
        rng = np.random.default_rng(5)
        base = [rng.standard_normal((1, 4, cfg.t0)).astype(np.float32) for _ in range(4)]

        def run(ms):
            return model.tcn_forward([Tensor(m) for m in ms], training=False).reshape(1, 4, 4, cfg.t0)

        ref = run(base)
        for branch in range(4):
            others = [i for i in range(4) if i != branch]
            for t in range(cfg.t0):
                bumped = [m.copy() for m in base]
                bumped[branch][:, :, t] += 5.0
                out = run(bumped)
                assert out[:, branch, :, :t].tobytes() == ref[:, branch, :, :t].tobytes(), (branch, t)
                assert out[:, others].tobytes() == ref[:, others].tobytes(), (branch, t)
                assert not np.array_equal(out[:, branch, :, t:], ref[:, branch, :, t:]), (branch, t)

    def test_last_step_readout_shape(self):
        cfg = bcic_config()
        model = make_model(cfg)
        ms = [Tensor(np.zeros((3, 32, 17), dtype=np.float32))] * 4
        with no_grad():
            out = model.tcn_forward(ms, training=False)
        assert out.shape == (3, 4 * 32)


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


class TestDropoutMasks:
    """CsanetModel.dropout_masks states the dropout stream's one draw order."""

    def test_default_config_masks_are_the_streams_draws_in_order(self):
        cfg = ModelConfig()  # float32, dropout 0.5 (conv) and 0.3 (TCN)
        model = make_model(cfg)
        B, U = 3, cfg.spa_filters
        stream = np.random.default_rng(7)
        masks = model.dropout_masks(B, stream)
        # Per branch, the stem's mask and then the spa_conv tail's; then, per
        # branch, each TCN block's two. The tail and TCN maps are (B, U, t0).
        shapes = ((B, U, cfg.time_steps // cfg.pools[0]), (B, U, cfg.t0))
        order = [(keep[i], shape, cfg.conv_dropout) for keep, _ in masks for i, shape in enumerate(shapes)]
        order += [(mask, shapes[1], cfg.tcn.dropout) for _, pairs in masks for pair in pairs for mask in pair]
        assert len(order) == 4 * (2 + 2 * len(cfg.tcn.dilations))
        rng = np.random.default_rng(7)
        for mask, shape, p in order:
            keep = rng.random(shape) >= p
            assert mask.mask.dtype == bool and np.array_equal(mask.mask, keep)
            assert mask.scale.dtype == np.float32 and mask.scale == np.float32(1.0) / np.float32(1.0 - p)
        assert stream.bit_generator.state == rng.bit_generator.state  # no other draw

    def test_rate_zero_draws_nothing_and_needs_no_rng(self):
        cfg = mini_model_config()  # conv and TCN dropout 0
        model = make_model(cfg)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        for stream in (rng, None):
            masks = model.dropout_masks(2, stream)
            assert [keep for keep, _ in masks] == [(None, None)] * 4
            assert [pairs for _, pairs in masks] == [[(None, None)] * len(cfg.tcn.dilations)] * 4
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("rate", ["conv_dropout", "tcn.dropout"])
    def test_training_without_rng_fails_before_a_buffer_moves(self, rate):
        cfg = mini_model_config()
        if rate == "conv_dropout":
            cfg.conv_dropout = 0.5
        else:
            cfg.tcn.dropout = 0.5
        model = make_model(cfg)
        before = {name: buf.copy() for name, buf in model.named_buffers()}
        x = np.random.default_rng(8).standard_normal((2, 1, cfg.channels, cfg.time_steps)).astype(np.float32)
        with pytest.raises(ConfigurationError, match="explicit rng"):
            model(x, training=True)
        for name, buf in model.named_buffers():
            assert np.array_equal(buf, before[name]), name


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
        # before it goes, 1 per branch (4). It was 287 until each auxiliary
        # branch's two top-k paths became one topk_mix node: its masked_fill,
        # softmax and matmul per path and the alpha/beta mul, mul and add
        # go, 8 per auxiliary branch (24). It was 263 until the four
        # branches' TCNs ran as one pass: per TCN depth one grouped conv per
        # stage, one tail per stage and one residual add replace four of each
        # (4 x 5 -> 5 nodes per depth, 2 depths: 30 fewer), and one concat of
        # the fused maps with one readout's narrow and reshape replaces four
        # readouts and their concat (9 -> 3: 6 fewer). It was 227 until each
        # attention became one msca_forward node: 20 op nodes for branch 1's
        # dense self-attention and 19 per auxiliary branch become 1 each (73
        # fewer), and with them the constant leaves of each call's band
        # matrix and score scale (8).
        cfg = mini_model_config()
        with precision("float64"):
            model = make_model(cfg, seed=14)
            x = Tensor(np.random.default_rng(15).standard_normal((2, 1, cfg.channels, cfg.time_steps)))
            loss = ops.cross_entropy(model(x, training=True), np.array([0, 1]))
        assert len(_reverse_topo(loss)) == 146

    def test_default_training_tape_op_node_count_is_pinned(self, monkeypatch):
        # 33 op nodes outside fusion, then per branch one msca_forward node
        # and one residual add. Fusion made 81 of the 114 while it was a
        # composition of Tensor ops. Branch 1's dense self-attention never
        # reads its alpha and beta, so they stay off the tape, with no grad.
        monkeypatch.setattr(model_module, "WORKERS", 1)
        model = make_model(ModelConfig(), seed=0)
        x = Tensor(np.random.default_rng(1).standard_normal((4, 1, 22, 1000)).astype(np.float32))
        loss = ops.cross_entropy(model(x, training=True, rng=np.random.default_rng(2)), np.array([0, 1, 2, 3]))
        assert sum(node._backward is not None for node in _reverse_topo(loss)) == 41
        loss.backward()
        assert model.branch1.attention.alpha.grad is None and model.branch1.attention.beta.grad is None
        assert all(b.attention.alpha.grad is not None and b.attention.beta.grad is not None for b in model.branches[1:])


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


def dropout_mini():
    """The mini config with both dropout rates on, so the masks take part."""
    cfg = mini_model_config()
    return dataclasses.replace(cfg, conv_dropout=0.5, tcn=dataclasses.replace(cfg.tcn, dropout=0.3))


def spy_stage(monkeypatch):
    """Record each fork_join of the model as (threads that ran calls, calls);
    a thread is its Thread object, which no later thread reuses as it may
    an ended thread's ident."""
    runs = []

    def spy(fn, calls):
        threads = set()

        def call(*args):
            threads.add(threading.current_thread())
            return fn(*args)

        runs.append((threads, len(calls)))
        return fork_join(call, calls)

    monkeypatch.setattr(model_module, "fork_join", spy)
    return runs


def train_step(cfg, dtype, B, seed=31):
    """One seeded training step and an Adam update: logits, loss, the
    named gradients and buffers after the backward, the updated parameters."""
    with precision(dtype):
        model = make_model(cfg, seed)
        data = np.random.default_rng(seed + 1)
        x = Tensor(data.standard_normal((B, 1, cfg.channels, cfg.time_steps)).astype(dtype))
        labels = data.integers(0, cfg.n_classes, B)
        logits = model(x, training=True, rng=np.random.default_rng(seed + 2))
        loss = ops.cross_entropy(logits, labels)
        loss.backward()
        got = {"logits": logits.data, "loss": loss.data}
        got.update((f"grad/{n}", p.grad) for n, p in model.named_parameters())
        got.update((f"buffer/{n}", b.copy()) for n, b in model.named_buffers())
        adam_step(AdamState(), list(model.parameters()))
        got.update((f"param/{n}", p.data) for n, p in model.named_parameters())
    return got


def assert_bytewise(got, want):
    assert got.keys() == want.keys()
    for name, w in want.items():
        g = got[name]
        if w is None:
            assert g is None, name
        else:
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), name


class TestBranchStage:
    """The four branch forwards and their backward walks on threads
    (CsanetModel._branch_stage): the bits of one worker, every error on the
    caller, and no tape where none is asked for."""

    @pytest.mark.parametrize(
        "name, dtype, B, floor, pooled",
        [
            ("default", "float32", 6, None, True),  # 132,000 samples: over TRAIN_MIN_WORK
            ("mini", "float64", 4, 0, True),
            ("mini", "float64", 4, None, False),
        ],
    )
    def test_a_step_on_two_workers_is_bytewise_one_workers(self, name, dtype, B, floor, pooled, monkeypatch):
        cfg = ModelConfig() if name == "default" else dropout_mini()
        if floor is not None:
            monkeypatch.setattr(model_module, "TRAIN_MIN_WORK", floor)
        assert (B * cfg.channels * cfg.time_steps >= model_module.TRAIN_MIN_WORK) == pooled
        monkeypatch.setattr(model_module, "WORKERS", 1)
        serial = train_step(cfg, dtype, B)
        monkeypatch.setattr(model_module, "WORKERS", 2)
        runs = spy_stage(monkeypatch)
        assert_bytewise(train_step(cfg, dtype, B), serial)
        # A pooled stage is one fork_join of the four forwards and one of
        # the four backward walks, each on two threads; under the floor no
        # thread is asked for.
        assert [(len(threads), n) for threads, n in runs] == ([(2, 4), (2, 4)] if pooled else [])

    def test_more_workers_than_cores_under_fast_thread_switching(self, monkeypatch):
        # The stage on four workers, the interpreter switching threads every
        # microsecond: a lost or doubled gradient update would change bytes.
        # Each forward stage and backward walk runs on four threads.
        monkeypatch.setattr(model_module, "TRAIN_MIN_WORK", 0)
        cfg = dropout_mini()
        monkeypatch.setattr(model_module, "WORKERS", 1)
        serial = train_step(cfg, "float64", 4)
        monkeypatch.setattr(model_module, "WORKERS", 4)
        runs = spy_stage(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                assert_bytewise(train_step(cfg, "float64", 4), serial)
        finally:
            sys.setswitchinterval(interval)
        assert [(len(threads), n) for threads, n in runs] == [(4, 4)] * 8

    def test_unequal_calls_come_back_in_call_order(self, monkeypatch):
        monkeypatch.setattr(model_module, "WORKERS", 2)
        threads = []

        def call(i, seconds):
            threads.append(threading.get_ident())
            time.sleep(seconds)
            return i * i

        assert fork_join(call, [(i, s) for i, s in enumerate((0.04, 0.03, 0.02, 0.01))]) == [0, 1, 4, 9]
        assert len(threads) == 4 and len(set(threads)) <= 2

    @pytest.mark.parametrize("where", ["forward", "backward"])
    def test_a_branch_error_reaches_the_caller_in_call_order(self, where, monkeypatch):
        monkeypatch.setattr(model_module, "WORKERS", 2)
        monkeypatch.setattr(model_module, "TRAIN_MIN_WORK", 0)
        cfg = dropout_mini()
        call = Branch.__call__
        errors = {2: KeyError, 3: ValueError}  # by branch number: branch2's comes first

        def failing(self, *args):
            error = errors.get(cfg.temporal_kernels.index(self.temporal_kernel) + 1)
            if error is not None and where == "forward":
                raise error(where)
            out = call(self, *args)
            if error is not None:

                def boom(g):
                    raise error(where)

                out._backward = boom
            return out

        monkeypatch.setattr(Branch, "__call__", failing)
        with pytest.raises(KeyError):
            train_step(cfg, "float64", 4)
        monkeypatch.setattr(Branch, "__call__", call)
        got = train_step(cfg, "float64", 4)  # a later stage still runs
        monkeypatch.setattr(model_module, "WORKERS", 1)
        assert_bytewise(got, train_step(cfg, "float64", 4))

    def test_training_forward_under_no_grad_records_no_tape(self, monkeypatch):
        # As grad_check's perturbed evaluations run the loss.
        monkeypatch.setattr(model_module, "WORKERS", 2)
        cfg = bcic_config()
        model = make_model(cfg)
        runs = spy_stage(monkeypatch)
        x = Tensor(np.random.default_rng(3).standard_normal((6, 1, 22, 1000)).astype(np.float32))
        with no_grad():
            out = model(x, training=True, rng=np.random.default_rng(4))
        assert [n for _, n in runs] == [4]  # the forwards ran on threads
        assert not out.requires_grad and out._backward is None and out._prev == ()

    def test_a_second_walk_still_raises(self, monkeypatch):
        monkeypatch.setattr(model_module, "WORKERS", 2)
        monkeypatch.setattr(model_module, "TRAIN_MIN_WORK", 0)
        cfg = dropout_mini()
        with precision("float64"):
            model = make_model(cfg)
            x = Tensor(np.random.default_rng(5).standard_normal((4, 1, cfg.channels, cfg.time_steps)))
            loss = ops.cross_entropy(model(x, training=True, rng=np.random.default_rng(6)), np.array([0, 1, 0, 1]))
            loss.backward()
            with pytest.raises(StateError):
                loss.backward()


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
        # The width is derived; a retired key that disagrees with it is refused.
        with pytest.raises(ConfigurationError, match="temporal_filters"):
            config_from_text("channels=4\ntime_steps=64\ntemporal_filters=8,8,8,8\n", cls=ModelConfig)

    def test_time_too_short_for_pools_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(channels=4, time_steps=40, pools=(8, 7)).validate()
