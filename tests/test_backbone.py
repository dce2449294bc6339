"""Encoder wiring: scale schedule, hook placement, missing-modality rule,
and degeneration to the sum-fusion baseline when every hook is disabled."""

import numpy as np
import pytest

from ivgf import fusion
from ivgf.backbone import (
    TEM_LAYERS,
    build_backbone,
    encoder_forward,
    feature_projection,
    substitute_missing,
)
from ivgf.errors import ConfigError, DimensionError
from ivgf.io_formats import Config
from ivgf.params import ParamStore
from ivgf.rng import RngState
from ivgf.tensor import Tensor, conv2d, layer_norm, linear, relu

SMALL = Config(backbone_base_width=8, head_width=8, data_image_size=32)


def _encoder(cfg=SMALL, seed=0):
    store = ParamStore()
    return build_backbone(store, RngState(seed), cfg), store


def _images(seed, size):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, (3, size, size))), Tensor(rng.uniform(0, 1, (3, size, size)))


class TestShapes:
    @pytest.mark.parametrize("size", [32, 64, 96])
    def test_scale_schedule(self, size):
        bb, _ = _encoder()
        x, y = _images(1, size)
        feats = encoder_forward(x, y, bb)
        widths = SMALL.widths()
        for i, fused in enumerate(feats.fused):
            stride = 4 * 2**i
            assert fused.shape == (widths[i], size // stride, size // stride)
        for i, (fx, fy) in enumerate(feats.pairs):
            assert fx.shape == fy.shape == feats.fused[i].shape

    def test_indivisible_size_rejected_before_compute(self):
        bb, _ = _encoder()
        x, y = _images(2, 48)
        with pytest.raises(ConfigError, match="divisible by 32"):
            encoder_forward(x, y, bb)

    def test_mismatched_modalities_rejected(self):
        bb, _ = _encoder()
        x, _ = _images(3, 32)
        y, _ = _images(4, 64)
        with pytest.raises(DimensionError):
            encoder_forward(x, y, bb)


class TestForwardBehavior:
    def test_zero_inputs_zero_biases_give_zero_everywhere(self):
        bb, _ = _encoder()  # default init keeps all biases at zero
        zero = Tensor(np.zeros((3, 32, 32)))
        feats = encoder_forward(zero, zero, bb)
        for fused in feats.fused:
            assert np.allclose(fused.data, 0.0, atol=1e-15)

    def test_deterministic(self):
        bb, _ = _encoder()
        x, y = _images(5, 32)
        a = encoder_forward(x, y, bb)
        b = encoder_forward(x, y, bb)
        for fa, fb in zip(a.fused, b.fused):
            assert fa.data.tobytes() == fb.data.tobytes()

    def test_finite_outputs(self):
        bb, _ = _encoder()
        x, y = _images(6, 64)
        feats = encoder_forward(x, y, bb)
        for fused in feats.fused:
            assert np.all(np.isfinite(fused.data))


class TestTemPlacement:
    def _count_tem_calls(self, monkeypatch, depth):
        cfg = Config(backbone_base_width=8, backbone_depth=depth, data_image_size=32)
        bb, _ = _encoder(cfg)
        calls = []
        real = fusion.tem_forward
        monkeypatch.setattr(fusion, "tem_forward", lambda tx, ty, tem: calls.append(1) or real(tx, ty, tem))
        x, y = _images(7, 32)
        encoder_forward(x, y, bb)
        return len(calls)

    def test_three_invocations_at_default_depth(self, monkeypatch):
        assert TEM_LAYERS == (3, 6, 9)
        assert self._count_tem_calls(monkeypatch, depth=9) == 3

    def test_shallow_stage_gets_fewer(self, monkeypatch):
        assert self._count_tem_calls(monkeypatch, depth=5) == 1
        assert self._count_tem_calls(monkeypatch, depth=2) == 0

    def test_disabled_tem_never_called(self, monkeypatch):
        cfg = Config(backbone_base_width=8, tem_enabled=False, data_image_size=32)
        bb, _ = _encoder(cfg)
        monkeypatch.setattr(fusion, "tem_forward", lambda *a: pytest.fail("tem must stay off"))
        x, y = _images(8, 32)
        encoder_forward(x, y, bb)


class TestSubstituteMissing:
    def test_none_is_identity(self):
        x, y = _images(9, 32)
        sx, sy = substitute_missing(x, y, "none")
        assert sx is x and sy is y

    def test_missing_vis_duplicates_ir_bitwise(self):
        x, y = _images(10, 32)
        sx, sy = substitute_missing(x, y, "vis")
        assert sy.data.tobytes() == x.data.tobytes()
        assert sx.data.tobytes() == x.data.tobytes()

    def test_missing_ir_duplicates_vis(self):
        x, y = _images(11, 32)
        sx, sy = substitute_missing(x, y, "ir")
        assert sx.data.tobytes() == y.data.tobytes()

    def test_pipeline_stays_well_formed_after_substitution(self):
        bb, _ = _encoder()
        x, y = _images(12, 32)
        for missing in ("ir", "vis", "none"):
            feats = encoder_forward(*substitute_missing(x, y, missing), bb)
            widths = SMALL.widths()
            for i, fused in enumerate(feats.fused):
                assert fused.shape[0] == widths[i]
                assert np.all(np.isfinite(fused.data))

    def test_unknown_mode_rejected(self):
        x, y = _images(13, 32)
        with pytest.raises(ConfigError, match="^missing must be ir, vis or none, got 'both'$"):
            substitute_missing(x, y, "both")


@pytest.mark.parametrize("heads", [0, 3])
def test_heads_that_do_not_divide_the_base_width_are_a_config_error(heads):
    with pytest.raises(ConfigError, match=f"^attention heads {heads} must divide channel width 8$"):
        _encoder(Config(backbone_base_width=8, agf_heads=heads))


@pytest.mark.parametrize("width, heads", [(8, 3), (6, 4)])
def test_heads_are_checked_at_build_time_without_agf(width, heads):
    # 4 heads divide every attention width of base width 6 (24 in the encoder),
    # so only the builder's check against the base width refuses them
    with pytest.raises(ConfigError, match=f"^attention heads {heads} must divide channel width {width}$"):
        _encoder(Config(backbone_base_width=width, agf_heads=heads, agf_enabled=False))


def _plain_branch(img, br, heads):
    """Independently wired per-modality forward with no enhancement hooks."""
    f1 = relu(conv2d(relu(conv2d(img, br.stem1.w, br.stem1.b, 2, 1)), br.stem2.w, br.stem2.b, 2, 1))
    f2 = relu(conv2d(f1, br.stage2.w, br.stage2.b, 2, 1))
    emb = conv2d(f2, br.embed.w, br.embed.b, 2, 1)
    c, h, w = emb.shape
    tokens = Tensor(np.ascontiguousarray(emb.data.reshape(c, h * w).T))
    for layer in br.layers:
        normed = layer_norm(tokens, layer.ln1_gamma, layer.ln1_beta)
        tokens = tokens + linear(
            fusion.multi_head_attention(normed, normed, layer.proj, heads), layer.out_w, layer.out_b
        )
        normed = layer_norm(tokens, layer.ln2_gamma, layer.ln2_beta)
        tokens = tokens + linear(relu(linear(normed, layer.mlp.w1, layer.mlp.b1)), layer.mlp.w2, layer.mlp.b2)
    f3 = Tensor(np.ascontiguousarray(tokens.data.T).reshape(c, h, w))
    f4 = conv2d(f3, br.stage4.w, br.stage4.b, 2, 1)
    return [f1, f2, f3, f4]


class TestBaselineDegeneration:
    def test_disabled_hooks_give_sum_fusion_of_plain_branches(self):
        cfg = Config(
            backbone_base_width=8,
            fem_enabled=False,
            tem_enabled=False,
            agf_enabled=False,
            data_image_size=32,
        )
        bb, _ = _encoder(cfg, seed=3)
        x, y = _images(14, 32)
        feats = encoder_forward(x, y, bb)
        plain_x = _plain_branch(x, bb.x, bb.config.agf_heads)
        plain_y = _plain_branch(y, bb.y, bb.config.agf_heads)
        for i in range(4):
            fx, fy = feats.pairs[i]
            assert np.array_equal(fx.data, plain_x[i].data)
            assert np.array_equal(fy.data, plain_y[i].data)
            assert np.array_equal(feats.fused[i].data, plain_x[i].data + plain_y[i].data)


def test_feature_projection_is_normalized_grayscale():
    rng = np.random.default_rng(15)
    fmap = Tensor(rng.uniform(-5, 5, (6, 4, 4)))
    proj = feature_projection(fmap)
    assert proj.shape == (4, 4)
    assert proj.min() == 0.0 and proj.max() == 1.0
    assert np.array_equal(feature_projection(Tensor(np.zeros((2, 3, 3)))), np.zeros((3, 3)))


def test_default_width_schedule_at_64():
    bb, _ = _encoder(Config(), seed=1)
    x, y = _images(20, 64)
    feats = encoder_forward(x, y, bb)
    assert [f.shape for f in feats.fused] == [(32, 16, 16), (64, 8, 8), (128, 4, 4), (256, 2, 2)]
