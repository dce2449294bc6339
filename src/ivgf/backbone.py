"""Toy dual-branch encoder producing four fused feature scales.

Per modality: two strided convs to /4 (stage 1), one to /8 (stage 2), a
token embedding to /16 followed by `backbone.depth` pre-norm self-attention
layers (stage 3), and a strided conv to /32 (stage 4). The enhancement block runs
on the stage-1..3 outputs of both branches before they feed the next stage,
token gating runs inside stage 3 after attention layers 3, 6 and 9, and
cross-attention fusion produces one fused map per scale. Channel widths
follow (w, 2w, 4w, 8w) for the configured base width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fusion
from . import params as P
from .errors import ConfigError, DimensionError
from .io_formats import Config
from .rng import RngState
from .tensor import Tensor, conv2d, feature_map, layer_norm, linear, relu, tokens

TEM_LAYERS = (3, 6, 9)
MLP_RATIO = 2  # each attention layer's MLP is MLP_RATIO times as wide as the layer


@dataclass
class Conv:
    w: Tensor
    b: Tensor


@dataclass
class AttnLayer:
    ln1_gamma: Tensor
    ln1_beta: Tensor
    proj: fusion.AttnProj
    out_w: Tensor
    out_b: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    mlp: fusion.LayerPair


@dataclass
class Branch:
    stem1: Conv  # 3 -> w1/2 at /2
    stem2: Conv  # w1/2 -> w1 at /4
    stage2: Conv
    embed: Conv
    layers: list
    stage4: Conv


@dataclass
class BackboneParams:
    x: Branch
    y: Branch
    fem: list  # FemParams per scale 1..3
    tem: fusion.TemParams
    agf: list  # AgfParams per scale 1..4
    heads: int
    fem_enabled: bool = True
    tem_enabled: bool = True
    agf_enabled: bool = True


@dataclass
class MultiScaleFeatures:
    """Per scale: the (ir, vis) pair that fed fusion, and the fused map."""

    pairs: list  # [(fx, fy)] * 4
    fused: list  # [fxy] * 4


def build_conv(store, rng, name, c_in, c_out, k) -> Conv:
    return Conv(
        w=P.weight(store, rng, f"{name}.w", (c_out, c_in, k, k), c_in * k * k),
        b=P.bias(store, f"{name}.b", c_out),
    )


def _attn_layer(store, rng, name, c) -> AttnLayer:
    return AttnLayer(
        ln1_gamma=P.norm_gain(store, f"{name}.ln1.gamma", c),
        ln1_beta=P.bias(store, f"{name}.ln1.beta", c),
        proj=fusion.build_attn_proj(store, rng, name, c),
        out_w=P.weight(store, rng, f"{name}.out.w", (c, c), c),
        out_b=P.bias(store, f"{name}.out.b", c),
        ln2_gamma=P.norm_gain(store, f"{name}.ln2.gamma", c),
        ln2_beta=P.bias(store, f"{name}.ln2.beta", c),
        mlp=fusion.build_layer_pair(store, rng, f"{name}.mlp1", f"{name}.mlp2", c, MLP_RATIO * c, c),
    )


def build_backbone(store: P.ParamStore, rng: RngState, cfg: Config) -> BackboneParams:
    w1, w2, w3, w4 = cfg.widths()
    if w1 % cfg.agf_heads != 0:
        raise ConfigError(f"attention heads {cfg.agf_heads} must divide channel width {w1}")

    stem_mid = max(w1 // 2, 1)

    def branch(tag):
        return Branch(
            stem1=build_conv(store, rng, f"{tag}.stem1", 3, stem_mid, 3),
            stem2=build_conv(store, rng, f"{tag}.stem2", stem_mid, w1, 3),
            stage2=build_conv(store, rng, f"{tag}.stage2", w1, w2, 3),
            embed=build_conv(store, rng, f"{tag}.embed", w2, w3, 3),
            layers=[_attn_layer(store, rng, f"{tag}.block{i}", w3) for i in range(cfg.backbone_depth)],
            stage4=build_conv(store, rng, f"{tag}.stage4", w3, w4, 3),
        )

    return BackboneParams(
        x=branch("x"),
        y=branch("y"),
        fem=[
            fusion.build_fem(store, rng, f"fem{i + 1}", c, cfg.fem_mode)
            for i, c in enumerate((w1, w2, w3))
        ],
        tem=fusion.build_tem(store, rng, "tem", w3, cfg.tem_adapters),
        agf=[
            fusion.build_agf(store, rng, f"agf{i + 1}", c, cfg.agf_heads)
            for i, c in enumerate((w1, w2, w3, w4))
        ],
        heads=cfg.agf_heads,
        fem_enabled=cfg.fem_enabled,
        tem_enabled=cfg.tem_enabled,
        agf_enabled=cfg.agf_enabled,
    )


def _self_attention_block(rows: Tensor, layer: AttnLayer, heads: int, items: int) -> Tensor:
    normed = layer_norm(rows, layer.ln1_gamma, layer.ln1_beta)
    attended = fusion.multi_head_attention(normed, normed, layer.proj, heads, items)
    rows = rows + linear(attended, layer.out_w, layer.out_b)
    normed = layer_norm(rows, layer.ln2_gamma, layer.ln2_beta)
    return rows + linear(relu(linear(normed, layer.mlp.w1, layer.mlp.b1)), layer.mlp.w2, layer.mlp.b2)


def _enhance(bb: BackboneParams, scale_idx: int, fx: Tensor, fy: Tensor):
    if bb.fem_enabled:
        return fusion.fem_forward(fx, fy, bb.fem[scale_idx])
    return fx, fy


def _fuse(bb: BackboneParams, scale_idx: int, fx: Tensor, fy: Tensor) -> Tensor:
    if bb.agf_enabled:
        return fusion.agf_forward(fx, fy, bb.agf[scale_idx])
    return fx + fy  # ablation baseline: plain elementwise sum


def encoder_forward(x_img: Tensor, y_img: Tensor, bb: BackboneParams) -> MultiScaleFeatures:
    if x_img.shape != y_img.shape:
        raise DimensionError(f"modality image shapes differ: {x_img.shape} vs {y_img.shape}")
    if x_img.ndim not in (3, 4) or x_img.shape[-3] != 3:
        raise DimensionError(f"expected [3,H,W] images or [B,3,H,W] stacks, got shape {x_img.shape}")
    lead, (h, w) = x_img.shape[:-3], x_img.shape[-2:]
    items = math.prod(lead)
    if h % 32 or w % 32:
        raise ConfigError(f"input size {h}x{w} must be divisible by 32")

    def stage1(img, br):
        return relu(conv2d(relu(conv2d(img, br.stem1.w, br.stem1.b, stride=2, padding=1)),
                           br.stem2.w, br.stem2.b, stride=2, padding=1))

    f1x, f1y = _enhance(bb, 0, stage1(x_img, bb.x), stage1(y_img, bb.y))

    def stage2(fmap, br):
        return relu(conv2d(fmap, br.stage2.w, br.stage2.b, stride=2, padding=1))

    f2x, f2y = _enhance(bb, 1, stage2(f1x, bb.x), stage2(f1y, bb.y))

    def embed(fmap, br):
        return conv2d(fmap, br.embed.w, br.embed.b, stride=2, padding=1)

    ex, ey = embed(f2x, bb.x), embed(f2y, bb.y)
    h3, w3 = ex.shape[-2:]
    tx, ty = tokens(ex), tokens(ey)  # [B*H3*W3, C] rows: the blocks and TEM are row-wise
    for i, (layer_x, layer_y) in enumerate(zip(bb.x.layers, bb.y.layers)):
        tx = _self_attention_block(tx, layer_x, bb.heads, items)
        ty = _self_attention_block(ty, layer_y, bb.heads, items)
        if bb.tem_enabled and (i + 1) in TEM_LAYERS:
            tx, ty = fusion.tem_forward(tx, ty, bb.tem)
    f3x, f3y = _enhance(bb, 2, feature_map(tx, h3, w3, lead), feature_map(ty, h3, w3, lead))

    f4x = conv2d(f3x, bb.x.stage4.w, bb.x.stage4.b, stride=2, padding=1)
    f4y = conv2d(f3y, bb.y.stage4.w, bb.y.stage4.b, stride=2, padding=1)

    pairs = [(f1x, f1y), (f2x, f2y), (f3x, f3y), (f4x, f4y)]
    fused = [_fuse(bb, i, fx, fy) for i, (fx, fy) in enumerate(pairs)]
    return MultiScaleFeatures(pairs=pairs, fused=fused)


def substitute_missing(x_img: Tensor, y_img: Tensor, missing: str):
    """Stand in for an absent modality with the other modality's image."""
    if missing == "none":
        return x_img, y_img
    if missing == "ir":
        return y_img, y_img
    if missing == "vis":
        return x_img, x_img
    raise ConfigError(f"missing must be ir, vis or none, got {missing!r}")


def feature_projection(fmap: Tensor) -> np.ndarray:
    """Collapse [C,H,W] to an [H,W] grayscale view via per-pixel channel max."""
    proj = fmap.data.max(axis=0)
    lo, hi = proj.min(), proj.max()
    if hi > lo:
        proj = (proj - lo) / (hi - lo)
    else:
        proj = np.zeros_like(proj)
    return proj
