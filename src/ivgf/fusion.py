"""The three fusion blocks operating on paired infrared/visible features.

* feature enhancement: cross-modality spatial integration plus
  intra-modality channel attention on [C,H,W] maps
* token enhancement: importance prompts gating each modality's [N,C] tokens
* attention-guided fusion: bidirectional multi-head cross-attention between
  the two maps followed by a convolutional merge

Each block is a pure function of (inputs, params) and fully differentiable
through the tape in `tensor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import params as P
from .errors import ConfigError, DimensionError
from .rng import RngState
from .tensor import (
    Tensor,
    adaptive_pool,
    attention,
    concat,
    conv2d,
    feature_map,
    layer_norm,
    linear,
    narrow,
    relu,
    reshape,
    sigmoid,
    softmax_rows,
    tokens,
)

SPATIAL_REDUCTION = 8  # first spatial 1x1 conv maps C -> max(C//8, 1)
CHANNEL_HIDDEN_DIV = 4  # channel MLP hidden width = max(C//4, 1)
ADAPTER_HIDDEN_DIV = 4

# mode -> (spatial integration, channel attention, channel attention reads the integrated maps)
FEM_WIRING = {"parallel": (True, True, False), "serial": (True, True, True),
              "channel_only": (False, True, False), "spatial_only": (True, False, False)}
FEM_MODES = tuple(FEM_WIRING)


@dataclass
class LayerPair:
    """Two layers in -> hidden -> out with a ReLU between them: 1x1 convs in
    FEM's spatial attention, linear layers in its channel attention, in TEM's
    adapters and in the encoder's MLPs."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class FemParams:
    spatial_x: LayerPair | None  # None where the mode has no spatial integration
    spatial_y: LayerPair | None
    channel_x: LayerPair | None  # None where the mode has no channel attention
    channel_y: LayerPair | None
    mode: str  # one of FEM_MODES


@dataclass
class TemParams:
    ln_gamma: Tensor  # over the 2C concat
    ln_beta: Tensor
    reduce_w: Tensor  # 2C -> C1
    reduce_b: Tensor
    adapters: list  # LayerPair per adapter, C1 -> C1
    router_w: Tensor | None  # C1 -> K adapters; None without adapters
    router_b: Tensor | None


@dataclass
class AttnProj:
    q_w: Tensor
    q_b: Tensor
    k_w: Tensor
    k_b: Tensor
    v_w: Tensor
    v_b: Tensor


@dataclass
class AgfParams:
    xy: AttnProj  # queries from x, keys/values from y
    yx: AttnProj
    heads: int
    merge_a_w: Tensor  # 1x1, 2C -> C
    merge_a_b: Tensor
    merge_b_w: Tensor  # 1x1, C -> C
    merge_b_b: Tensor
    merge_c_w: Tensor  # 3x3, C -> C, padding 1
    merge_c_b: Tensor


# -- builders -----------------------------------------------------------------


def build_layer_pair(store: P.ParamStore, rng: RngState, first: str, second: str,
                     c_in: int, hidden: int, c_out: int, window: tuple = ()) -> LayerPair:
    """Layers named `first` (c_in -> hidden) and `second` (hidden -> c_out).

    window=(1, 1) makes both 1x1 convs, whose fan-in equals a linear layer's.
    """
    return LayerPair(
        w1=P.weight(store, rng, f"{first}.w", (hidden, c_in) + window, c_in),
        b1=P.bias(store, f"{first}.b", hidden),
        w2=P.weight(store, rng, f"{second}.w", (c_out, hidden) + window, hidden),
        b2=P.bias(store, f"{second}.b", c_out),
    )


def build_attn_proj(store: P.ParamStore, rng: RngState, prefix: str, c: int) -> AttnProj:
    """Query, key and value projections c -> c named {prefix}.q, .k and .v."""
    return AttnProj(
        q_w=P.weight(store, rng, f"{prefix}.q.w", (c, c), c),
        q_b=P.bias(store, f"{prefix}.q.b", c),
        k_w=P.weight(store, rng, f"{prefix}.k.w", (c, c), c),
        k_b=P.bias(store, f"{prefix}.k.b", c),
        v_w=P.weight(store, rng, f"{prefix}.v.w", (c, c), c),
        v_b=P.bias(store, f"{prefix}.v.b", c),
    )


def check_heads(heads: int, c: int):
    if heads < 1 or c % heads != 0:
        raise ConfigError(f"attention heads {heads} must divide channel width {c}")


def fem_wiring(mode: str) -> tuple:
    if mode not in FEM_WIRING:
        raise ConfigError(f"unknown fem mode {mode!r}, expected one of {FEM_MODES}")
    return FEM_WIRING[mode]


def build_fem(store: P.ParamStore, rng: RngState, prefix: str, c: int, mode: str) -> FemParams:
    spatial, channel, _ = fem_wiring(mode)
    reduced = max(c // SPATIAL_REDUCTION, 1)
    hidden = max(c // CHANNEL_HIDDEN_DIV, 1)

    def conv_pair(tag):
        return build_layer_pair(store, rng, f"{prefix}.{tag}.conv1", f"{prefix}.{tag}.conv2", c, reduced, 1, (1, 1))

    def linear_pair(tag):
        return build_layer_pair(store, rng, f"{prefix}.{tag}.lin1", f"{prefix}.{tag}.lin2", 2 * c, hidden, c)

    return FemParams(
        spatial_x=conv_pair("spatial_x") if spatial else None,
        spatial_y=conv_pair("spatial_y") if spatial else None,
        channel_x=linear_pair("channel_x") if channel else None,
        channel_y=linear_pair("channel_y") if channel else None,
        mode=mode,
    )


def build_tem(store: P.ParamStore, rng: RngState, prefix: str, c: int, n_adapters: int) -> TemParams:
    c1 = c  # keep the per-modality width after reducing the 2C concat
    hidden = max(c1 // ADAPTER_HIDDEN_DIV, 1)
    adapters = [
        build_layer_pair(store, rng, f"{prefix}.adapter{i}.down", f"{prefix}.adapter{i}.up", c1, hidden, c1)
        for i in range(n_adapters)
    ]
    return TemParams(
        ln_gamma=P.norm_gain(store, f"{prefix}.ln.gamma", 2 * c),
        ln_beta=P.bias(store, f"{prefix}.ln.beta", 2 * c),
        reduce_w=P.weight(store, rng, f"{prefix}.reduce.w", (c1, 2 * c), 2 * c),
        reduce_b=P.bias(store, f"{prefix}.reduce.b", c1),
        adapters=adapters,
        router_w=P.weight(store, rng, f"{prefix}.router.w", (n_adapters, c1), c1) if adapters else None,
        router_b=P.bias(store, f"{prefix}.router.b", n_adapters) if adapters else None,
    )


def build_agf(store: P.ParamStore, rng: RngState, prefix: str, c: int, heads: int) -> AgfParams:
    check_heads(heads, c)
    return AgfParams(
        xy=build_attn_proj(store, rng, f"{prefix}.xy", c),
        yx=build_attn_proj(store, rng, f"{prefix}.yx", c),
        heads=heads,
        merge_a_w=P.weight(store, rng, f"{prefix}.merge_a.w", (c, 2 * c, 1, 1), 2 * c),
        merge_a_b=P.bias(store, f"{prefix}.merge_a.b", c),
        merge_b_w=P.weight(store, rng, f"{prefix}.merge_b.w", (c, c, 1, 1), c),
        merge_b_b=P.bias(store, f"{prefix}.merge_b.b", c),
        merge_c_w=P.weight(store, rng, f"{prefix}.merge_c.w", (c, c, 3, 3), c * 9),
        merge_c_b=P.bias(store, f"{prefix}.merge_c.b", c),
    )


# -- feature enhancement ------------------------------------------------------


def spatial_attention(f: Tensor, pair: LayerPair) -> Tensor:
    """Per-position weights in (0,1): sigmoid(conv1x1(relu(conv1x1(f))))."""
    return sigmoid(conv2d(relu(conv2d(f, pair.w1, pair.b1)), pair.w2, pair.b2))


def cross_spatial_integration(fx: Tensor, fy: Tensor, px: LayerPair, py: LayerPair):
    """Each modality keeps itself and gains the other's spatially weighted map."""
    if fx.shape != fy.shape:
        raise DimensionError(f"modality shapes differ: {fx.shape} vs {fy.shape}")
    w_sx = spatial_attention(fx, px)
    w_sy = spatial_attention(fy, py)
    f_sx = fx * w_sx  # broadcast [1,H,W] over channels
    f_sy = fy * w_sy
    return fx + f_sy, fy + f_sx


def channel_attention(f: Tensor, pair: LayerPair) -> Tensor:
    """Per-channel weights [C,1,1] from pooled avg/max descriptors; [B,C,1,1] for a stack."""
    c = f.shape[-3]
    f_avg = adaptive_pool(f, "avg", (1, 1))
    f_max = adaptive_pool(f, "max", (1, 1))
    desc = reshape(concat([f_avg, f_max], axis=-3), (-1, 2 * c))  # one row per item
    w = sigmoid(linear(relu(linear(desc, pair.w1, pair.b1)), pair.w2, pair.b2))
    return reshape(w, f.shape[:-3] + (c, 1, 1))


def fem_forward(fx: Tensor, fy: Tensor, fem: FemParams):
    """Spatial integration and/or residual channel attention, wired by FEM_WIRING[fem.mode]."""
    if fx.shape != fy.shape:
        raise DimensionError(f"modality shapes differ: {fx.shape} vs {fy.shape}")
    spatial, channel, chained = fem_wiring(fem.mode)
    out_x, out_y = cross_spatial_integration(fx, fy, fem.spatial_x, fem.spatial_y) if spatial else (fx, fy)
    if not channel:
        return out_x, out_y
    src_x, src_y = (out_x, out_y) if chained else (fx, fy)
    return (out_x + src_x * channel_attention(src_x, fem.channel_x),
            out_y + src_y * channel_attention(src_y, fem.channel_y))


# -- token enhancement --------------------------------------------------------


def adapter_mixture(phi: Tensor, tem: TemParams) -> Tensor:
    """Router-weighted residual refinement; identity when no adapters exist."""
    if not tem.adapters:
        return phi
    weights = softmax_rows(linear(phi, tem.router_w, tem.router_b))  # [N,K], rows sum to 1
    out = phi
    for i, ad in enumerate(tem.adapters):
        delta = linear(relu(linear(phi, ad.w1, ad.b1)), ad.w2, ad.b2)
        out = out + delta * narrow(weights, 1, i, 1)
    return out


def tem_forward(tx: Tensor, ty: Tensor, tem: TemParams):
    if tx.shape != ty.shape:
        raise DimensionError(f"token shapes differ: {tx.shape} vs {ty.shape}")
    merged = concat([tx, ty], axis=1)  # [N, 2C]
    phi = linear(layer_norm(merged, tem.ln_gamma, tem.ln_beta), tem.reduce_w, tem.reduce_b)
    phi = adapter_mixture(phi, tem)
    prompts = sigmoid(adaptive_pool(phi, "avg", 2))  # [N, 2]: one prompt per modality
    prompt_x = narrow(prompts, 1, 0, 1)
    prompt_y = narrow(prompts, 1, 1, 1)
    return tx * prompt_x, ty * prompt_y


# -- attention-guided fusion ---------------------------------------------------


def multi_head_attention(tq: Tensor, tkv: Tensor, proj: AttnProj, heads: int, items: int = 1) -> Tensor:
    """softmax(Q K^T / sqrt(d_k)) V per head over token matrices [N,C]/[M,C].

    With `items` = B, the rows hold B scenes' tokens one after another and
    each scene attends only to its own.
    """
    check_heads(heads, tq.shape[1])
    q = linear(tq, proj.q_w, proj.q_b)
    k = linear(tkv, proj.k_w, proj.k_b)
    v = linear(tkv, proj.v_w, proj.v_b)
    return attention(q, k, v, heads, items)


def agf_forward(fx: Tensor, fy: Tensor, agf: AgfParams) -> Tensor:
    if fx.shape != fy.shape:
        raise DimensionError(f"modality shapes differ: {fx.shape} vs {fy.shape}")
    lead, (h, w) = fx.shape[:-3], fx.shape[-2:]
    items = math.prod(lead)
    # one tokens node per use: both directions sharing one node would sum
    # their gradients in another order
    a_xy = multi_head_attention(tokens(fx), tokens(fy), agf.xy, agf.heads, items)  # [B*HW, C]
    a_yx = multi_head_attention(tokens(fy), tokens(fx), agf.yx, agf.heads, items)
    stacked = concat([feature_map(a_xy, h, w, lead), feature_map(a_yx, h, w, lead)], axis=-3)  # [.., 2C, H, W]
    merged = relu(conv2d(stacked, agf.merge_a_w, agf.merge_a_b))
    merged = conv2d(merged, agf.merge_b_w, agf.merge_b_b)
    return conv2d(merged, agf.merge_c_w, agf.merge_c_b, padding=1)
