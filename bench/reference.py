"""The benchmark's own inputs and reference computations.

Nothing here calls into the program: scenes and checkpoints are written
from the formats described in README.md, and every reference (AdamW,
attention-guided fusion, confusion matrix, mIoU) is coded apart from the
program's kernels, with explicit loops where the program uses im2col,
batched matrix products or bincount.
"""

from __future__ import annotations

import math
import struct

import numpy as np

IGNORE_LABEL = 255


# -- eval inputs -----------------------------------------------------------------


def make_scenes(seed: int, count: int, size: int, classes: int):
    """Paired 8-bit scenes: ([H,W,3] ir, [H,W,3] vis, [H,W] mask) per scene.

    Class 1 is bright only in ir, class 2 only in vis, class 3 in both.
    Every odd scene has a 2-pixel border of the ignore label.
    """
    rng = np.random.default_rng([seed, 0x1F6F])
    scenes = []
    for index in range(count):
        ir = rng.uniform(0.10, 0.22) + rng.uniform(-0.03, 0.03, (size, size, 1))
        ir = np.repeat(ir, 3, axis=2)
        vis = rng.uniform(0.10, 0.25, (1, 1, 3)) + rng.uniform(-0.03, 0.03, (size, size, 1))
        mask = np.zeros((size, size), dtype=np.uint8)
        lo, hi = size // 6, size // 3
        for cls in range(1, classes):
            rh, rw = rng.integers(lo, hi, size=2)
            r0, c0 = rng.integers(0, size - rh), rng.integers(0, size - rw)
            box = (slice(r0, r0 + rh), slice(c0, c0 + rw))
            mask[box] = cls
            if cls in (1, 3):
                ir[box] = rng.uniform(0.70, 0.92)
            if cls in (2, 3):
                vis[box] = rng.uniform(0.65, 0.95, 3)
        if index % 2:
            mask[:2, :] = mask[-2:, :] = IGNORE_LABEL
            mask[:, :2] = mask[:, -2:] = IGNORE_LABEL
        scenes.append((_to_u8(ir), _to_u8(vis), mask))
    return scenes


def _to_u8(values: np.ndarray) -> np.ndarray:
    return np.floor(np.clip(values, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def pnm_bytes(pixels: np.ndarray) -> bytes:
    """Binary P6 for [H,W,3] or P5 for [H,W] 8-bit pixels."""
    h, w = pixels.shape[:2]
    magic = b"P6" if pixels.ndim == 3 else b"P5"
    return magic + b"\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(pixels).tobytes()


def checkpoint_bytes(named_arrays) -> bytes:
    """'IVGF' | u32 version 1 | u32 count | per entry: u32 name length, name,
    u32 ndim, u32 dims, little-endian float32 values."""
    named_arrays = list(named_arrays)
    chunks = [b"IVGF", struct.pack("<II", 1, len(named_arrays))]
    for name, values in named_arrays:
        encoded = name.encode("utf-8")
        chunks += [
            struct.pack("<I", len(encoded)),
            encoded,
            struct.pack(f"<I{values.ndim}I", values.ndim, *values.shape),
            np.asarray(values, dtype="<f4").tobytes(),
        ]
    return b"".join(chunks)


# -- optimizer -------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adamw_first_step(p: np.ndarray, g: np.ndarray, lr: float, weight_decay: float) -> np.ndarray:
    """Parameters after step t=1 from zero moments, with decoupled decay
    (Loshchilov & Hutter): the decay term scales p, not the gradient."""
    m = (1.0 - ADAM_BETA1) * g
    v = (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1)
    v_hat = v / (1.0 - ADAM_BETA2)
    return p - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS)) - lr * weight_decay * p


# -- attention-guided fusion -------------------------------------------------------


def conv2d_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray, padding: int) -> np.ndarray:
    """Stride-1 convolution, one output pixel at a time."""
    c_out, c_in, k, _ = w.shape
    _, h, wd = x.shape
    xp = np.zeros((c_in, h + 2 * padding, wd + 2 * padding))
    xp[:, padding : padding + h, padding : padding + wd] = x
    h_out, w_out = h + 2 * padding - k + 1, wd + 2 * padding - k + 1
    out = np.empty((c_out, h_out, w_out))
    for i in range(h_out):
        for j in range(w_out):
            out[:, i, j] = np.tensordot(w, xp[:, i : i + k, j : j + k], axes=3) + b
    return out


def attention_rows(tq: np.ndarray, tkv: np.ndarray, proj, heads: int) -> np.ndarray:
    """Multi-head attention of query tokens [N,C] over tokens [M,C], row by row."""
    q = tq @ proj.q_w.data.T + proj.q_b.data
    k = tkv @ proj.k_w.data.T + proj.k_b.data
    v = tkv @ proj.v_w.data.T + proj.v_b.data
    n, c = q.shape
    d = c // heads
    out = np.empty((n, c))
    for h in range(heads):
        cols = slice(h * d, (h + 1) * d)
        for i in range(n):
            scores = k[:, cols] @ q[i, cols] / math.sqrt(d)
            e = np.exp(scores - scores.max())
            out[i, cols] = (e / e.sum()) @ v[:, cols]
    return out


def agf(fx: np.ndarray, fy: np.ndarray, params) -> np.ndarray:
    """Bidirectional cross-attention then the 1x1, 1x1, 3x3 convolutional merge."""
    c, h, w = fx.shape
    tx, ty = fx.reshape(c, h * w).T, fy.reshape(c, h * w).T
    mx = attention_rows(tx, ty, params.xy, params.heads).T.reshape(c, h, w)
    my = attention_rows(ty, tx, params.yx, params.heads).T.reshape(c, h, w)
    merged = conv2d_loops(np.concatenate([mx, my]), params.merge_a_w.data, params.merge_a_b.data, 0)
    merged = conv2d_loops(np.maximum(merged, 0.0), params.merge_b_w.data, params.merge_b_b.data, 0)
    return conv2d_loops(merged, params.merge_c_w.data, params.merge_c_b.data, 1)


# -- segmentation metric ------------------------------------------------------------


def confusion(truth: np.ndarray, pred: np.ndarray, classes: int) -> np.ndarray:
    """Counts[t, p] over pixels whose truth is not the ignore label."""
    counts = np.zeros((classes, classes), dtype=np.int64)
    keep = truth != IGNORE_LABEL
    for t in range(classes):
        rows = keep & (truth == t)
        for p in range(classes):
            counts[t, p] = np.count_nonzero(rows & (pred == p))
    return counts


def mean_iou(counts: np.ndarray) -> float:
    """Mean of tp / (tp + fp + fn) over classes present in truth or prediction."""
    ious = []
    for k in range(counts.shape[0]):
        tp = int(counts[k, k])
        union = int(counts[k, :].sum()) + int(counts[:, k].sum()) - tp
        if union:
            ious.append(tp / union)
    return sum(ious) / len(ious)
