"""Dense float64 tensors, forward kernels, and a reverse-mode tape.

Conventions:
  * all values are numpy float64 arrays; kernels never mutate their inputs,
    so identical inputs give bit-identical outputs
  * every kernel result carries a creation sequence number; backward walks
    the reachable nodes in exact reverse creation order
  * a backward closure returns one gradient array (or None) per parent
  * inside `no_grad()` kernels build no tape: each result is a leaf that
    holds neither parents nor closure, so forward-only passes free every
    intermediate once its consumer has run
  * a kernel computes its output and nothing else; state only its backward
    needs (concat offsets, pooling argmax positions) is built inside the closure
    from the saved inputs, so a `no_grad()` pass never pays for it
  * what both passes need (attention's probabilities, conv2d's im2col
    columns) is not kept: the backward rebuilds it from the inputs, which the
    tape holds anyway as the parents' .data, with the helper the forward
    calls, so the rebuilt values are bit-identical
  * every kernel (and `Tensor.sum`, and `pipeline.cross_entropy`) is
    `@recorded`: an output it puts on the tape keeps (kernel, args, kwargs)
    as `_call`, so a caller can re-run from the tape just the nodes a
    changed input reaches; a leaf, and so every `no_grad()` result, keeps None
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

_seq_counter = itertools.count()
_F64 = np.dtype(np.float64)

# Score values per group of (item, head) slices in attention's backward:
# 1 << 16 float64 values are 512 KB, so a group's temporaries stay in L2.
ATTENTION_TILE = 1 << 16

LAYER_NORM_EPS = 1e-5  # added to layer_norm's variance before the square root

# False inside no_grad(): _node then records nothing for backward.
_grad_enabled = True


def recorded(kernel):
    """Make kernel store (kernel, args, kwargs) as `_call` on each output it puts on the tape.

    An output on the tape is one with parents. The undecorated kernel is
    what gets stored, so re-running a `_call` skips this wrapper.
    """

    @functools.wraps(kernel)
    def call(*args, **kwargs):
        out = kernel(*args, **kwargs)
        if out._parents:
            out._call = (kernel, args, kwargs)
        return out

    return call


class Tensor:
    """A dense float64 array plus an optional place on the autodiff tape."""

    __slots__ = ("data", "requires_grad", "op", "_parents", "_backward_fn", "_seq", "_call")

    def __init__(self, data, requires_grad=False, op="leaf", parents=(), backward_fn=None):
        # a float64 ndarray is kept as it is: np.asarray would return it unchanged
        self.data = data if type(data) is np.ndarray and data.dtype is _F64 else np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents if type(parents) is tuple else tuple(parents)
        self._backward_fn = backward_fn
        self._seq = next(_seq_counter)
        self._call = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    @recorded
    def sum(self) -> "Tensor":
        x = self

        def back(g):
            return (np.full_like(x.data, float(g.reshape(()))),)

        return _node(np.asarray(self.data.sum()), "sum", (self,), back)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


@contextmanager
def no_grad():
    """Run forward passes without a tape; the previous state returns on exit, also on error.

    The values are the same as with the tape on: only the bookkeeping for
    backward is skipped. Nests freely.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data, op, parents, backward_fn) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, True, op, parents, backward_fn)
    return Tensor(data, False, op)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise kernels ----------------------------------------------------


@recorded
def add(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(a.data + b.data, "add", (a, b), back)


@recorded
def mul(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(a.data * b.data, "mul", (a, b), back)


@recorded
def relu(x: Tensor) -> Tensor:
    out = np.where(x.data > 0.0, x.data, 0.0)

    def back(g):  # out > 0 exactly where x > 0 (NaN and -0.0 give 0.0), so no mask is kept
        return (g * (out > 0.0),)

    return _node(out, "relu", (x,), back)


@recorded
def sigmoid(x: Tensor) -> Tensor:
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, so both tails stay
    # finite: e = exp(-|x|) is exactly exp(-x) on the first branch and exp(x) on
    # the second (a NaN stays NaN, though its sign bit may not)
    e = np.exp(-np.abs(x.data))
    out = np.where(x.data >= 0.0, 1.0, e) / (1.0 + e)

    def back(g):
        return (g * out * (1.0 - out),)

    return _node(out, "sigmoid", (x,), back)


# -- shape kernels ----------------------------------------------------------


@recorded
def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def back(g):
        return (g.reshape(x.shape),)

    return _node(x.data.reshape(shape), "reshape", (x,), back)


@recorded
def tokens(fmap: Tensor) -> Tensor:
    """A [C,H,W] map as C-contiguous [H*W, C] token rows, in row-major position order.

    A [B,C,H,W] stack gives [B*H*W, C]: item b owns rows [b*H*W, (b+1)*H*W).
    """
    shape = fmap.data.shape
    if len(shape) not in (3, 4):
        raise DimensionError(f"tokens expects a [C,H,W] or [B,C,H,W] map, got shape {shape}")
    c, h, w = shape[-3:]

    def back(g):
        return (np.ascontiguousarray(g.reshape(-1, h * w, c).transpose(0, 2, 1)).reshape(shape),)

    rows = np.ascontiguousarray(fmap.data.reshape(-1, c, h * w).transpose(0, 2, 1)).reshape(-1, c)
    return _node(rows, "tokens", (fmap,), back)


@recorded
def feature_map(rows: Tensor, h: int, w: int, lead=()) -> Tensor:
    """[H*W, C] token rows back to a C-contiguous [C,H,W] map; the inverse of `tokens`.

    With `lead` = (B,), [B*H*W, C] rows give a [B,C,H,W] stack.
    """
    lead = tuple(lead)
    items = math.prod(lead)
    shape = rows.data.shape
    if len(shape) != 2 or shape[0] != items * h * w:
        raise DimensionError(f"feature_map expects [{items}*{h}*{w}, C] tokens, got shape {shape}")
    c = shape[1]

    def back(g):
        return (np.ascontiguousarray(g.reshape(items, c, h * w).transpose(0, 2, 1)).reshape(-1, c),)

    stack = rows.data.reshape(items, h * w, c).transpose(0, 2, 1)
    return _node(np.ascontiguousarray(stack).reshape(lead + (c, h, w)), "feature_map", (rows,), back)


@recorded
def concat(parts, axis: int) -> Tensor:
    parts = tuple(parts)

    def back(g):
        offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(parts)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(np.ascontiguousarray(g[tuple(slicer)]))
        return tuple(grads)

    return _node(np.concatenate([p.data for p in parts], axis=axis), "concat", parts, back)


@recorded
def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise DimensionError(
            f"narrow [{start}:{start + length}] out of range for axis {axis} of shape {x.shape}"
        )
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(start, start + length)
    slicer = tuple(slicer)

    def back(g):
        gx = np.zeros_like(x.data)
        gx[slicer] = g
        return (gx,)

    return _node(np.ascontiguousarray(x.data[slicer]), "narrow", (x,), back)


@recorded
def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Integer-factor nearest-neighbor upsampling of a [C,H,W] map or a [B,C,H,W] stack."""
    if x.ndim not in (3, 4):
        raise DimensionError(f"upsample_nearest expects [C,H,W] or [B,C,H,W], got shape {x.shape}")
    if factor < 1:
        raise DimensionError(f"upsample factor must be >= 1, got {factor}")
    h, w = x.shape[-2:]
    out = np.repeat(np.repeat(x.data, factor, axis=-2), factor, axis=-1)

    def back(g):
        return (g.reshape(x.shape[:-2] + (h, factor, w, factor)).sum(axis=(-3, -1)),)

    return _node(out, "upsample_nearest", (x,), back)


# -- dense kernels ----------------------------------------------------------


@recorded
def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x[..., D_in] @ weight[D_out, D_in]^T + bias[D_out]."""
    d_in, w_shape = x.data.shape[-1], weight.data.shape
    if len(w_shape) != 2 or w_shape[1] != d_in:
        raise DimensionError(
            f"linear: input trailing dim {d_in} does not match weight {w_shape}"
        )
    if bias.data.shape != (w_shape[0],):
        raise DimensionError(f"linear: bias shape {bias.data.shape} != ({w_shape[0]},)")
    out = x.data @ weight.data.T
    out += bias.data

    def back(g):
        g2 = g.reshape(-1, w_shape[0])
        x2 = x.data.reshape(-1, d_in)
        return g @ weight.data, g2.T @ x2, g2.sum(axis=0)

    return _node(out, "linear", (x, weight, bias), back)


def _im2col(x: np.ndarray, k: int, stride: int, padding: int, h_out: int, w_out: int) -> np.ndarray:
    """The columns [C_in*k*k, B*H_out*W_out] of a [B,C_in,H,W] stack, zero-padded by `padding`.

    cols[c, di, dj, b, i, j] = padded[b, c, i*stride + di, j*stride + dj]. A
    1x1 stride-1 kernel's columns are the stack itself, channels first: a
    view for one item.
    """
    b, c_in, h, w = x.shape
    if padding:  # one zeroed buffer and a slice copy: np.pad costs far more per call
        xp = np.zeros((b, c_in, h + 2 * padding, w + 2 * padding))
        xp[:, :, padding : padding + h, padding : padding + w] = x
    else:
        xp = np.ascontiguousarray(x)
    if k == 1 and stride == 1:
        return xp.transpose(1, 0, 2, 3).reshape(c_in, -1)
    sb, sc, sh, sw = xp.strides  # one copy of a strided view of xp
    windows = np.ndarray((c_in, k, k, b, h_out, w_out), xp.dtype, xp, 0, (sc, sh, sw, sb, sh * stride, sw * stride))
    return windows.copy().reshape(c_in * k * k, -1)


@recorded
def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution of a [C,H,W] map or a [B,C,H,W] stack with [C_out,C_in,k,k] weights, zero padding.

    A [C,H,W] map runs as the B = 1 stack. The B items share one im2col
    matrix [C_in*k*k, B*H_out*W_out] and one weight matmul. The columns are
    freed once that product is done; the backward rebuilds them with the
    same `_im2col` for the weight gradient, so the tape keeps only x.
    """
    shape = x.data.shape
    if len(shape) not in (3, 4):
        raise DimensionError(f"conv2d expects input [C,H,W] or [B,C,H,W], got shape {shape}")
    c_out, c_in, kh, kw = weight.data.shape
    if kh != kw or kh not in (1, 3):
        raise DimensionError(f"conv2d supports square 1x1 or 3x3 kernels, got {kh}x{kw}")
    if shape[-3] != c_in:
        raise DimensionError(
            f"conv2d: weight expects {c_in} input channels, input has {shape[-3]}"
        )
    if bias.data.shape != (c_out,):
        raise DimensionError(f"conv2d: bias shape {bias.data.shape} != ({c_out},)")
    if stride < 1:
        raise DimensionError(f"conv2d stride must be >= 1, got {stride}")
    h, w = shape[-2:]
    k = kh
    if h + 2 * padding < k or w + 2 * padding < k:
        raise DimensionError(f"conv2d: padded input {h}x{w} (pad {padding}) smaller than kernel {k}")
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1
    b = math.prod(shape[:-3])

    def columns():
        return _im2col(x.data.reshape(b, c_in, h, w), k, stride, padding, h_out, w_out)

    out = weight.data.reshape(c_out, -1) @ columns()
    out += bias.data[:, None]
    out = out.reshape(c_out, b, h_out, w_out)
    out = np.ascontiguousarray(out.transpose(1, 0, 2, 3)).reshape(shape[:-3] + (c_out, h_out, w_out))

    def back(g):
        g2 = np.ascontiguousarray(g.reshape(b, c_out, -1).transpose(1, 0, 2)).reshape(c_out, -1)
        gw = (g2 @ columns().T).reshape(weight.data.shape)
        gb = g2.sum(axis=1)
        gcols = (weight.data.reshape(c_out, -1).T @ g2).reshape(c_in, k, k, b, h_out, w_out)
        gxp = np.zeros((b, c_in, h + 2 * padding, w + 2 * padding))
        for di in range(k):
            for dj in range(k):
                gxp[:, :, di : di + h_out * stride : stride, dj : dj + w_out * stride : stride] += (
                    gcols[:, di, dj].transpose(1, 0, 2, 3)
                )
        gx = gxp[:, :, padding : padding + h, padding : padding + w] if padding else gxp
        return np.ascontiguousarray(gx).reshape(shape), gw, gb

    return _node(out, "conv2d", (x, weight, bias), back)


@recorded
def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Row-wise normalization of [N,C] with biased variance."""
    if x.ndim != 2:
        raise DimensionError(f"layer_norm expects [N,C], got shape {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"layer_norm: gamma/beta shapes {gamma.shape}/{beta.shape} != ({c},)"
        )
    # .sum(...) / c is what .mean computes, without its Python wrapper
    d = x.data - x.data.sum(axis=1, keepdims=True) / c
    var = (d * d).sum(axis=1, keepdims=True) / c  # biased, the same sums np.var takes
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = d * inv_std

    def back(g):
        gy = g * gamma.data
        gx = (gy - gy.sum(axis=1, keepdims=True) / c - xhat * ((gy * xhat).sum(axis=1, keepdims=True) / c)) * inv_std
        return gx, (g * xhat).sum(axis=0), g.sum(axis=0)

    out = xhat * gamma.data
    out += beta.data
    return _node(out, "layer_norm", (x, gamma, beta), back)


def _softmax_(s: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, in place, stabilized by per-row max subtraction.

    Each row gets exactly the values of the fresh-array expressions
    e = exp(s - max), e / sum(e), whatever rows share the array.
    """
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


@recorded
def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of [N,M], stabilized by per-row max subtraction."""
    if x.ndim != 2:
        raise DimensionError(f"softmax_rows expects [N,M], got shape {x.shape}")
    s = _softmax_(x.data.copy())

    def back(g):
        return (s * (g - (g * s).sum(axis=1, keepdims=True)),)

    return _node(s, "softmax_rows", (x,), back)


@recorded
def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, items: int = 1) -> Tensor:
    """Multi-head softmax(Q K^T / sqrt(d)) V for queries [N,C] and keys/values [M,C].

    Head h owns columns [h*d, (h+1)*d) with d = C/heads. With `items` = B,
    q holds B blocks of N rows and k, v B blocks of M rows, and block b
    attends only within itself. The (item, head) pairs run as contiguous
    [B*heads, rows, d] stacks through batched matmuls and the in-place
    `_softmax_` along the last axis, so each head computes exactly what a
    per-head 2-d loop would. The forward drops its [B*heads, N, M]
    probabilities once the output is formed, so the tape keeps only q, k
    and v. The backward walks cache-sized groups of (item, head) slices;
    in each group it rebuilds the probabilities with the forward's own
    `heads_of` and `_softmax_`, takes dV from them, writes dZ over them and
    takes dQ and dK. Every product runs per slice, so the gradients are
    bitwise the whole-stack ones.
    Gradients come back C-contiguous: numpy sums an F-ordered array in
    another order, which would change the bias gradients of the linear
    layers feeding q, k, v.
    """
    qs, ks = q.data.shape, k.data.shape
    if len(qs) != 2 or len(ks) != 2 or v.data.shape != ks or qs[1] != ks[1]:
        raise DimensionError(
            f"attention expects q [N,C] and k, v [M,C], got {qs}, {ks}, {v.data.shape}"
        )
    c = qs[1]
    if heads < 1 or c % heads != 0:
        raise DimensionError(f"attention heads {heads} must divide channel width {c}")
    if items < 1 or qs[0] % items or ks[0] % items:
        raise DimensionError(f"attention: {items} items must divide the rows of q {qs} and k {ks}")
    n, m = qs[0] // items, ks[0] // items
    d = c // heads
    scale = 1.0 / (d**0.5)

    def split(x, rows):  # [B*rows, C] -> C-contiguous [B*h, rows, d]
        return np.ascontiguousarray(x.reshape(items, rows, heads, d).transpose(0, 2, 1, 3)).reshape(-1, rows, d)

    def merge(x, rows):  # [B*h, rows, d] -> C-contiguous [B*rows, C]
        return np.ascontiguousarray(x.reshape(items, heads, rows, d).transpose(0, 2, 1, 3)).reshape(-1, c)

    def heads_of():  # q [B*h, N, d], k^T [B*h, d, M] and v [B*h, M, d]
        kt = np.ascontiguousarray(k.data.reshape(items, m, heads, d).transpose(0, 2, 3, 1)).reshape(-1, d, m)
        return split(q.data, n), kt, split(v.data, m)

    qh, kt, vh = heads_of()
    s = qh @ kt  # scores, then the softmax in place: the same values as fresh arrays
    s *= scale
    out = merge(_softmax_(s) @ vh, n)

    def back(g):
        qh, kt, vh = heads_of()
        go, vt = split(g, n), vh.swapaxes(-1, -2)
        gq, gkt, gv = np.empty_like(qh), np.empty_like(kt), np.empty_like(vh)
        # groups of (item, head) slices of at most ATTENTION_TILE scores, so
        # each group's probabilities and temporaries stay in cache
        step = min(len(qh), max(1, ATTENTION_TILE // (n * m)))
        probs, dprobs = np.empty((step, n, m)), np.empty((step, n, m))
        for i in range(0, len(qh), step):
            t = slice(i, i + step)
            p, z = probs[: len(qh[t])], dprobs[: len(qh[t])]
            np.matmul(qh[t], kt[t], out=p)
            p *= scale
            _softmax_(p)
            np.matmul(p.swapaxes(-1, -2), go[t], out=gv[t])
            np.matmul(go[t], vt[t], out=z)
            z -= (z * p).sum(axis=-1, keepdims=True)
            p *= z  # dZ over the probabilities: this group needs them no more
            p *= scale
            np.matmul(p, kt[t].swapaxes(-1, -2), out=gq[t])
            np.matmul(qh[t].swapaxes(-1, -2), p, out=gkt[t])  # Q^T dZ = dK^T
        return merge(gq, n), merge(gkt.swapaxes(-1, -2), m), merge(gv, m)

    return _node(out, "attention", (q, k, v), back)


# -- pooling ----------------------------------------------------------------


@recorded
def adaptive_pool(x: Tensor, mode: str, out_size) -> Tensor:
    """Pooling into equal bins: [C,H,W] -> [C,1,1] globally, or [N,C] -> [N,out] along rows.

    These are the poolings the model runs (FEM channel descriptors, TEM
    prompts); for rows, out must divide C. A [B,C,H,W] stack pools to
    [B,C,1,1].
    """
    if mode not in ("avg", "max"):
        raise ConfigError(f"adaptive_pool mode must be 'avg' or 'max', got {mode!r}")
    if x.ndim in (3, 4) and out_size == (1, 1):
        rows, bins, op = x.data.reshape(-1, x.shape[-2] * x.shape[-1]), 1, f"adaptive_{mode}_pool2d"
        out_shape = x.shape[:-2] + (1, 1)
    elif x.ndim == 2 and isinstance(out_size, int) and out_size >= 1 and x.shape[1] % out_size == 0:
        rows, bins, op = x.data, out_size, f"adaptive_{mode}_pool_rows"
        out_shape = (x.shape[0], bins)
    else:
        raise DimensionError(
            f"adaptive_pool supports [C,H,W] or [B,C,H,W] -> (1, 1) and [N,C] -> out bins dividing C, "
            f"got shape {x.shape} -> {out_size!r}"
        )
    n, c = rows.shape
    width = c // bins
    blocks = rows.reshape(n, bins, width)  # bin j of row i is blocks[i, j]
    # .sum(...) / width is what .mean computes, without its Python wrapper
    out = blocks.sum(axis=2) / width if mode == "avg" else blocks.max(axis=2)

    def back(g):
        gx = np.zeros((n, bins, width))
        if mode == "avg":
            gx += (g.reshape(n, bins) / width)[:, :, None]
        else:  # the first maximum of each bin takes its gradient; kernels never mutate x.data
            i, j = np.ogrid[:n, :bins]
            gx[i, j, blocks.argmax(axis=2)] += g.reshape(n, bins)
        return (gx.reshape(x.shape),)

    return _node(out.reshape(out_shape), op, (x,), back)


# -- the tape ---------------------------------------------------------------


@dataclass
class Graph:
    """Kernel applications reachable from a root, in forward creation order."""

    nodes: list


def trace(root: Tensor) -> Graph:
    seen = set()
    nodes = []
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._seq)
    return Graph(nodes)


def backward(loss: Tensor, wrt, on_ready=None):
    """d(loss)/d(t) for each tensor t in wrt; zeros where the loss does not reach t.

    Without `on_ready` the gradients come back as a list in wrt's order.
    With it, on_ready(i, grad) is called once per wrt[i] as soon as that
    gradient is complete, and the walk then drops it: for a leaf, once the
    closures of all its consumer edges have run (mul(x, x) is two edges);
    for any other node, when the walk reaches it. Unreached tensors are
    called with zeros at the end. on_ready must not write into grad: a
    closure may hand one array object to two parents.
    """
    if loss.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
    wrt = list(wrt)
    if on_ready is None:
        grads = [None] * len(wrt)
        backward(loss, wrt, grads.__setitem__)
        return grads
    slots = {}
    for i, t in enumerate(wrt):
        slots.setdefault(t, []).append(i)
    nodes = trace(loss).nodes
    edges = {}  # consumer edges still to run, per leaf in wrt: a leaf's own node comes last in the walk
    for node in nodes:
        for parent in node._parents:
            if parent in slots and parent._backward_fn is None:
                edges[parent] = edges.get(parent, 0) + 1

    def ready(t, g):
        for i in slots.pop(t):
            on_ready(i, np.zeros_like(t.data) if g is None else g)

    grads = {loss: np.ones_like(loss.data)}
    for node in reversed(nodes):
        g = grads.pop(node, None)
        if node in slots:
            ready(node, g)
        if g is not None and node._backward_fn is not None:
            for parent, pg in zip(node._parents, node._backward_fn(g)):
                if pg is not None and parent.requires_grad:
                    grads[parent] = grads[parent] + pg if parent in grads else pg
        for parent in node._parents:
            if parent in edges:
                edges[parent] -= 1
                if not edges[parent]:
                    ready(parent, grads.pop(parent, None))
    for t in list(slots):  # not reached
        ready(t, None)


def named_gradients(loss: Tensor, params, on_ready=None):
    """{name: gradient} over {name: tensor}, or on_ready(name, grad) calls as `backward` makes them."""
    names = list(params)
    if on_ready is None:
        return dict(zip(names, backward(loss, params.values())))
    backward(loss, params.values(), lambda i, g: on_ready(names[i], g))
