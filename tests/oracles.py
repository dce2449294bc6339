"""Naive reference implementations, written with explicit loops.

These stay deliberately independent of the package kernels: plain numpy
arrays in, plain arrays out, no calls into the tape. They exist so that
every production code path can be compared against a second, dumber
derivation of the same math. Two exceptions: inject_fault breaks a
kernel's backward on purpose, so tests can show the gradient checks
notice, check_entries_naive takes its analytic gradients from the tape,
because what it re-derives is the gradient check's scoring, not the
gradients, and train_toy_arena trains the package's model, because what it
re-derives is when the optimizer updates, not the model.
"""

import math
import tracemalloc

import numpy as np

from ivgf import augment, pipeline, tensor
from ivgf.gradcheck import FD_EPS, finite_diff_pair
from ivgf.rng import RngState
from ivgf.tensor import Tensor, named_gradients, no_grad


def relu_naive(a):
    out = np.array(a, dtype=np.float64, copy=True)
    flat = out.reshape(-1)
    for i in range(flat.size):
        if flat[i] < 0.0:
            flat[i] = 0.0
    return out


def sigmoid_naive(a):
    out = np.zeros_like(np.asarray(a, dtype=np.float64))
    flat_in = np.asarray(a, dtype=np.float64).reshape(-1)
    flat_out = out.reshape(-1)
    for i in range(flat_in.size):
        flat_out[i] = 1.0 / (1.0 + math.exp(-flat_in[i]))
    return out


def sigmoid_masked(a):
    """The two-branch masked sigmoid: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) elsewhere."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    pos = a >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def conv2d_naive(x, w, b, stride=1, padding=0):
    c_out, c_in, k, _ = w.shape
    _, h, w_in = x.shape
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w_in + 2 * padding - k) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for co in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                acc = b[co]
                for ci in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            r = i * stride + di - padding
                            c = j * stride + dj - padding
                            if 0 <= r < h and 0 <= c < w_in:
                                acc += x[ci, r, c] * w[co, ci, di, dj]
                out[co, i, j] = acc
    return out


def linear_naive(x, w, b):
    n, d_in = x.shape
    d_out = w.shape[0]
    out = np.zeros((n, d_out))
    for i in range(n):
        for o in range(d_out):
            acc = b[o]
            for j in range(d_in):
                acc += x[i, j] * w[o, j]
            out[i, o] = acc
    return out


def layer_norm_naive(x, gamma, beta, eps=1e-5):
    n, c = x.shape
    out = np.zeros_like(x)
    for i in range(n):
        mu = 0.0
        for j in range(c):
            mu += x[i, j]
        mu /= c
        var = 0.0
        for j in range(c):
            var += (x[i, j] - mu) ** 2
        var /= c
        std = math.sqrt(var + eps)
        for j in range(c):
            out[i, j] = (x[i, j] - mu) / std * gamma[j] + beta[j]
    return out


def softmax_naive(x):
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    for i in range(x.shape[0]):
        m = max(x[i])
        exps = [math.exp(v - m) for v in x[i]]
        total = sum(exps)
        for j, e in enumerate(exps):
            out[i, j] = e / total
    return out


def pool_bins(length, out):
    return [(math.floor(i * length / out), math.ceil((i + 1) * length / out)) for i in range(out)]


def adaptive_pool2d_naive(x, mode, oh, ow):
    c, h, w = x.shape
    out = np.zeros((c, oh, ow))
    for ch in range(c):
        for i, (r0, r1) in enumerate(pool_bins(h, oh)):
            for j, (c0, c1) in enumerate(pool_bins(w, ow)):
                values = [x[ch, r, cc] for r in range(r0, r1) for cc in range(c0, c1)]
                out[ch, i, j] = (sum(values) / len(values)) if mode == "avg" else max(values)
    return out


def adaptive_pool_rows_naive(x, mode, width):
    n, c = x.shape
    out = np.zeros((n, width))
    for i in range(n):
        for j, (c0, c1) in enumerate(pool_bins(c, width)):
            values = [x[i, cc] for cc in range(c0, c1)]
            out[i, j] = (sum(values) / len(values)) if mode == "avg" else max(values)
    return out


# -- fusion blocks, composed from the pieces above -----------------------------


def spatial_attention_naive(f, pair):
    hidden = relu_naive(conv2d_naive(f, pair.w1.data, pair.b1.data))
    return sigmoid_naive(conv2d_naive(hidden, pair.w2.data, pair.b2.data))


def channel_weights_naive(f, pair):
    c = f.shape[0]
    desc = np.zeros((1, 2 * c))
    for ch in range(c):
        values = [f[ch, r, cc] for r in range(f.shape[1]) for cc in range(f.shape[2])]
        desc[0, ch] = sum(values) / len(values)
        desc[0, c + ch] = max(values)
    hidden = relu_naive(linear_naive(desc, pair.w1.data, pair.b1.data))
    return sigmoid_naive(linear_naive(hidden, pair.w2.data, pair.b2.data)).reshape(c, 1, 1)


def cross_spatial_naive(fx, fy, px, py):
    w_sx = spatial_attention_naive(fx, px)
    w_sy = spatial_attention_naive(fy, py)
    return fx + fy * w_sy, fy + fx * w_sx


def fem_naive(fx, fy, fem):
    if fem.mode == "parallel":
        sxy, syx = cross_spatial_naive(fx, fy, fem.spatial_x, fem.spatial_y)
        return (
            sxy + fx * channel_weights_naive(fx, fem.channel_x),
            syx + fy * channel_weights_naive(fy, fem.channel_y),
        )
    if fem.mode == "serial":
        sxy, syx = cross_spatial_naive(fx, fy, fem.spatial_x, fem.spatial_y)
        return (
            sxy + sxy * channel_weights_naive(sxy, fem.channel_x),
            syx + syx * channel_weights_naive(syx, fem.channel_y),
        )
    if fem.mode == "channel_only":
        return (
            fx + fx * channel_weights_naive(fx, fem.channel_x),
            fy + fy * channel_weights_naive(fy, fem.channel_y),
        )
    if fem.mode == "spatial_only":
        return cross_spatial_naive(fx, fy, fem.spatial_x, fem.spatial_y)
    raise ValueError(fem.mode)


def tem_naive(tx, ty, tem):
    n, c = tx.shape
    merged = np.zeros((n, 2 * c))
    merged[:, :c] = tx
    merged[:, c:] = ty
    normed = layer_norm_naive(merged, tem.ln_gamma.data, tem.ln_beta.data)
    phi = linear_naive(normed, tem.reduce_w.data, tem.reduce_b.data)
    if tem.adapters:
        router = softmax_naive(linear_naive(phi, tem.router_w.data, tem.router_b.data))
        refined = phi.copy()
        for k, ad in enumerate(tem.adapters):
            hidden = relu_naive(linear_naive(phi, ad.w1.data, ad.b1.data))
            delta = linear_naive(hidden, ad.w2.data, ad.b2.data)
            for i in range(n):
                refined[i] += delta[i] * router[i, k]
        phi = refined
    prompts = sigmoid_naive(adaptive_pool_rows_naive(phi, "avg", 2))
    out_x = np.zeros_like(tx)
    out_y = np.zeros_like(ty)
    for i in range(n):
        out_x[i] = tx[i] * prompts[i, 0]
        out_y[i] = ty[i] * prompts[i, 1]
    return out_x, out_y


def tokens_naive(fmap):
    c, h, w = fmap.shape
    out = np.zeros((h * w, c))
    for i in range(h):
        for j in range(w):
            for ch in range(c):
                out[i * w + j, ch] = fmap[ch, i, j]
    return out


def cross_attention_naive(q_src, kv_src, proj, heads):
    tq = q_src.T.copy()
    tkv = kv_src.T.copy()
    q = linear_naive(tq, proj.q_w.data, proj.q_b.data)
    k = linear_naive(tkv, proj.k_w.data, proj.k_b.data)
    v = linear_naive(tkv, proj.v_w.data, proj.v_b.data)
    return attention_naive(q, k, v, heads)


def attention_naive(q, k, v, heads):
    n, c = q.shape
    m = k.shape[0]
    d = c // heads
    out = np.zeros((n, c))
    for h in range(heads):
        qh = q[:, h * d : (h + 1) * d]
        kh = k[:, h * d : (h + 1) * d]
        vh = v[:, h * d : (h + 1) * d]
        scores = np.zeros((n, m))
        for i in range(n):
            for j in range(m):
                scores[i, j] = sum(qh[i, t] * kh[j, t] for t in range(d)) / math.sqrt(d)
        attn = softmax_naive(scores)
        for i in range(n):
            for t in range(d):
                out[i, h * d + t] = sum(attn[i, j] * vh[j, t] for j in range(m))
    return out


def agf_naive(fx, fy, agf):
    c, h, w = fx.shape
    rx = fx.reshape(c, h * w)
    ry = fy.reshape(c, h * w)
    a_xy = cross_attention_naive(rx, ry, agf.xy, agf.heads)
    a_yx = cross_attention_naive(ry, rx, agf.yx, agf.heads)
    stacked = np.zeros((2 * c, h, w))
    stacked[:c] = a_xy.T.reshape(c, h, w)
    stacked[c:] = a_yx.T.reshape(c, h, w)
    merged = relu_naive(conv2d_naive(stacked, agf.merge_a_w.data, agf.merge_a_b.data))
    merged = conv2d_naive(merged, agf.merge_b_w.data, agf.merge_b_b.data)
    return conv2d_naive(merged, agf.merge_c_w.data, agf.merge_c_b.data, padding=1)


# -- the batch axis: each single-item oracle looped over the items ---------------


def conv2d_batch_naive(x, w, b, stride=1, padding=0):
    return np.stack([conv2d_naive(item, w, b, stride, padding) for item in x])


def tokens_batch_naive(stack):
    """[B,C,H,W] -> [B*H*W, C]: item after item, positions in row-major order."""
    return np.concatenate([tokens_naive(item) for item in stack])


def feature_map_batch_naive(rows, items, h, w):
    """[B*H*W, C] -> [B,C,H,W], the inverse of tokens_batch_naive."""
    c = rows.shape[1]
    out = np.zeros((items, c, h, w))
    for b in range(items):
        for i in range(h):
            for j in range(w):
                for ch in range(c):
                    out[b, ch, i, j] = rows[(b * h + i) * w + j, ch]
    return out


def attention_items_naive(q, k, v, heads, items):
    """Block b of q attends only to block b of k and v."""
    n, m = q.shape[0] // items, k.shape[0] // items
    return np.concatenate([
        attention_naive(q[b * n : (b + 1) * n], k[b * m : (b + 1) * m], v[b * m : (b + 1) * m], heads)
        for b in range(items)
    ])


def upsample_nearest_naive(x, factor):
    """[..., H, W] -> [..., H*f, W*f] with out[..., i, j] = x[..., i // f, j // f]."""
    lead, (h, w) = x.shape[:-2], x.shape[-2:]
    flat = x.reshape(-1, h, w)
    out = np.zeros((flat.shape[0], h * factor, w * factor))
    for p in range(flat.shape[0]):
        for i in range(h * factor):
            for j in range(w * factor):
                out[p, i, j] = flat[p, i // factor, j // factor]
    return out.reshape(lead + (h * factor, w * factor))


def adaptive_pool2d_batch_naive(x, mode):
    """Global pooling of every item of a [B,C,H,W] stack to [B,C,1,1]."""
    return np.stack([adaptive_pool2d_naive(item, mode, 1, 1) for item in x])


def cross_entropy_naive(logits, mask, ignore=255):
    """Mean over items of each item's mean of -log softmax at the true class over non-ignored pixels.

    [K,H,W] logits with an [H,W] mask are one item.
    """
    if logits.ndim == 3:
        logits, mask = logits[None], mask[None]
    per_item = []
    for item_logits, item_mask in zip(logits, mask):
        k, h, w = item_logits.shape
        total, count = 0.0, 0
        for i in range(h):
            for j in range(w):
                t = int(item_mask[i, j])
                if t == ignore:
                    continue
                m = max(item_logits[:, i, j])
                log_sum = math.log(sum(math.exp(item_logits[c, i, j] - m) for c in range(k)))
                total += -(item_logits[t, i, j] - m - log_sum)
                count += 1
        per_item.append(total / count)
    return sum(per_item) / len(per_item)


def fill_uniform_oneshot(seed, counter, shape, lo, hi):
    """`RngState.fill_uniform` as one whole-size draw: every splitmix64 word of the stream at once."""
    n = math.prod(shape)
    z = np.uint64(seed) + np.uint64(0x9E3779B97F4A7C15) * np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return (lo + (hi - lo) * u).reshape(shape)


def finite_diff_grad(f, x, eps=1e-5):
    """Central differences of a scalar function f(x) of a Tensor x, element by element."""
    if eps <= 0:
        raise ValueError(f"finite_diff_grad eps must be > 0, got {eps}")
    grad = np.zeros(x.size)
    for i in range(x.size):
        f_plus, f_minus = finite_diff_pair(f, x, i, eps)
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad.reshape(x.shape)


def max_rel_error(a, b, floor=1e-3):
    """Largest elementwise |a-b| / max(|a|, |b|, floor); 0 for empty arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_entries_naive(loss_fn, tensors, entries, tolerance, kinks=None):
    """The gradient check's scoring one entry at a time, with scalar errors.

    Central difference per entry; where the one-sided slopes disagree by
    more than the tolerance, the closest of central, right and left to the
    tape entry (the first on a tie), and "name[i]" is appended to `kinks`
    when given. A NaN error counts as infinite. Returns (worst error,
    "name[i]") of the first entry with the largest error, or (0.0, "-");
    a loss that is not finite returns (inf, "loss (non-finite)").
    """
    loss = loss_fn()
    f0 = loss.item()
    if not math.isfinite(f0):
        return math.inf, "loss (non-finite)"
    grads = named_gradients(loss, tensors)
    del loss

    def value(_):
        with no_grad():
            return loss_fn().item()

    worst_err, worst_name = 0.0, "-"
    for name, idxs in entries.items():
        analytic = grads[name].reshape(-1)
        for i in sorted(idxs):
            f_plus, f_minus = finite_diff_pair(value, tensors[name], i, FD_EPS)
            numeric = (f_plus - f_minus) / (2.0 * FD_EPS)
            right, left = (f_plus - f0) / FD_EPS, (f0 - f_minus) / FD_EPS
            if max_rel_error(right, left) > tolerance:
                if kinks is not None:
                    kinks.append(f"{name}[{i}]")
                numeric = min((numeric, right, left), key=lambda d: abs(d - analytic[i]))
            err = max_rel_error(analytic[i], numeric)
            if math.isnan(err):
                err = math.inf
            if err > worst_err:
                worst_err, worst_name = err, f"{name}[{i}]"
    return worst_err, worst_name


FAULTS = {
    "negate": np.negative,
    "zero": np.zeros_like,
    "nan": lambda g: np.full_like(g, np.nan),
}


def inject_fault(monkeypatch, op, transform):
    """Make every `op` node built under this patch pass transform(g) for each parent gradient g.

    This simulates a bug in one kernel's backward (see FAULTS), which the
    gradient checks must catch. It wraps `_node` where kernels look it up:
    in tensor, and in pipeline, which imports it by name for cross_entropy.
    """
    make_node = tensor._node

    def faulty_node(data, node_op, parents, backward_fn):
        if node_op == op and backward_fn is not None:
            correct = backward_fn

            def backward_fn(g):
                return tuple(None if pg is None else transform(pg) for pg in correct(g))

        return make_node(data, node_op, parents, backward_fn)

    for module in (tensor, pipeline):
        monkeypatch.setattr(module, "_node", faulty_node)


def traced_peak(fn):
    """Run fn under tracemalloc; return (fn's result, peak bytes, bytes still held when it returned).

    Only allocations made inside fn count: memory that existed before it
    (the parameters, a tape built earlier) adds nothing, even when fn frees it.
    """
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def pack(store):
    """Move every parameter of the store into one contiguous float64 arena and return it.

    Each parameter's .data becomes its view into the arena, so whatever
    writes .data in place writes the arena.
    """
    arena, offset = np.empty(sum(p.data.size for _, p in store.items())), 0
    for _, p in store.items():
        view = arena[offset : offset + p.data.size].reshape(p.data.shape)
        view[...] = p.data
        p.data, offset = view, offset + view.size
    return arena


class ArenaAdamW:
    """AdamW as one update over whole arenas, after the whole backward pass.

    It packs the parameters into one arena, copies every gradient into a
    gradient arena laid out like it, and then makes pipeline.AdamW's 16
    ufunc passes over all four arenas in chunks of pipeline.ADAMW_CHUNK.
    """

    def __init__(self, store, lr, weight_decay=0.0):
        self.store = store
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.param_arena = pack(store)
        self.grad_arena = np.zeros(self.param_arena.shape)
        self.grads, offset = {}, 0
        for name, p in store.items():
            self.grads[name] = self.grad_arena[offset : offset + p.size].reshape(p.shape)
            offset += p.size
        self.m = np.zeros(self.param_arena.shape)
        self.v = np.zeros(self.param_arena.shape)

    def step(self, grads):
        for name, view in self.grads.items():
            view[...] = grads[name]
        self.t += 1
        b1, b2, eps, lr = pipeline.ADAMW_BETA1, pipeline.ADAMW_BETA2, pipeline.ADAMW_EPS, self.lr
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        decay = lr * self.weight_decay
        chunk = pipeline.ADAMW_CHUNK
        u, w = np.empty(chunk), np.empty(chunk)
        for lo in range(0, self.param_arena.size, chunk):
            hi = lo + chunk
            p, g, m, v = self.param_arena[lo:hi], self.grad_arena[lo:hi], self.m[lo:hi], self.v[lo:hi]
            u_, w_ = u[: p.size], w[: p.size]
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=u_)
            np.add(m, u_, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=u_)
            np.multiply(u_, g, out=u_)
            np.add(v, u_, out=v)
            np.divide(v, bc2, out=u_)
            np.sqrt(u_, out=u_)
            np.add(u_, eps, out=u_)
            np.divide(m, bc1, out=w_)
            np.divide(w_, u_, out=u_)
            np.multiply(p, decay, out=w_)
            np.multiply(u_, lr, out=u_)
            np.subtract(p, u_, out=p)
            np.subtract(p, w_, out=p)


def train_toy_arena(cfg, steps, seed):
    """pipeline.train_toy with each step's whole backward first, then one ArenaAdamW step."""
    model = pipeline.build_model(cfg, seed)
    scenes = pipeline.make_dataset(seed, "train", cfg.data_train_scenes, cfg.data_image_size, cfg.head_classes)
    optimizer = ArenaAdamW(model.store, lr=cfg.train_lr, weight_decay=cfg.train_weight_decay)
    root = RngState(seed)
    order_rng = root.derive("data", "order")
    losses = []
    for step in range(steps):
        batch = [scenes[order_rng.randint(len(scenes))] for _ in range(cfg.train_batch_size)]
        aug_rng = root.derive("augment", step)
        pairs = [scene.images for scene in batch]
        if cfg.aug_enabled:
            pairs = [augment.cma_apply(ir, vis, cfg, aug_rng.derive(slot))[:2] for slot, (ir, vis) in enumerate(pairs)]
        ir, vis = (Tensor(np.stack([pair[i].data for pair in pairs])) for i in (0, 1))
        logits = pipeline.model_forward(model, ir, vis)[1]
        loss = pipeline.cross_entropy(logits, np.stack([scene.mask for scene in batch]))
        losses.append(loss.item())
        optimizer.step(named_gradients(loss, dict(model.store.items())))
    return model, losses
