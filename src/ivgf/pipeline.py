"""Segmentation head, loss, mIoU, synthetic paired scenes, training, eval.

The head is a deliberately small multi-scale sum head: every fused scale is
projected to a common width, upsampled to the /4 grid, summed, classified
with a 1x1 conv and upsampled to full resolution. The synthetic dataset
places rectangles that are bright in only one modality (or in both), so
telling the classes apart genuinely requires looking at both inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import augment, backbone
from . import params as P
from .errors import DetachedParameterError, DimensionError, FormatError, NonFiniteError
from .io_formats import IGNORE_LABEL, Config
from .rng import RngState
from .tensor import (
    Tensor,
    _node,
    conv2d,
    named_gradients,
    no_grad,
    recorded,
    relu,
    trace,
    upsample_nearest,
)


# -- segmentation head ---------------------------------------------------------


@dataclass
class SegHead:
    projections: list  # one 1x1 conv per scale, C_i -> head.width
    classifier: backbone.Conv  # 1x1, head.width -> head.classes


def build_head(store: P.ParamStore, rng: RngState, cfg: Config) -> SegHead:
    width = cfg.head_width
    projections = [backbone.build_conv(store, rng, f"head.proj{i + 1}", c, width, 1)
                   for i, c in enumerate(cfg.widths())]
    classifier = backbone.build_conv(store, rng, "head.classifier", width, cfg.head_classes, 1)
    return SegHead(projections=projections, classifier=classifier)


def seg_forward(feats: backbone.MultiScaleFeatures, head: SegHead) -> Tensor:
    """Per-pixel class logits at input resolution."""
    total = None
    for i, fused in enumerate(feats.fused):
        proj = conv2d(fused, head.projections[i].w, head.projections[i].b)
        if i > 0:
            proj = upsample_nearest(proj, 2**i)
        total = proj if total is None else total + proj
    logits = conv2d(relu(total), head.classifier.w, head.classifier.b)
    return upsample_nearest(logits, 4)


# -- loss ------------------------------------------------------------------------


@recorded
def cross_entropy(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over pixels not labelled IGNORE_LABEL of -log softmax at the true class.

    [B,K,H,W] logits with [B,H,W] masks give the mean over the B items of
    each item's own mean, ((l_0 + l_1) + ...) / B; [K,H,W] logits with an
    [H,W] mask are the B = 1 case.
    """
    mask = np.asarray(mask)
    if logits.ndim not in (3, 4) or mask.shape != logits.shape[:-3] + logits.shape[-2:]:
        raise DimensionError(f"mask shape {mask.shape} does not match logits {logits.shape}")
    k = logits.shape[-3]
    masks = mask.reshape(-1, mask.shape[-2] * mask.shape[-1])  # [B, H*W]
    b = masks.shape[0]
    valid = masks != IGNORE_LABEL
    counts = valid.sum(axis=1)
    for item, ids in enumerate(masks):
        if counts[item] == 0:
            raise FormatError(f"cross_entropy undefined for batch item {item}: every pixel carries the ignore label")
        bad = ids[valid[item] & ((ids < 0) | (ids >= k))]
        if bad.size:
            raise FormatError(f"batch item {item}: mask ids must be in [0,{k}) or {IGNORE_LABEL}, got {int(bad[0])}")
    keep = valid.reshape(-1)
    targets = masks.reshape(-1)[keep]
    n_valid = targets.size

    # [K, n_valid], item by item in batch order
    cols = logits.data.reshape(b, k, -1).transpose(1, 0, 2).reshape(k, -1)[:, keep]
    z = cols - cols.max(axis=0, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=0, keepdims=True))
    picked = logp[targets, np.arange(n_valid)]
    ends = np.cumsum(counts)
    loss = -picked[: ends[0]].mean()
    for lo, hi in zip(ends[:-1], ends[1:]):
        loss = loss + -picked[lo:hi].mean()
    loss = loss * (1.0 / b)

    def back(g):
        scale = float(g.reshape(())) * (1.0 / b) / counts  # per item
        grad_cols = np.exp(logp)
        grad_cols[targets, np.arange(n_valid)] -= 1.0
        grad_cols *= np.repeat(scale, counts)
        grad = np.zeros((k, keep.size))
        grad[:, keep] = grad_cols
        return (np.ascontiguousarray(grad.reshape(k, b, -1).transpose(1, 0, 2)).reshape(logits.shape),)

    return _node(np.asarray(loss), "cross_entropy", (logits,), back)


# -- metric ----------------------------------------------------------------------


class ConfusionMatrix:
    """K x K counts, rows = ground truth, cols = prediction."""

    def __init__(self, classes: int):
        self.classes = classes
        self.counts = np.zeros((classes, classes), dtype=np.int64)

    def update(self, truth: np.ndarray, pred: np.ndarray):
        """Count every pixel whose truth is not IGNORE_LABEL."""
        truth = np.asarray(truth).reshape(-1)
        pred = np.asarray(pred).reshape(-1)
        if truth.shape != pred.shape:
            raise DimensionError(f"truth/prediction sizes differ: {truth.shape} vs {pred.shape}")
        keep = truth != IGNORE_LABEL
        truth, pred = truth[keep], pred[keep]
        for name, ids in (("truth", truth), ("prediction", pred)):
            bad = ids[(ids < 0) | (ids >= self.classes)]
            if bad.size:
                raise FormatError(f"{name} ids must lie in [0,{self.classes}), got {int(bad[0])}")
        idx = truth * self.classes + pred
        self.counts += np.bincount(idx, minlength=self.classes**2).reshape(self.classes, self.classes)


def miou(cm: ConfusionMatrix):
    """Mean IoU over classes with nonzero union; also the per-class list.

    Classes absent from both truth and prediction get IoU None and do not
    count toward the mean.
    """
    counts = cm.counts
    diag = np.diag(counts).astype(np.float64)
    union = counts.sum(axis=1) + counts.sum(axis=0) - np.diag(counts)
    per_class = []
    valid = []
    for k in range(cm.classes):
        if union[k] == 0:
            per_class.append(None)
        else:
            iou = diag[k] / union[k]
            per_class.append(iou)
            valid.append(iou)
    if not valid:
        raise DimensionError("mIoU undefined: every class has an empty union")
    return float(np.mean(valid)), per_class


# -- synthetic paired scenes -------------------------------------------------------


@dataclass
class SyntheticScene:
    ir: Tensor  # [3,H,W] in [0,1]
    vis: Tensor
    mask: np.ndarray  # [H,W] class ids

    @property
    def images(self):
        return self.ir, self.vis


# class semantics: 0 background; 1 visible only in ir; 2 only in vis; 3 in both.
# Classes 1 and 3 look identical in the ir image, classes 2 and 3 look
# identical in the vis image, so separating them needs both modalities.
def make_scene(rng: RngState, size: int, classes: int) -> SyntheticScene:
    ir = np.empty((3, size, size))
    vis = np.empty((3, size, size))
    ir[:] = rng.uniform_in(0.10, 0.22) + rng.fill_uniform((size, size), -0.03, 0.03)
    vis[:] = rng.fill_uniform((3, 1, 1), 0.10, 0.25) + rng.fill_uniform((size, size), -0.03, 0.03)
    mask = np.zeros((size, size), dtype=np.int64)

    lo, hi = max(size // 6, 4), max(size // 3, 6)
    for cls in range(1, classes):
        rh = lo + rng.randint(hi - lo)
        rw = lo + rng.randint(hi - lo)
        r0 = rng.randint(size - rh)
        c0 = rng.randint(size - rw)
        box = (slice(r0, r0 + rh), slice(c0, c0 + rw))
        mask[box] = cls
        hot = rng.uniform_in(0.70, 0.92)
        tint = rng.fill_uniform((3, 1, 1), 0.65, 0.95)
        if cls in (1, 3):  # warm in the ir image
            ir[(slice(None),) + box] = hot + rng.fill_uniform((rh, rw), -0.04, 0.04)
        if cls in (2, 3):  # bright in the vis image
            vis[(slice(None),) + box] = tint + rng.fill_uniform((rh, rw), -0.04, 0.04)
    np.clip(ir, 0.0, 1.0, out=ir)
    np.clip(vis, 0.0, 1.0, out=vis)
    return SyntheticScene(ir=Tensor(ir), vis=Tensor(vis), mask=mask)


def make_dataset(seed: int, split: str, count: int, size: int, classes: int):
    root = RngState(seed)
    return [make_scene(root.derive("data", split, i), size, classes) for i in range(count)]


# -- optimizer ---------------------------------------------------------------------


# Values per chunk of the AdamW update. The update is memory-bound: a chunk
# of a gradient, its three arena slices and two scratch buffers (6 x 32 k
# float64, 1.5 MB) stay in cache through its 16 ufunc passes. On toy.cfg
# 16 k-64 k measured best, and 4 k or 128 k about 50% slower; the cache, not
# the model, sets the best size, so it is a constant.
ADAMW_CHUNK = 32768
# Moment decay rates and the denominator's guard, as in Loshchilov & Hutter.
ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.999
ADAMW_EPS = 1e-8


class AdamW:
    """Adaptive moments with decoupled weight decay (Loshchilov & Hutter, ICLR 2019).

    Building it packs the store's parameters into one contiguous arena
    (every .data becomes a view into it) and lays out the two moment
    arenas like it. A training step calls `begin_step` once, then `step`
    with each gradient as soon as backward completes it.
    """

    def __init__(self, store: P.ParamStore, lr: float, weight_decay: float = 0.0):
        self.store = store
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.param_arena = store.pack()
        # np.zeros, not zeros_like: calloc'd pages are zeroed on first touch, in the first step, not here
        self.m = np.zeros(self.param_arena.shape)
        self.v = np.zeros(self.param_arena.shape)
        # name -> (the view its .data must still be, its flat slices of the three arenas)
        self._slots, lo = {}, 0
        for name, p in store.items():
            self._slots[name] = (p.data, *(a[lo : lo + p.size] for a in (self.param_arena, self.m, self.v)))
            lo += p.size
        self._scratch = (np.empty(ADAMW_CHUNK), np.empty(ADAMW_CHUNK))

    def begin_step(self):
        """Advance t, and with it the bias corrections: once per training step, before its gradients."""
        self.t += 1

    def step(self, grads: dict):
        """Update exactly the parameters named in {name: gradient}; every name, shape and view is checked first."""
        if not self.t:
            raise RuntimeError("AdamW.step before the first begin_step")
        updates = []
        for name, g in grads.items():
            if name not in self._slots:
                raise DimensionError(f"AdamW got a gradient for {name!r}, which is not one of its parameters")
            data, *arenas = self._slots[name]
            if self.store[name].data is not data:
                raise DetachedParameterError(f"parameter {name!r} was rebound after AdamW packed it; write in place")
            if g.shape != data.shape:
                raise DimensionError(f"gradient for {name!r} has shape {g.shape}, the parameter {data.shape}")
            updates.append((g.reshape(-1), *arenas))
        b1, b2, eps, lr = ADAMW_BETA1, ADAMW_BETA2, ADAMW_EPS, self.lr
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        decay = lr * self.weight_decay
        for grad, params, m_all, v_all in updates:
            for lo in range(0, grad.size, ADAMW_CHUNK):
                hi = lo + ADAMW_CHUNK
                p, g, m, v = params[lo:hi], grad[lo:hi], m_all[lo:hi], v_all[lo:hi]
                u, w = (s[: p.size] for s in self._scratch)
                # m = b1*m + (1-b1)*g
                np.multiply(m, b1, out=m)
                np.multiply(g, 1.0 - b1, out=u)
                np.add(m, u, out=m)
                # v = b2*v + ((1-b2)*g)*g
                np.multiply(v, b2, out=v)
                np.multiply(g, 1.0 - b2, out=u)
                np.multiply(u, g, out=u)
                np.add(v, u, out=v)
                # u = (m/bc1) / (sqrt(v/bc2) + eps)
                np.divide(v, bc2, out=u)
                np.sqrt(u, out=u)
                np.add(u, eps, out=u)
                np.divide(m, bc1, out=w)
                np.divide(w, u, out=u)
                # p = (p - lr*u) - (lr*wd)*p
                np.multiply(p, decay, out=w)
                np.multiply(u, lr, out=u)
                np.subtract(p, u, out=p)
                np.subtract(p, w, out=p)


# -- model wiring -------------------------------------------------------------------


@dataclass
class Model:
    config: Config
    store: P.ParamStore
    encoder: backbone.BackboneParams
    head: SegHead


def build_model(cfg: Config, seed: int) -> Model:
    store = P.ParamStore()
    rng = RngState(seed)
    enc = backbone.build_backbone(store, rng, cfg)
    head = build_head(store, rng, cfg)
    return Model(config=cfg, store=store, encoder=enc, head=head)


def model_forward(model: Model, ir: Tensor, vis: Tensor, missing: str = "none"):
    ir, vis = backbone.substitute_missing(ir, vis, missing)
    feats = backbone.encoder_forward(ir, vis, model.encoder)
    return feats, seg_forward(feats, model.head)


def _first_non_finite(loss: Tensor) -> str:
    for node in trace(loss).nodes:
        if not np.all(np.isfinite(node.data)):
            return f"{node.op} (node #{node._seq})"
    return "loss"


def train_step(model: Model, batch, optimizer: AdamW, aug_cfg: Config, aug_rng: RngState) -> float:
    """One optimizer update over a batch of scenes; returns the batch loss.

    The augmented scenes run as one [B,3,H,W] stack: one graph, one loss
    (the mean of the per-scene losses) and one backward pass.
    """
    irs, viss = [], []
    for slot, scene in enumerate(batch):
        ir, vis = scene.images
        if aug_cfg.aug_enabled:
            ir, vis, _ = augment.cma_apply(ir, vis, aug_cfg, aug_rng.derive(slot))
        irs.append(ir.data)
        viss.append(vis.data)
    logits = model_forward(model, Tensor(np.stack(irs)), Tensor(np.stack(viss)))[1]
    loss = cross_entropy(logits, np.stack([scene.mask for scene in batch]))
    del logits  # the loss alone holds the tape
    value = loss.item()
    if not np.isfinite(value):
        raise NonFiniteError(f"training loss went non-finite; first bad tensor: {_first_non_finite(loss)}")
    optimizer.begin_step()  # then each parameter is updated as soon as its gradient is complete
    named_gradients(loss, dict(model.store.items()), on_ready=lambda name, g: optimizer.step({name: g}))
    return value


def aug_config_from(cfg: Config) -> Config:
    """The config itself, which holds the aug.* settings; only the benchmark still calls this."""
    return cfg


def train_toy(cfg: Config, steps: int, seed: int):
    """Train on the fixed synthetic task; returns (model, per-step losses)."""
    model = build_model(cfg, seed)
    scenes = make_dataset(seed, "train", cfg.data_train_scenes, cfg.data_image_size, cfg.head_classes)
    optimizer = AdamW(model.store, lr=cfg.train_lr, weight_decay=cfg.train_weight_decay)
    root = RngState(seed)
    order_rng = root.derive("data", "order")
    losses = []
    for step in range(steps):
        batch = [scenes[order_rng.randint(len(scenes))] for _ in range(cfg.train_batch_size)]
        aug_rng = root.derive("augment", step)
        losses.append(train_step(model, batch, optimizer, cfg, aug_rng))
    return model, losses


# -- evaluation ---------------------------------------------------------------------


def predict(model: Model, ir: Tensor, vis: Tensor, missing: str = "none") -> np.ndarray:
    with no_grad():  # forward only: each intermediate is freed once consumed
        _, logits = model_forward(model, ir, vis, missing)
    # argmax over classes; ties resolve to the lowest class id
    return logits.data.argmax(axis=0)


def evaluate(dataset, model: Model, missing: str = "none"):
    """Accumulate a confusion matrix over the dataset and report IoU."""
    if not dataset:
        raise DimensionError("cannot evaluate an empty dataset")
    cm = ConfusionMatrix(model.config.head_classes)
    for scene in dataset:
        pred = predict(model, scene.ir, scene.vis, missing)
        cm.update(scene.mask, pred)
    overall, per_class = miou(cm)
    return {"miou": overall, "per_class": per_class, "confusion": cm}


def report_csv(report) -> str:
    lines = ["class_id,iou"]
    for k, iou in enumerate(report["per_class"]):
        lines.append(f"{k},{'nan' if iou is None else repr(iou)}")
    lines.append(f"miou,{report['miou']!r}")
    return "\n".join(lines) + "\n"


def report_text(report) -> str:
    lines = ["class   iou", "-----   ---"]
    for k, iou in enumerate(report["per_class"]):
        lines.append(f"{k:<7} {'undefined' if iou is None else format(iou, '.6f')}")
    lines.append(f"mIoU    {report['miou']:.6f}")
    return "\n".join(lines) + "\n"
