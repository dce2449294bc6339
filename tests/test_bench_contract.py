"""The program names and calls the benchmark under bench/ relies on.

The benchmark wraps functions by their "<module>.<attribute path>" names
(bench/tracing.py) and its worker calls a few entry points directly. These
tests read bench/ without changing it, so a refactor that would break a
traced benchmark run fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

# every module a wrapped function lives in, as the benchmark worker loads them
from ivgf import augment, backbone, fusion, gradcheck, io_formats, pipeline, tensor  # noqa: F401
from ivgf.rng import RngState

BENCH = Path(__file__).resolve().parent.parent / "bench"
TINY = io_formats.Config(backbone_base_width=8, head_width=8, head_classes=3, data_image_size=32)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_function(tracing):
    assert tracing.WRAPPED
    for name in tracing.WRAPPED:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"ivgf.{module_name}")
        for attr in path:
            owner = getattr(owner, attr)
        assert callable(owner), name


def test_installed_tracer_records_the_wrapped_calls_and_uninstalls(tracing):
    build_model, check_fem = pipeline.build_model, gradcheck.check_fem
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("op"):
            pipeline.build_model(TINY, 0)
            gradcheck.check_fem(0, 1)
    finally:
        tracer.uninstall()
    assert pipeline.build_model is build_model and gradcheck.check_fem is check_fem
    assert not tracer.nesting_faults()
    calls, _ = tracer.summary("op")
    assert calls["pipeline.build_model"] == 1 and calls["gradcheck.check_fem"] == 1


def test_worker_entry_points(tmp_path):
    cfg = TINY
    aug_cfg = pipeline.aug_config_from(cfg)

    model = pipeline.build_model(cfg, 0)
    optimizer = pipeline.AdamW(model.store, lr=cfg.train_lr, weight_decay=cfg.train_weight_decay)
    batch = pipeline.make_dataset(0, "train", 2, cfg.data_image_size, cfg.head_classes)
    aug_rng = RngState(0).derive("augment", 0)
    loss = pipeline.train_step(model, batch, optimizer, aug_cfg, aug_rng)
    assert np.isfinite(loss)
    # the worker's gradient probe replays each slot's augmentation with this call
    ir_aug, vis_aug, record = augment.cma_apply(batch[0].ir, batch[0].vis, aug_cfg, aug_rng.derive(0))
    assert ir_aug.shape == vis_aug.shape == batch[0].ir.shape and isinstance(record, augment.AugRecord)

    ir, vis = batch[0].images
    nodes = tensor.trace(pipeline.model_forward(model, ir, vis)[1]).nodes
    assert len(nodes) > 0 and all(isinstance(node.op, str) for node in nodes)

    path = tmp_path / "model.ckpt"
    path.write_bytes(io_formats.encode_checkpoint(pipeline.build_model(cfg, 1).store))
    model.store.load_arrays(io_formats.load_checkpoint(path).arrays())

    cm = pipeline.ConfusionMatrix(cfg.head_classes)
    for mode in ("none", "ir", "vis"):
        cm.update(batch[0].mask, pipeline.predict(model, ir, vis, mode))
    assert 0.0 <= pipeline.miou(cm)[0] <= 1.0
    agf = model.encoder.agf[0]  # the worker's loop oracle reads these fields
    assert agf.heads and agf.xy.q_w is not None and agf.yx.v_b is not None and agf.merge_c_w is not None


def test_train_step_hands_each_gradient_to_the_instance_step_once():
    # the worker's train check wraps optimizer.step on the instance to take
    # every parameter's gradient of the replayed step, then checks the update
    model = pipeline.build_model(TINY, 0)
    optimizer = pipeline.AdamW(model.store, lr=TINY.train_lr, weight_decay=TINY.train_weight_decay)
    batch = pipeline.make_dataset(0, "train", 2, TINY.data_image_size, TINY.head_classes)
    shapes = [(name, p.shape) for name, p in model.store.items()]
    for step in range(2):
        seen = []

        def recording_step(grads):
            seen.extend((name, g.shape) for name, g in grads.items())
            return type(optimizer).step(optimizer, grads)

        optimizer.step = recording_step
        pipeline.train_step(model, batch, optimizer, TINY, RngState(0).derive("augment", step))
        del optimizer.step
        assert sorted(seen) == sorted(shapes)
