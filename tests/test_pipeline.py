"""Head, loss, metric, optimizer, synthetic data, and the training loop."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from ivgf import fusion, gradcheck, pipeline
from ivgf.backbone import MultiScaleFeatures
from ivgf import augment
from ivgf.errors import DetachedParameterError, DimensionError, FormatError, NonFiniteError
from ivgf.io_formats import Config, load_config
from ivgf.params import ParamStore
from ivgf.rng import RngState
from ivgf.tensor import Tensor, backward, named_gradients, trace
from oracles import finite_diff_grad, max_rel_error, traced_peak

SMALL = Config(backbone_base_width=8, head_width=8, data_image_size=32)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestSegForward:
    def _feats(self, cfg, seed, fill=None):
        rng = np.random.default_rng(seed)
        base = cfg.data_image_size // 4
        fused = []
        for i, c in enumerate(cfg.widths()):
            shape = (c, base // 2**i, base // 2**i)
            data = np.zeros(shape) if fill == "zero" else rng.uniform(-1, 1, shape)
            fused.append(Tensor(data))
        return MultiScaleFeatures(pairs=[], fused=fused)

    def test_logit_shape_at_64(self):
        cfg = Config(backbone_base_width=8, head_width=8, head_classes=4)
        store = ParamStore()
        head = pipeline.build_head(store, RngState(0), cfg)
        logits = pipeline.seg_forward(self._feats(cfg, 1), head)
        assert logits.shape == (4, 64, 64)

    def test_zero_features_zero_biases_give_zero_logits(self):
        store = ParamStore()
        head = pipeline.build_head(store, RngState(1), SMALL)
        logits = pipeline.seg_forward(self._feats(SMALL, 2, fill="zero"), head)
        assert np.allclose(logits.data, 0.0, atol=0)

    def test_argmax_tie_breaks_to_lowest_class(self):
        logits = np.zeros((3, 2, 2))
        assert np.array_equal(logits.argmax(axis=0), np.zeros((2, 2), dtype=np.int64))


class TestCrossEntropy:
    def test_uniform_logits_give_exact_log_k(self):
        logits = Tensor(np.zeros((4, 8, 8)))
        mask = np.zeros((8, 8), dtype=np.int64)
        assert pipeline.cross_entropy(logits, mask).item() == math.log(4.0)

    def test_saturated_true_class(self):
        rng = np.random.default_rng(3)
        mask = rng.integers(0, 3, (4, 4))
        logits = np.zeros((3, 4, 4))
        for i in range(4):
            for j in range(4):
                logits[mask[i, j], i, j] = 1e4
        assert pipeline.cross_entropy(Tensor(logits), mask).item() < 1e-4

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            logits = rng.uniform(-2, 2, (2, 2, 2))
            mask = rng.integers(0, 2, (2, 2))
            loss = pipeline.cross_entropy(Tensor(logits), mask).item()
            total = 0.0
            for i in range(2):
                for j in range(2):
                    exps = [math.exp(logits[k, i, j]) for k in range(2)]
                    total += -math.log(exps[mask[i, j]] / sum(exps))
            assert abs(loss - total / 4) < 1e-12

    def test_ignore_label_excluded(self):
        logits = Tensor(np.zeros((4, 2, 2)))
        mask = np.full((2, 2), 255)
        mask[0, 0] = 2
        assert pipeline.cross_entropy(logits, mask).item() == math.log(4.0)

    def test_all_ignored_rejected(self):
        with pytest.raises(ValueError, match="ignore"):
            pipeline.cross_entropy(Tensor(np.zeros((4, 2, 2))), np.full((2, 2), 255))

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValueError):
            pipeline.cross_entropy(Tensor(np.zeros((3, 2, 2))), np.full((2, 2), 7))

    def test_every_pixel_ignored_in_one_item_is_a_format_error_naming_it(self):
        mask = np.zeros((3, 2, 2), dtype=np.int64)
        mask[1] = 255
        with pytest.raises(FormatError, match="batch item 1.*ignore"):
            pipeline.cross_entropy(Tensor(np.zeros((3, 4, 2, 2))), mask)

    def test_out_of_range_id_is_a_format_error_naming_the_item_and_id(self):
        mask = np.zeros((2, 2, 2), dtype=np.int64)
        mask[1, 0, 1] = 3
        with pytest.raises(FormatError, match=r"batch item 1: .*\[0,3\).* got 3"):
            pipeline.cross_entropy(Tensor(np.zeros((2, 3, 2, 2))), mask)
        with pytest.raises(FormatError, match="batch item 0: .* got -1"):
            pipeline.cross_entropy(Tensor(np.zeros((3, 2, 2))), np.full((2, 2), -1))

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = Tensor(rng.uniform(-5, 5, (3, 3, 3)))
            mask = rng.integers(0, 3, (3, 3))
            assert pipeline.cross_entropy(logits, mask).item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        logits = Tensor(rng.uniform(-1, 1, (3, 2, 2)), requires_grad=True)
        mask = rng.integers(0, 3, (2, 2))
        mask[0, 0] = 255
        (analytic,) = backward(pipeline.cross_entropy(logits, mask), [logits])
        numeric = finite_diff_grad(
            lambda t: pipeline.cross_entropy(t, mask).item(), logits
        )
        assert max_rel_error(analytic, numeric) <= 1e-4


class TestMiou:
    def test_perfect_prediction(self):
        cm = pipeline.ConfusionMatrix(3)
        cm.counts = np.diag([5, 9, 2]).astype(np.int64)
        overall, per_class = pipeline.miou(cm)
        assert overall == 1.0 and per_class == [1.0, 1.0, 1.0]

    def test_fully_flipped_two_class(self):
        cm = pipeline.ConfusionMatrix(2)
        cm.counts = np.array([[0, 4], [6, 0]], dtype=np.int64)
        overall, per_class = pipeline.miou(cm)
        assert overall == 0.0 and per_class == [0.0, 0.0]

    def test_fixed_example(self):
        cm = pipeline.ConfusionMatrix(2)
        cm.counts = np.array([[3, 1], [2, 4]], dtype=np.int64)
        overall, per_class = pipeline.miou(cm)
        assert per_class == [3 / 6, 4 / 7]
        assert abs(overall - (0.5 + 4 / 7) / 2) < 1e-15

    def test_empty_union_class_excluded(self):
        cm = pipeline.ConfusionMatrix(3)
        cm.counts = np.array([[4, 0, 0], [0, 2, 0], [0, 0, 0]], dtype=np.int64)
        overall, per_class = pipeline.miou(cm)
        assert per_class == [1.0, 1.0, None]
        assert overall == 1.0

    def test_all_empty_rejected(self):
        with pytest.raises(DimensionError, match="every class has an empty union"):
            pipeline.miou(pipeline.ConfusionMatrix(2))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 20, (4, 4)).astype(np.int64)
        cm = pipeline.ConfusionMatrix(4)
        cm.counts = counts
        overall, _ = pipeline.miou(cm)
        perm = rng.permutation(4)
        cm2 = pipeline.ConfusionMatrix(4)
        cm2.counts = counts[np.ix_(perm, perm)]
        overall2, _ = pipeline.miou(cm2)
        assert abs(overall - overall2) < 1e-12

    def test_update_counts_pixels_and_never_decreases(self):
        cm = pipeline.ConfusionMatrix(3)
        truth = np.array([[0, 1], [255, 2]])
        pred = np.array([[0, 2], [1, 2]])
        cm.update(truth, pred)
        assert cm.counts.sum() == 3  # ignore pixel dropped
        before = cm.counts.copy()
        cm.update(truth, pred)
        assert np.all(cm.counts >= before)

    @pytest.mark.parametrize("truth, pred, message", [
        ([-1, 0, 2], [0, 0, 1], "truth ids must lie in [0,4), got -1"),
        ([0, 7, 2], [0, 0, 1], "truth ids must lie in [0,4), got 7"),
        ([0, 1, 2], [0, -3, 9], "prediction ids must lie in [0,4), got -3"),
        ([255, 1, 2], [9, 4, 1], "prediction ids must lie in [0,4), got 4"),  # the ignored pixel's 9 is dropped
    ], ids=["truth-negative", "truth-too-large", "prediction-negative", "prediction-too-large"])
    def test_update_names_the_first_id_outside_the_classes(self, truth, pred, message):
        cm = pipeline.ConfusionMatrix(4)
        with pytest.raises(FormatError) as exc:
            cm.update(np.array(truth), np.array(pred))
        assert str(exc.value) == message
        assert not cm.counts.any()


class TestSyntheticScenes:
    def test_class_ids_and_coverage(self):
        scenes = pipeline.make_dataset(3, "train", 8, 64, 4)
        for scene in scenes:
            assert scene.mask.min() >= 0 and scene.mask.max() < 4
            assert len(np.unique(scene.mask)) >= 2
            assert scene.ir.shape == scene.vis.shape == (3, 64, 64)
            assert scene.ir.data.min() >= 0.0 and scene.ir.data.max() <= 1.0

    def test_determinism_per_index(self):
        a = pipeline.make_dataset(5, "eval", 4, 32, 4)
        b = pipeline.make_dataset(5, "eval", 4, 32, 4)
        for sa, sb in zip(a, b):
            assert sa.ir.data.tobytes() == sb.ir.data.tobytes()
            assert np.array_equal(sa.mask, sb.mask)

    def test_modality_exclusive_classes(self):
        # class 1 must stand out in ir but not vis; class 2 the reverse
        scene = pipeline.make_dataset(11, "train", 1, 64, 4)[0]
        mask, ir, vis = scene.mask, scene.ir.data, scene.vis.data
        bg_ir = ir[0][mask == 0].mean()
        bg_vis = vis[0][mask == 0].mean()
        if (mask == 1).any():
            assert ir[0][mask == 1].mean() > bg_ir + 0.3
            assert abs(vis[0][mask == 1].mean() - bg_vis) < 0.25
        if (mask == 2).any():
            assert vis[0][mask == 2].mean() > bg_vis + 0.3
            assert abs(ir[0][mask == 2].mean() - bg_ir) < 0.25


class TestAdamW:
    def test_zero_gradient_is_pure_decay(self):
        store = ParamStore()
        p = store.add("w", Tensor(np.array([2.0, -4.0])))
        opt = pipeline.AdamW(store, lr=0.1, weight_decay=0.5)
        opt.step({"w": np.zeros(2)})
        assert np.allclose(p.data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.5), atol=1e-15)

    def test_five_steps_match_hand_stepped_reference(self):
        store = ParamStore()
        p = store.add("w", Tensor(np.array([0.7])))
        lr, wd, b1, b2, eps = 0.05, 0.1, 0.9, 0.999, 1e-8
        opt = pipeline.AdamW(store, lr=lr, weight_decay=wd)

        ref, m, v = 0.7, 0.0, 0.0
        for t in range(1, 6):
            grad = 2.0 * (ref - 3.0)  # d/dw (w-3)^2 at the reference iterate
            opt.step({"w": np.array([2.0 * (p.data[0] - 3.0)])})
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            mhat, vhat = m / (1 - b1**t), v / (1 - b2**t)
            ref = ref - lr * mhat / (math.sqrt(vhat) + eps) - lr * wd * ref
            assert abs(p.data[0] - ref) < 1e-12

    def test_chunked_update_equals_the_per_tensor_expressions_bitwise(self, monkeypatch):
        # chunks of 5 over 7 + 4 values: both tensors straddle a chunk boundary
        monkeypatch.setattr(pipeline, "ADAMW_CHUNK", 5)
        rng = np.random.default_rng(8)
        start = {"a": rng.uniform(-1, 1, 7), "b": rng.uniform(-1, 1, (2, 2))}
        store = ParamStore()
        for name, values in start.items():
            store.add(name, Tensor(values.copy()))
        lr, wd, b1, b2, eps = 0.01, 0.05, 0.9, 0.999, 1e-8
        opt = pipeline.AdamW(store, lr=lr, weight_decay=wd)
        ref = {name: values.copy() for name, values in start.items()}
        m = {name: np.zeros_like(values) for name, values in start.items()}
        v = {name: np.zeros_like(values) for name, values in start.items()}
        for t in range(1, 4):
            grads = {name: rng.uniform(-1, 1, values.shape) for name, values in start.items()}
            opt.step(grads)
            for name, g in grads.items():
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                update = (m[name] / (1.0 - b1**t)) / (np.sqrt(v[name] / (1.0 - b2**t)) + eps)
                ref[name] = ref[name] - lr * update - lr * wd * ref[name]
                assert np.array_equal(store[name].data, ref[name])
            assert np.array_equal(opt.m, np.concatenate([m[name].ravel() for name in start]))
            assert np.array_equal(opt.v, np.concatenate([v[name].ravel() for name in start]))


class TestParameterArena:
    def test_data_and_gradients_are_arena_views_after_a_train_step(self):
        model = pipeline.build_model(SMALL, seed=0)
        opt = pipeline.AdamW(model.store, lr=1e-3, weight_decay=0.05)
        seen = {}
        step = opt.step

        def recording_step(grads):
            seen.update(grads)
            step(grads)

        opt.step = recording_step
        pipeline.train_step(model, pipeline.make_dataset(0, "train", 2, 32, 4), opt, Config(aug_enabled=False), None)
        assert set(seen) == set(dict(model.store.items()))
        for name, p in model.store.items():
            assert np.shares_memory(p.data, opt.param_arena), name
            assert np.shares_memory(seen[name], opt.grad_arena), name

    def test_checkpoint_load_and_gradcheck_randomize_write_the_arena(self):
        model = pipeline.build_model(SMALL, seed=0)
        opt = pipeline.AdamW(model.store, lr=1e-3)
        saved = pipeline.build_model(SMALL, seed=1)
        model.store.load_arrays({name: p.data for name, p in saved.store.items()})
        assert np.array_equal(opt.param_arena, np.concatenate([p.data.ravel() for p in saved.store.values()]))
        gradcheck._randomize(model.store, RngState(2))
        for name, p in model.store.items():
            assert np.shares_memory(p.data, opt.param_arena), name
        opt.step(opt.grads)  # every .data is still the view the optimizer packed

    def test_rebound_data_is_refused_by_name(self):
        store = ParamStore()
        store.add("a", Tensor(np.ones(2)))
        store.add("b", Tensor(np.ones(3)))
        opt = pipeline.AdamW(store, lr=0.1)
        store["b"].data = store["b"].data.copy()
        with pytest.raises(DetachedParameterError, match="'b'"):
            opt.step({"a": np.ones(2), "b": np.ones(3)})
        assert opt.t == 0 and np.array_equal(store["a"].data, np.ones(2))

    def test_duplicate_parameter_name_is_refused(self):
        store = ParamStore()
        store.add("a", Tensor(np.ones(2)))
        with pytest.raises(DimensionError, match="'a'"):
            store.add("a", Tensor(np.ones(3)))
        assert store["a"].data.shape == (2,)

    def test_parameter_reached_once_gets_zero_gradient_next_step(self):
        store = ParamStore()
        a = store.add("a", Tensor(np.array([1.0, 2.0])))
        b = store.add("b", Tensor(np.array([3.0])))
        opt = pipeline.AdamW(store, lr=0.1)
        params = dict(store.items())
        first = named_gradients((a * b).sum(), params, out=opt.grads)
        assert np.array_equal(first["b"], [3.0])
        opt.step(first)
        second = named_gradients(a.sum(), params, out=opt.grads)
        assert second["b"] is opt.grads["b"] and np.array_equal(second["b"], [0.0])
        assert np.array_equal(opt.grad_arena, [1.0, 1.0, 0.0])


class TestTraining:
    def test_short_run_descends_and_is_deterministic(self):
        cfg = Config(backbone_base_width=8, head_width=8, data_image_size=32,
                     data_train_scenes=8, train_lr=3e-3)
        _, losses_a = pipeline.train_toy(cfg, steps=12, seed=3)
        _, losses_b = pipeline.train_toy(cfg, steps=12, seed=3)
        assert losses_a == losses_b
        assert losses_a[-1] < losses_a[0]
        assert all(np.isfinite(losses_a))

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_one_batched_graph_equals_the_per_scene_tapes(self, size):
        """The batch runs as one [B,3,H,W] graph; per scene it is the mean of the scene losses."""
        cfg = Config(backbone_base_width=8, head_width=8, data_image_size=32, aug_p_cutmix=0.5, aug_p_cutout=0.5)
        scenes = pipeline.make_dataset(9, "train", size, 32, 4)
        aug_rng = RngState(9).derive("augment", 0)

        model = pipeline.build_model(cfg, seed=9)
        params = dict(model.store.items())
        losses = []
        for slot, scene in enumerate(scenes):
            ir, vis, _ = augment.cma_apply(scene.ir, scene.vis, cfg, aug_rng.derive(slot))
            losses.append(pipeline.cross_entropy(pipeline.model_forward(model, ir, vis)[1], scene.mask))
        per_scene = losses[0]
        for loss in losses[1:]:
            per_scene = per_scene + loss
        per_scene = per_scene * (1.0 / size)
        expected = named_gradients(per_scene, params)

        opt = pipeline.AdamW(model.store, lr=1e-3)
        captured = {}
        opt.step = lambda grads: captured.update({n: g.copy() for n, g in grads.items()})
        value = pipeline.train_step(model, scenes, opt, cfg, aug_rng)
        assert abs(value - per_scene.item()) <= 1e-12 * abs(per_scene.item())
        assert captured.keys() == expected.keys()
        largest = max(np.max(np.abs(g)) for g in expected.values())
        for name, want in expected.items():
            err = np.max(np.abs(captured[name] - want))
            # softmax ignores a shift shared by all keys, so the key biases' exact
            # gradient is 0 and both tapes hold only roundoff: measure it against
            # the largest gradient entry of the model instead of its own
            scale = largest if name.endswith(".k.b") else np.max(np.abs(want))
            assert err <= 1e-10 * scale, f"{name}: {err:.3e} against {scale:.3e}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_tensor_name(self):
        cfg = Config(backbone_base_width=8, head_width=8, data_image_size=32, data_train_scenes=2)
        model = pipeline.build_model(cfg, seed=0)
        model.store["head.classifier.w"].data[:] = np.inf
        scenes = pipeline.make_dataset(0, "train", 1, 32, 4)
        opt = pipeline.AdamW(model.store, lr=1e-3)
        with pytest.raises(NonFiniteError, match="conv2d|non-finite"):
            pipeline.train_step(model, scenes, opt, Config(aug_enabled=False), None)


class TestTapeMemory:
    def test_toy_step_tape_keeps_no_scores_or_columns(self):
        """attention's probabilities and conv2d's im2col columns are rebuilt in backward, not kept.

        A toy.cfg batch-2 step holds about 22 MiB of tape after the forward
        pass and peaks about 5 MiB higher in backward; while they were kept,
        it held 41 MiB and peaked at 47 MiB. The gradients go into the optimizer's arena,
        which is allocated before tracing, as in train_step.
        """
        cfg = load_config(CONFIGS / "toy.cfg")
        model = pipeline.build_model(cfg, seed=0)
        optimizer = pipeline.AdamW(model.store, lr=cfg.train_lr)
        scenes = pipeline.make_dataset(0, "train", 2, cfg.data_image_size, cfg.head_classes)
        ir, vis = (Tensor(np.stack([scene.images[i].data for scene in scenes])) for i in (0, 1))
        masks = np.stack([scene.mask for scene in scenes])

        loss, _, held = traced_peak(lambda: pipeline.cross_entropy(pipeline.model_forward(model, ir, vis)[1], masks))
        _, peak, _ = traced_peak(lambda: named_gradients(loss, dict(model.store.items()), out=optimizer.grads))
        mib = 2**20
        assert held < 27 * mib, f"{held / mib:.1f} MiB held after the forward pass"
        assert held + peak < 33 * mib, f"{(held + peak) / mib:.1f} MiB at the backward peak"


class TestBuiltParameters:
    """The builder makes only the parameters the forward pass reads."""

    @pytest.mark.parametrize("cfg_name, change", [
        ("toy_baseline.cfg", {}),
        ("toy.cfg", {"fem_enabled": False}),
        ("toy.cfg", {"tem_enabled": False}),
        ("toy.cfg", {"agf_enabled": False}),
        *(("toy.cfg", {"fem_mode": mode}) for mode in fusion.FEM_MODES),
        ("toy.cfg", {"tem_adapters": 0}),
        ("toy.cfg", {"backbone_depth": 2}),
    ], ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) or "as_shipped" if isinstance(v, dict) else v)
    def test_every_parameter_is_reached_by_the_loss(self, cfg_name, change):
        cfg = dataclasses.replace(load_config(CONFIGS / cfg_name), **change,
                                  backbone_base_width=8, head_width=8, data_image_size=32)
        model = pipeline.build_model(cfg, seed=0)
        scene = pipeline.make_dataset(0, "train", 1, 32, cfg.head_classes)[0]
        loss = pipeline.cross_entropy(pipeline.model_forward(model, scene.ir, scene.vis)[1], scene.mask)
        reached = {id(node) for node in trace(loss).nodes}
        assert [name for name, p in model.store.items() if id(p) not in reached] == []

    @pytest.mark.parametrize("cfg_name, tensors, values", [
        ("toy.cfg", 452, 4_860_812),
        ("toy_baseline.cfg", 318, 3_201_092),
    ])
    def test_shipped_config_sizes(self, cfg_name, tensors, values):
        store = pipeline.build_model(load_config(CONFIGS / cfg_name), seed=0).store
        assert (len(store), sum(p.size for p in store.values())) == (tensors, values)


class TestEvaluate:
    def test_perfect_predictions_give_miou_one(self, monkeypatch):
        cfg = Config(backbone_base_width=8, head_width=8, data_image_size=32)
        model = pipeline.build_model(cfg, seed=1)
        scenes = pipeline.make_dataset(2, "eval", 3, 32, 4)
        monkeypatch.setattr(pipeline, "predict", lambda model, ir, vis, missing="none": scenes_by_ir[ir.data.tobytes()])
        scenes_by_ir = {s.ir.data.tobytes(): s.mask for s in scenes}
        report = pipeline.evaluate(scenes, model, "none")
        assert report["miou"] == 1.0

    def test_empty_dataset_rejected(self):
        cfg = SMALL
        model = pipeline.build_model(cfg, seed=1)
        with pytest.raises(DimensionError, match="empty"):
            pipeline.evaluate([], model)

    def test_report_formats(self):
        report = {"miou": 0.5, "per_class": [1.0, None, 0.0]}
        csv = pipeline.report_csv(report)
        assert csv.splitlines()[0] == "class_id,iou"
        assert csv.splitlines()[2] == "1,nan"
        assert csv.splitlines()[-1] == "miou,0.5"
        text = pipeline.report_text(report)
        assert "undefined" in text and "mIoU" in text

    def test_evaluate_deterministic(self):
        cfg = Config(backbone_base_width=8, head_width=8, data_image_size=32)
        model = pipeline.build_model(cfg, seed=4)
        scenes = pipeline.make_dataset(5, "eval", 2, 32, 4)
        a = pipeline.report_csv(pipeline.evaluate(scenes, model, "none"))
        b = pipeline.report_csv(pipeline.evaluate(scenes, model, "none"))
        assert a == b

    @pytest.mark.parametrize("missing", ["none", "ir", "vis"])
    def test_predict_and_evaluate_match_the_taped_forward(self, missing):
        model = pipeline.build_model(SMALL, seed=6)
        scenes = pipeline.make_dataset(8, "eval", 2, 32, 4)
        cm = pipeline.ConfusionMatrix(model.config.head_classes)
        for scene in scenes:
            expected = pipeline.model_forward(model, scene.ir, scene.vis, missing)[1].data.argmax(0)
            assert np.array_equal(pipeline.predict(model, scene.ir, scene.vis, missing), expected)
            cm.update(scene.mask, expected)
        report = pipeline.evaluate(scenes, model, missing)
        assert np.array_equal(report["confusion"].counts, cm.counts)
