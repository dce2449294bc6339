"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The training-based criteria share one pair of
200-step runs through a session fixture.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from ivgf import augment, cli, fusion, gradcheck, io_formats, pipeline
from ivgf.params import ParamStore
from ivgf.rng import RngState
from ivgf.tensor import Tensor, conv2d, layer_norm, linear, softmax_rows

REPO = Path(__file__).resolve().parent.parent
TOY_CFG = REPO / "configs" / "toy.cfg"
BASELINE_CFG = REPO / "configs" / "toy_baseline.cfg"


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- shared 200-step training runs ---------------------------------------------


@pytest.fixture(scope="session")
def toy_runs(tmp_path_factory):
    cfg_full = io_formats.load_config(TOY_CFG)
    cfg_base = io_formats.load_config(BASELINE_CFG)
    t0 = time.time()
    model_full, losses_full = pipeline.train_toy(cfg_full, steps=200, seed=7)
    model_base, losses_base = pipeline.train_toy(cfg_base, steps=200, seed=7)
    elapsed = time.time() - t0
    eval_scenes = pipeline.make_dataset(7, "eval", cfg_full.data_eval_scenes, cfg_full.data_image_size,
                                        cfg_full.head_classes)
    ckpt = tmp_path_factory.mktemp("acceptance") / "full.ckpt"
    ckpt.write_bytes(io_formats.encode_checkpoint(model_full.store))
    return {
        "cfg_full": cfg_full,
        "model_full": model_full,
        "losses_full": losses_full,
        "model_base": model_base,
        "losses_base": losses_base,
        "eval_scenes": eval_scenes,
        "elapsed": elapsed,
        "ckpt": str(ckpt),
    }


# -- criterion 1: gradient suite -------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = gradcheck.run_suite(seed=0, trials=20)
    elapsed = time.time() - t0
    detail = ", ".join(f"{r.block} {r.max_err:.1e}" for r in results) + f"; {elapsed:.1f}s"
    _report(
        "1 gradient suite (<=1e-4 blocks, <=1e-3 composed, 20 trials, <60s)",
        all(r.ok for r in results) and elapsed < 60.0,
        detail,
    )


# -- criterion 2: oracle equivalence ---------------------------------------------


def _max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def test_criterion_2_oracle_equivalence():
    worst = {}
    for trial in range(10):
        rng = np.random.default_rng(1000 + trial)
        seed = 1000 + trial

        x = rng.uniform(-1, 1, (3, 4, 4))
        w = rng.uniform(-1, 1, (2, 3, 3, 3))
        b = rng.uniform(-1, 1, 2)
        diff = _max_abs(conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data,
                        oracles.conv2d_naive(x, w, b, padding=1))
        worst["conv2d"] = max(worst.get("conv2d", 0.0), diff)

        xm = rng.uniform(-1, 1, (3, 4))
        wm = rng.uniform(-1, 1, (4, 4))
        bm = rng.uniform(-1, 1, 4)
        worst["linear"] = max(worst.get("linear", 0.0),
                              _max_abs(linear(Tensor(xm), Tensor(wm), Tensor(bm)).data,
                                       oracles.linear_naive(xm, wm, bm)))

        g = rng.uniform(0.5, 1.5, 4)
        be = rng.uniform(-1, 1, 4)
        worst["layer_norm"] = max(worst.get("layer_norm", 0.0),
                                  _max_abs(layer_norm(Tensor(xm), Tensor(g), Tensor(be)).data,
                                           oracles.layer_norm_naive(xm, g, be)))

        worst["softmax_rows"] = max(worst.get("softmax_rows", 0.0),
                                    _max_abs(softmax_rows(Tensor(xm)).data, oracles.softmax_naive(xm)))

        # a mode builds only the pairs it runs; parallel builds both kinds, under
        # the same names and so with the same values as every other mode
        fems = {}
        for mode in ("parallel", fusion.FEM_MODES[trial % 4]):
            store = ParamStore()
            fems[mode] = fusion.build_fem(store, RngState(seed), "fem", 4, mode)
            for name, p in store.items():
                p.data = RngState(seed).derive("r", name).fill_uniform(p.data.shape, -0.6, 0.6)
        pairs, fem = fems["parallel"], fems[fusion.FEM_MODES[trial % 4]]
        fx, fy = rng.uniform(-1, 1, (4, 4, 4)), rng.uniform(-1, 1, (4, 4, 4))
        worst["spatial_attention"] = max(worst.get("spatial_attention", 0.0),
                                         _max_abs(fusion.spatial_attention(Tensor(fx), pairs.spatial_x).data,
                                                  oracles.spatial_attention_naive(fx, pairs.spatial_x)))
        worst["channel_attention"] = max(worst.get("channel_attention", 0.0),
                                         _max_abs(fusion.channel_attention(Tensor(fx), pairs.channel_x).data,
                                                  oracles.channel_weights_naive(fx, pairs.channel_x)))
        ox, oy = fusion.fem_forward(Tensor(fx), Tensor(fy), fem)
        ex, ey = oracles.fem_naive(fx, fy, fem)
        worst["fem_forward"] = max(worst.get("fem_forward", 0.0), _max_abs(ox.data, ex), _max_abs(oy.data, ey))

        store = ParamStore()
        tem = fusion.build_tem(store, RngState(seed), "tem", 4, 2)
        for name, p in store.items():
            p.data = RngState(seed).derive("r", name).fill_uniform(p.data.shape, -0.6, 0.6)
        tx, ty = rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (4, 4))
        otx, oty = fusion.tem_forward(Tensor(tx), Tensor(ty), tem)
        etx, ety = oracles.tem_naive(tx, ty, tem)
        worst["tem_forward"] = max(worst.get("tem_forward", 0.0), _max_abs(otx.data, etx), _max_abs(oty.data, ety))

        store = ParamStore()
        agf = fusion.build_agf(store, RngState(seed), "agf", 4, heads=(1, 2, 4)[trial % 3])
        for name, p in store.items():
            p.data = RngState(seed).derive("r", name).fill_uniform(p.data.shape, -0.6, 0.6)
        q_src, kv_src = rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (4, 4))
        worst["cross_attention"] = max(worst.get("cross_attention", 0.0),
                                       _max_abs(fusion.multi_head_attention(Tensor(q_src.T), Tensor(kv_src.T), agf.xy,
                                                                            agf.heads).data,
                                                oracles.cross_attention_naive(q_src, kv_src, agf.xy, agf.heads)))
        fx2, fy2 = rng.uniform(-1, 1, (4, 2, 2)), rng.uniform(-1, 1, (4, 2, 2))
        worst["agf_forward"] = max(worst.get("agf_forward", 0.0),
                                   _max_abs(fusion.agf_forward(Tensor(fx2), Tensor(fy2), agf).data,
                                            oracles.agf_naive(fx2, fy2, agf)))

    ok = all(v < 1e-12 for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report("2 oracle equivalence (10 ops, 10 trials, <1e-12)", ok, detail)


# -- criterion 3: normalization invariants ----------------------------------------


def test_criterion_3_normalization_invariants():
    rng = np.random.default_rng(33)
    # attention rows sum to 1 within 1e-9, inputs up to +/-1e4
    worst_row = 0.0
    for _ in range(50):
        scale = float(rng.uniform(1, 1e4))
        probs = softmax_rows(Tensor(rng.uniform(-scale, scale, (6, 7))))
        worst_row = max(worst_row, float(np.max(np.abs(probs.data.sum(axis=1) - 1.0))))
        assert np.all(probs.data >= 0.0) and np.all(probs.data <= 1.0)

    # sigmoid-derived gates strictly inside (0,1)
    gates_ok = True
    for trial in range(20):
        seed = 300 + trial
        store = ParamStore()
        fem = fusion.build_fem(store, RngState(seed), "fem", 4, "parallel")
        tem = fusion.build_tem(store, RngState(seed), "tem", 4, 2)
        for name, p in store.items():
            p.data = RngState(seed).derive("r", name).fill_uniform(p.data.shape, -0.8, 0.8)
        f = rng.uniform(-2, 2, (4, 3, 3))
        ws = fusion.spatial_attention(Tensor(f), fem.spatial_x).data
        wc = fusion.channel_attention(Tensor(f), fem.channel_x).data
        gates_ok &= bool(np.all(ws > 0) and np.all(ws < 1) and np.all(wc > 0) and np.all(wc < 1))

    # TEM rowwise norm contraction on 100 random token matrices
    contraction_ok = True
    for trial in range(100):
        seed = 500 + trial
        store = ParamStore()
        tem = fusion.build_tem(store, RngState(seed), "tem", 6, 2)
        for name, p in store.items():
            p.data = RngState(seed).derive("r", name).fill_uniform(p.data.shape, -0.8, 0.8)
        local = np.random.default_rng(seed)
        tx = local.uniform(-2, 2, (5, 6))
        ty = local.uniform(-2, 2, (5, 6))
        tx[np.abs(tx).sum(axis=1) == 0.0] += 0.1  # keep rows nonzero
        ox, oy = fusion.tem_forward(Tensor(tx), Tensor(ty), tem)
        contraction_ok &= bool(
            np.all(np.linalg.norm(ox.data, axis=1) < np.linalg.norm(tx, axis=1))
            and np.all(np.linalg.norm(oy.data, axis=1) < np.linalg.norm(ty, axis=1))
        )

    _report(
        "3 normalization invariants (rows sum to 1 +/-1e-9, gates in (0,1), TEM contraction x100)",
        worst_row <= 1e-9 and gates_ok and contraction_ok,
        f"worst row-sum dev {worst_row:.1e}",
    )


# -- criteria 4 and 5: training-based orderings ------------------------------------


def test_criterion_4_ablation_ordering(toy_runs):
    full = pipeline.evaluate(toy_runs["eval_scenes"], toy_runs["model_full"], "none")["miou"]
    base = pipeline.evaluate(toy_runs["eval_scenes"], toy_runs["model_base"], "none")["miou"]
    losses = toy_runs["losses_full"]
    halved = losses[-1] < 0.5 * losses[0]
    in_budget = toy_runs["elapsed"] < 600.0
    _report(
        "4 ablation ordering (full > sum-fusion baseline, 200 steps, seed 7, <10min)",
        (full > base) and halved and in_budget,
        f"full {full:.4f} vs baseline {base:.4f}; loss {losses[0]:.3f}->{losses[-1]:.3f}; {toy_runs['elapsed']:.0f}s",
    )


def test_criterion_5_missing_modality(toy_runs, tmp_path):
    data_dir = tmp_path / "eval_data"
    assert cli.main(["make-data", "--config", str(TOY_CFG), "--split", "eval",
                     "--seed", "7", "--out-dir", str(data_dir)]) == 0

    mious = {}
    for missing in ("none", "ir", "vis"):
        out = tmp_path / f"eval_{missing}"
        code = cli.main(["eval", "--config", str(TOY_CFG), "--ckpt", toy_runs["ckpt"],
                         "--data", str(data_dir), "--missing", missing, "--out-dir", str(out)])
        assert code == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        classes = toy_runs["cfg_full"].head_classes
        assert lines[0] == "class_id,iou" and len(lines) == classes + 2
        assert lines[-1].startswith("miou,")
        value = float(lines[-1].split(",")[1])
        assert 0.0 <= value <= 1.0
        mious[missing] = value

    ok = mious["none"] >= mious["ir"] and mious["none"] >= mious["vis"]
    _report(
        "5 missing-modality protocol (none >= each substitution; valid reports)",
        ok,
        f"none {mious['none']:.4f}, missing-ir {mious['ir']:.4f}, missing-vis {mious['vis']:.4f}",
    )


# -- criterion 6: augmentation laws -------------------------------------------------


def test_criterion_6_augmentation_laws():
    root = RngState(606)
    cfg = io_formats.Config(aug_grid_rows=4, aug_grid_cols=4, aug_p_cutmix=0.4, aug_p_cutout=0.5,
                            aug_cutout_cells=2, aug_fill_value=0.0)
    conservation = exchange = True
    local = np.random.default_rng(66)
    x = Tensor(local.uniform(0.05, 0.95, (3, 8, 8)))
    y = Tensor(local.uniform(0.05, 0.95, (3, 8, 8)))
    for i in range(1000):
        cells = augment.sample_cutmix(cfg, root.derive("mix", i))
        x2, y2 = augment.apply_record(x, y, cfg, augment.AugRecord(swapped_cells=cells))
        before = np.sort(np.concatenate([x.data.ravel(), y.data.ravel()]))
        after = np.sort(np.concatenate([x2.data.ravel(), y2.data.ravel()]))
        conservation &= bool(np.array_equal(before, after))
        swapped = x2.data == y.data
        exchange &= bool(np.array_equal(y2.data[swapped], x.data[swapped])
                         and np.array_equal(x2.data[~swapped], x.data[~swapped]))

    # counting law, exact
    counting = True
    cut_cfg = io_formats.Config(aug_grid_rows=4, aug_grid_cols=4, aug_p_cutout=1.0, aug_cutout_cells=2,
                                aug_fill_value=0.0)
    for i in range(200):
        modality, cells = augment.sample_cutout(cut_cfg, root.derive("cut", i))
        rec = augment.AugRecord(cutout_modality=modality, cutout_cells_applied=cells)
        x2, y2 = augment.apply_record(x, y, cut_cfg, rec)
        changed = np.count_nonzero(x2.data != x.data) + np.count_nonzero(y2.data != y.data)
        counting &= changed == 2 * 4 * 3  # cells * cell area * channels
        target = x2 if rec.cutout_modality == "ir" else y2
        source = x if rec.cutout_modality == "ir" else y
        counting &= bool(np.all(target.data[target.data != source.data] == 0.0))

    # p = 0 is bit identity
    zero_cfg = io_formats.Config(aug_p_cutmix=0.0, aug_p_cutout=0.0)
    x2, y2, rec = augment.cma_apply(x, y, zero_cfg, root.derive("id"))
    identity = (x2.data.tobytes() == x.data.tobytes() and y2.data.tobytes() == y.data.tobytes()
                and rec.swapped_cells == [] and rec.cutout_modality == "none")

    # modality frequency over 10k trials at p_cutout = 0.5
    hits = 0
    freq_cfg = io_formats.Config(aug_grid_rows=2, aug_grid_cols=2, aug_p_cutout=0.5, aug_cutout_cells=1)
    for i in range(10_000):
        modality, _ = augment.sample_cutout(freq_cfg, root.derive("freq", i))
        hits += modality == "ir"
    freq = hits / 10_000
    freq_ok = abs(freq - 0.25) <= 0.02

    _report(
        "6 augmentation laws (conservation+exchange x1000, counting, identity, frequency)",
        conservation and exchange and counting and identity and freq_ok,
        f"ir frequency {freq:.4f}",
    )


# -- criterion 7: FEM variant switch -------------------------------------------------


def test_criterion_7_fem_variant_switch():
    trajectories = {}
    for mode in fusion.FEM_MODES:
        cfg = io_formats.Config(
            backbone_base_width=8, head_width=8, data_image_size=32,
            data_train_scenes=8, train_lr=3e-3, fem_mode=mode,
        )
        _, losses = pipeline.train_toy(cfg, steps=50, seed=7)
        assert all(math.isfinite(v) for v in losses), f"non-finite loss in mode {mode}"
        trajectories[mode] = losses
    modes = list(trajectories)
    distinct = all(
        trajectories[a] != trajectories[b] for i, a in enumerate(modes) for b in modes[i + 1 :]
    )
    _report(
        "7 FEM variant switch (4 modes x 50 steps, finite, distinct trajectories)",
        distinct,
        ", ".join(f"{m} {trajectories[m][-1]:.3f}" for m in modes),
    )


# -- criterion 8: format round trips --------------------------------------------------


def test_criterion_8_format_round_trips(tmp_path):
    # checkpoint structural identity within float32 quantization
    store = ParamStore()
    local = np.random.default_rng(88)
    for name, shape in (("a.w", (4, 3)), ("b.b", (7,)), ("c.w", (2, 2, 3, 3))):
        store.add(name, Tensor(local.uniform(-2, 2, shape)))
    path = tmp_path / "rt.ckpt"
    path.write_bytes(io_formats.encode_checkpoint(store))
    loaded = io_formats.load_checkpoint(path)
    ckpt_ok = list(loaded) == list(dict(store.items())) and all(
        np.array_equal(loaded[n], store[n].data.astype(np.float32).astype(np.float64))
        for n in dict(store.items())
    )

    # PNM round trip within 1/255
    img = local.uniform(0, 1, (3, 6, 5))
    back = io_formats.read_pnm(io_formats.encode_pnm(img))
    pnm_ok = float(np.max(np.abs(back.data - img))) <= 1.0 / 255.0

    # malformed inputs map to the specified exit codes
    bad_img = tmp_path / "bad.ppm"
    bad_img.write_bytes(b"P9\n2 2\n255\n" + bytes(12))
    good = tmp_path / "good.ppm"
    good.write_bytes(io_formats.encode_pnm(np.zeros((3, 32, 32))))
    code_img = cli.main(["forward", "--ir", str(bad_img), "--vis", str(good),
                         "--out-dir", str(tmp_path / "o1")])
    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(io_formats.encode_checkpoint(store)[:-3])
    code_ckpt = cli.main(["forward", "--ir", str(good), "--vis", str(good),
                          "--ckpt", str(truncated), "--out-dir", str(tmp_path / "o2")])
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("nonsense.key = 1\n")
    code_cfg = cli.main(["forward", "--config", str(bad_cfg), "--ir", str(good),
                         "--vis", str(good), "--out-dir", str(tmp_path / "o3")])
    codes_ok = (code_img, code_ckpt, code_cfg) == (3, 3, 2)

    _report(
        "8 format round trips (ckpt within f32, PNM within 1/255, exit codes 3/3/2)",
        ckpt_ok and pnm_ok and codes_ok,
        f"exit codes img={code_img} ckpt={code_ckpt} cfg={code_cfg}",
    )


# -- criterion 9: determinism ----------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "backbone.base_width = 8\nhead.width = 8\ndata.image_size = 32\n"
        "data.train_scenes = 6\ndata.eval_scenes = 3\ntrain.lr = 0.003\n"
    )
    curves = []
    ckpts = []
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        assert cli.main(["train-toy", "--config", str(cfg_path), "--steps", "10",
                         "--seed", "7", "--out-dir", str(out)]) == 0
        curves.append((out / "loss_curve.csv").read_bytes())
        ckpts.append(out / "model.ckpt")

    data_dir = tmp_path / "data"
    assert cli.main(["make-data", "--config", str(cfg_path), "--split", "eval",
                     "--seed", "7", "--out-dir", str(data_dir)]) == 0
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"eval_{tag}"
        assert cli.main(["eval", "--config", str(cfg_path), "--ckpt", str(ckpts[0]),
                         "--data", str(data_dir), "--out-dir", str(out)]) == 0
        reports.append((out / "report.csv").read_bytes())

    _report(
        "9 determinism (train twice -> identical CSVs; eval twice -> identical reports)",
        curves[0] == curves[1] and reports[0] == reports[1],
        f"curve {len(curves[0])}B, report {len(reports[0])}B",
    )
