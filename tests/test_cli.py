"""CLI contract: exit codes, output files, metadata, seed precedence."""

import ast
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ivgf import augment, cli, io_formats, pipeline
from ivgf.errors import FormatError, NonFiniteError
from ivgf.rng import RngState
from oracles import FAULTS, inject_fault

REPO = Path(__file__).resolve().parent.parent

SMALL_CFG = """
backbone.base_width = 8
head.width = 8
data.image_size = 32
data.train_scenes = 6
data.eval_scenes = 3
train.lr = 0.003
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG, encoding="utf-8")
    return str(path)


@pytest.fixture
def image_pair(tmp_path):
    rng = np.random.default_rng(0)
    ir = tmp_path / "ir.ppm"
    vis = tmp_path / "vis.ppm"
    ir.write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 32, 32))))
    vis.write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 32, 32))))
    return str(ir), str(vis)


class TestForward:
    def test_smoke_run_writes_mask_and_metadata(self, tmp_path, small_config, image_pair):
        ir, vis = image_pair
        out = tmp_path / "out"
        code = cli.main(["forward", "--config", small_config, "--ir", ir, "--vis", vis,
                         "--out-dir", str(out), "--seed", "1"])
        assert code == 0
        assert (out / "run_metadata.txt").exists()
        mask = io_formats.read_pgm_labels(out / "mask.pgm")
        assert mask.shape == (32, 32)
        assert mask.max() < 4
        meta = (out / "run_metadata.txt").read_text()
        assert "seed = 1" in meta and "command = forward" in meta

    def test_metadata_records_blas_threads_and_cores(self, tmp_path, small_config, image_pair):
        ir, vis = image_pair
        out = tmp_path / "out"
        assert cli.main(["forward", "--config", small_config, "--ir", ir, "--vis", vis,
                         "--out-dir", str(out)]) == 0
        meta = dict(line.split(" = ", 1) for line in (out / "run_metadata.txt").read_text().splitlines()
                    if " = " in line)
        assert meta["blas_threads"] == "unknown" or int(meta["blas_threads"]) >= 1
        assert meta["cores"] == str(os.cpu_count())

    def test_missing_ir_file_is_io_error_naming_path(self, tmp_path, small_config, image_pair, capsys):
        _, vis = image_pair
        code = cli.main(["forward", "--config", small_config, "--ir", str(tmp_path / "nope.ppm"),
                         "--vis", vis, "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "nope.ppm" in capsys.readouterr().err

    def test_dump_features_writes_twelve_images(self, tmp_path, small_config, image_pair):
        ir, vis = image_pair
        out = tmp_path / "feats"
        code = cli.main(["forward", "--config", small_config, "--ir", ir, "--vis", vis,
                         "--out-dir", str(out), "--dump-features"])
        assert code == 0
        dumps = sorted(out.glob("feat_s*_*.pgm"))
        assert len(dumps) == 12

    def test_bad_config_is_exit_2(self, tmp_path, image_pair, capsys):
        ir, vis = image_pair
        bad = tmp_path / "bad.cfg"
        bad.write_text("no.such.key = 1\n")
        code = cli.main(["forward", "--config", str(bad), "--ir", ir, "--vis", vis,
                         "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_indivisible_image_is_exit_2(self, tmp_path, small_config, capsys):
        rng = np.random.default_rng(1)
        ir = tmp_path / "odd_ir.ppm"
        vis = tmp_path / "odd_vis.ppm"
        ir.write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 40, 40))))
        vis.write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 40, 40))))
        out = tmp_path / "o"
        code = cli.main(["forward", "--config", small_config, "--ir", str(ir), "--vis", str(vis),
                         "--out-dir", str(out)])
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()  # nothing is written before the input is known to be usable

    def test_ckpt_config_mismatch_is_shape_error(self, tmp_path, small_config, image_pair):
        ir, vis = image_pair
        other_cfg = io_formats.Config(backbone_base_width=4, head_width=4)
        model = pipeline.build_model(other_cfg, seed=0)
        ckpt = tmp_path / "other.ckpt"
        ckpt.write_bytes(io_formats.encode_checkpoint(model.store))
        code = cli.main(["forward", "--config", small_config, "--ir", ir, "--vis", vis,
                         "--ckpt", str(ckpt), "--out-dir", str(tmp_path / "o")])
        assert code == 4

    def test_corrupt_checkpoint_is_format_error(self, tmp_path, small_config, image_pair):
        ir, vis = image_pair
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"IVGFgarbage")
        code = cli.main(["forward", "--config", small_config, "--ir", ir, "--vis", vis,
                         "--ckpt", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 3


class TestGradcheckCommand:
    def test_trials_zero_is_exit_2(self, capsys):
        for trials in ("0", "-1"):
            assert cli.main(["gradcheck", "--trials", trials]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and len(err.strip().splitlines()) == 1 and "--trials" in err

    def test_single_trial_passes(self, capsys):
        assert cli.main(["gradcheck", "--trials", "1", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        for block in ("fem", "tem", "agf", "seg_head", "end_to_end"):
            assert block in out

    def test_injected_sign_error_is_caught_and_named(self, capsys, monkeypatch):
        # a negated, zeroed or NaN backward in either op fails a block that runs it
        for fault, transform in FAULTS.items():
            for op, blocks in (("sigmoid", ("fem", "tem", "agf")), ("attention", ("agf",))):
                with monkeypatch.context() as patch:
                    inject_fault(patch, op, transform)
                    assert cli.main(["gradcheck", "--trials", "1", "--seed", "5"]) == 1, (fault, op)
                err = capsys.readouterr().err
                assert any(block in err for block in blocks), (fault, op, err)

    @pytest.mark.parametrize("seed", [0, 17, 23])
    def test_agf_block_sees_an_attention_fault(self, seed, monkeypatch):
        # at these suite seeds every merge_a ReLU input used to be <= 0, so no
        # gradient reached the attention and a sign fault there passed
        from ivgf import gradcheck

        inject_fault(monkeypatch, "attention", FAULTS["negate"])
        assert not gradcheck.check_agf(seed, 1).ok

    def test_relu_kink_inside_the_step_is_not_a_violation(self, capsys):
        # at suite seed 20 a ReLU switches within +-eps of one end-to-end
        # entry, so the central difference is off by 7e-2 while the tape is right
        assert cli.main(["gradcheck", "--trials", "1", "--seed", "20"]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestTrainEval:
    def test_train_then_eval_roundtrip(self, tmp_path, small_config):
        train_dir = tmp_path / "train"
        code = cli.main(["train-toy", "--config", small_config, "--steps", "6",
                         "--seed", "7", "--out-dir", str(train_dir)])
        assert code == 0
        curve = (train_dir / "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "step,loss" and len(curve) == 7
        ckpt = train_dir / "model.ckpt"
        assert ckpt.exists()

        data_dir = tmp_path / "data"
        assert cli.main(["make-data", "--config", small_config, "--split", "eval",
                         "--seed", "7", "--out-dir", str(data_dir)]) == 0
        assert len(list(data_dir.glob("*_ir.ppm"))) == 3

        eval_dir = tmp_path / "eval"
        code = cli.main(["eval", "--config", small_config, "--ckpt", str(ckpt),
                         "--data", str(data_dir), "--missing", "vis", "--out-dir", str(eval_dir)])
        assert code == 0
        csv = (eval_dir / "report.csv").read_text()
        last = csv.strip().splitlines()[-1]
        assert last.startswith("miou,")
        assert 0.0 <= float(last.split(",")[1]) <= 1.0

    def test_eval_on_empty_dir_is_exit_3(self, tmp_path, small_config):
        empty = tmp_path / "empty"
        empty.mkdir()
        ckpt = tmp_path / "m.ckpt"
        model = pipeline.build_model(io_formats.parse_config(SMALL_CFG), seed=0)
        ckpt.write_bytes(io_formats.encode_checkpoint(model.store))
        code = cli.main(["eval", "--config", small_config, "--ckpt", str(ckpt),
                         "--data", str(empty), "--out-dir", str(tmp_path / "o")])
        assert code == 3

    def test_missing_checkpoint_directory_is_exit_3_and_leaves_no_results_dir(self, tmp_path, small_config, capsys):
        out = tmp_path / "o"
        code = cli.main(["train-toy", "--config", small_config, "--steps", "1", "--out-dir", str(out),
                         "--out-ckpt", str(tmp_path / "nodir" / "x.ckpt")])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "nodir" in err
        assert not out.exists()

    def test_checkpoint_inside_the_new_results_dir_is_accepted(self, tmp_path, small_config):
        out = tmp_path / "o"
        assert cli.main(["train-toy", "--config", small_config, "--steps", "1", "--out-dir", str(out),
                         "--out-ckpt", str(out / "x.ckpt")]) == 0
        assert (out / "x.ckpt").exists() and not (out / "model.ckpt").exists()

    @pytest.mark.parametrize(
        "out_dir, out_ckpt",
        [("o", "existing"), ("o", "o"), ("o/sub", "o")],
        ids=["an-existing-dir", "the-out-dir", "a-parent-of-the-out-dir"],
    )
    def test_checkpoint_path_that_is_a_directory_is_exit_3_and_leaves_no_results_dir(
        self, tmp_path, small_config, capsys, out_dir, out_ckpt
    ):
        (tmp_path / "existing").mkdir()
        code = cli.main(["train-toy", "--config", small_config, "--steps", "1",
                         "--out-dir", str(tmp_path / out_dir), "--out-ckpt", str(tmp_path / out_ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "is a directory" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["loss_curve.csv", "run_metadata.txt"])
    def test_checkpoint_path_naming_another_output_is_exit_2_and_leaves_no_results_dir(
        self, tmp_path, small_config, capsys, name
    ):
        out = tmp_path / "o"
        code = cli.main(["train-toy", "--config", small_config, "--steps", "1", "--out-dir", str(out),
                         "--out-ckpt", str(tmp_path / "." / "o" / name)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and name in err
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["-1", "0"])
    def test_train_toy_non_positive_steps_is_exit_2_and_leaves_no_results_dir(
        self, tmp_path, small_config, capsys, steps
    ):
        out = tmp_path / "o"
        assert cli.main(["train-toy", "--config", small_config, "--steps", steps, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "--steps" in err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_make_data_non_positive_count_is_exit_2_and_leaves_no_results_dir(
        self, tmp_path, small_config, capsys, count
    ):
        out = tmp_path / "o"
        assert cli.main(["make-data", "--config", small_config, "--count", count, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "--count" in err
        assert not out.exists()

    def test_make_data_encoding_failure_on_the_last_scene_leaves_no_results_dir(
        self, tmp_path, small_config, capsys, monkeypatch
    ):
        make_dataset = pipeline.make_dataset

        def last_mask_unencodable(*args, **kwargs):
            scenes = make_dataset(*args, **kwargs)
            scenes[-1].mask = scenes[-1].mask[None]  # [1,H,W] is no label map
            return scenes

        monkeypatch.setattr(pipeline, "make_dataset", last_mask_unencodable)
        out = tmp_path / "o"
        assert cli.main(["make-data", "--config", small_config, "--count", "3", "--out-dir", str(out)]) == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "shape error" in err
        assert not out.exists()

    def test_config_file_not_utf8_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# r\xe9glages\nhead.width = 8\n".encode("latin-1"))
        out = tmp_path / "o"
        assert cli.main(["make-data", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "config error" in err
        assert not out.exists()

    def test_repeat_training_is_byte_identical(self, tmp_path, small_config):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["train-toy", "--config", small_config, "--steps", "5",
                             "--seed", "11", "--out-dir", str(out)]) == 0
        assert (a / "loss_curve.csv").read_bytes() == (b / "loss_curve.csv").read_bytes()
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()


class TestAugmentCommand:
    def test_augment_writes_pair_and_record(self, tmp_path, small_config, image_pair):
        ir, vis = image_pair
        out = tmp_path / "aug"
        code = cli.main(["augment", "--config", small_config, "--ir", ir, "--vis", vis,
                         "--seed", "3", "--out-dir", str(out)])
        assert code == 0
        assert (out / "ir_aug.ppm").exists() and (out / "vis_aug.ppm").exists()
        record = (out / "record.txt").read_text()
        assert "cutout_modality" in record and "swapped_cells" in record

    def test_image_smaller_than_grid_is_exit_4_and_leaves_no_results_dir(self, tmp_path, small_config, capsys):
        rng = np.random.default_rng(3)
        ir = tmp_path / "tiny_ir.ppm"
        vis = tmp_path / "tiny_vis.ppm"
        ir.write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 2, 2))))
        vis.write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 2, 2))))
        out = tmp_path / "aug"
        code = cli.main(["augment", "--config", small_config, "--ir", str(ir), "--vis", str(vis),
                         "--seed", "3", "--out-dir", str(out)])
        assert code == 4
        assert "grid 4x4 larger than image 2x2" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_larger_than_image_is_refused_before_any_cell_is_drawn(self, tmp_path, capsys, monkeypatch):
        # sampling draws once per grid cell: 10^7 rows once took about 47 s before the size check ran
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("aug.grid_rows = 10000000\n", encoding="utf-8")
        rng = np.random.default_rng(4)
        ir, vis = tmp_path / "ir64.ppm", tmp_path / "vis64.ppm"
        for path in (ir, vis):
            path.write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 64, 64))))
        drawn = []
        monkeypatch.setattr(augment, "sample_cutmix", lambda *a: drawn.append("cutmix") or [])
        monkeypatch.setattr(augment, "sample_cutout", lambda *a: drawn.append("cutout") or ("none", []))
        out = tmp_path / "aug"
        code = cli.main(["augment", "--config", str(cfg), "--ir", str(ir), "--vis", str(vis),
                         "--seed", "3", "--out-dir", str(out)])
        assert code == 4
        assert "grid 10000000x4 larger than image 64x64" in capsys.readouterr().err
        assert drawn == [] and not out.exists()

    def test_modality_size_mismatch_is_exit_4_and_leaves_no_results_dir(self, tmp_path, small_config, capsys):
        rng = np.random.default_rng(5)
        ir = tmp_path / "ir32.ppm"
        vis = tmp_path / "vis64.ppm"
        ir.write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 32, 32))))
        vis.write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 64, 64))))
        out = tmp_path / "aug"
        code = cli.main(["augment", "--config", small_config, "--ir", str(ir), "--vis", str(vis),
                         "--seed", "3", "--out-dir", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "modality shapes differ" in err
        assert not out.exists()


class TestSeedPrecedence:
    def _seed_in_metadata(self, out):
        for line in (out / "run_metadata.txt").read_text().splitlines():
            if line.startswith("seed = "):
                return int(line.split("=")[1])
        raise AssertionError("no seed line")

    def test_flag_beats_env_beats_config(self, tmp_path, small_config, image_pair, monkeypatch):
        ir, vis = image_pair
        monkeypatch.setenv("IVGF_SEED", "500")
        out1 = tmp_path / "o1"
        cli.main(["forward", "--config", small_config, "--ir", ir, "--vis", vis,
                  "--out-dir", str(out1), "--seed", "9"])
        assert self._seed_in_metadata(out1) == 9

        out2 = tmp_path / "o2"
        cli.main(["forward", "--config", small_config, "--ir", ir, "--vis", vis,
                  "--out-dir", str(out2)])
        assert self._seed_in_metadata(out2) == 500

        monkeypatch.delenv("IVGF_SEED")
        out3 = tmp_path / "o3"
        cli.main(["forward", "--config", small_config, "--ir", ir, "--vis", vis,
                  "--out-dir", str(out3)])
        assert self._seed_in_metadata(out3) == 7  # train.seed default

    def test_bad_env_seed_is_config_error(self, tmp_path, small_config, image_pair, monkeypatch):
        ir, vis = image_pair
        monkeypatch.setenv("IVGF_SEED", "not-a-number")
        code = cli.main(["forward", "--config", small_config, "--ir", ir, "--vis", vis,
                         "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_ivgf_seed_is_the_only_environment_variable_read(self):
        found = _environment_keys('os.environ.get("A"); os.getenv("B"); os.environ["C"]; "D" in os.environ')
        assert sorted(found) == ["A", "B", "C", "D"]
        assert _environment_keys("dict(os.environ); os.environ.get(name)") == [None, None]
        sources = sorted(Path(cli.__file__).parent.glob("*.py"))
        keys = [key for path in sources for key in _environment_keys(path.read_text(encoding="utf-8"))]
        assert keys and set(keys) == {"IVGF_SEED"}, keys


_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_keys(source):
    """The key of every use of os.environ or os.getenv in source; None where it is not a constant."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    keys = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name not in _ENVIRONMENT_NAMES:
            continue
        up = parents[node]
        if isinstance(up, ast.Attribute) and up.attr == "get":  # os.environ.get(key)
            up = parents[up]
        key = None
        if isinstance(up, ast.Call) and up.args:
            key = up.args[0]
        elif isinstance(up, ast.Subscript):
            key = up.slice
        elif isinstance(up, ast.Compare):
            key = up.left
        keys.append(key.value if isinstance(key, ast.Constant) else None)
    return keys


def _train_exploding(tmp_path, lr, steps):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(
        "backbone.base_width = 8\nhead.width = 8\ndata.image_size = 32\n"
        f"data.train_scenes = 2\ntrain.lr = {lr}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy overflow warnings would raise here
        return cli.main(["train-toy", "--config", str(cfg), "--steps", str(steps), "--seed", "1",
                         "--out-dir", str(tmp_path / "o")])


def test_non_finite_loss_is_exit_5(tmp_path, capsys):
    assert _train_exploding(tmp_path, "1e18", 5) == 5
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "non-finite" in err
    assert not (tmp_path / "o").exists()


def test_non_finite_training_loss_is_exit_5_naming_the_first_bad_tensor(tmp_path, capsys):
    # one step at this rate leaves finite parameters (float64) that make the next loss overflow
    assert _train_exploding(tmp_path, "1e308", 2) == 5
    err = capsys.readouterr().err
    # the node number comes from a process-wide counter, so only the prefix is pinned
    assert len(err.splitlines()) == 1
    assert err.startswith("non-finite: training loss went non-finite; first bad tensor: "), err
    assert not (tmp_path / "o").exists()


def test_non_finite_gradient_is_exit_5_naming_the_parameter_and_step(tmp_path, capsys):
    # at this rate a gradient's squares overflow while the loss is still finite
    assert _train_exploding(tmp_path, "1e6", 8) == 5
    err = capsys.readouterr().err
    match = re.fullmatch(r"non-finite: gradient for '(.+)' at step (\d+) is not finite or its squares overflow\n", err)
    assert match, err
    assert match[1] in dict(pipeline.build_model(io_formats.parse_config(SMALL_CFG), seed=1).store.items())
    assert not (tmp_path / "o").exists()
    step = int(match[2])
    assert step > 1 and _train_exploding(tmp_path, "1e6", step - 1) == 0  # the steps before it were clean


def test_checkpoint_overflowing_float32_is_exit_5(tmp_path, capsys):
    # one step at this rate keeps the loss finite but drives parameters past float32
    assert _train_exploding(tmp_path, "1e308", 1) == 5
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "not finite in float32" in err
    assert not (tmp_path / "o").exists()


def test_eval_rejects_mask_with_oversized_labels(tmp_path, small_config):
    rng = np.random.default_rng(2)
    data = tmp_path / "data"
    data.mkdir()
    (data / "s_ir.ppm").write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 32, 32))))
    (data / "s_vis.ppm").write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 32, 32))))
    (data / "s_mask.pgm").write_bytes(io_formats.encode_pgm_labels(np.full((32, 32), 9)))
    ckpt = tmp_path / "m.ckpt"
    model = pipeline.build_model(io_formats.parse_config(SMALL_CFG), seed=0)
    ckpt.write_bytes(io_formats.encode_checkpoint(model.store))
    code = cli.main(["eval", "--config", small_config, "--ckpt", str(ckpt),
                     "--data", str(data), "--out-dir", str(tmp_path / "o")])
    assert code == 3


def test_eval_with_every_pixel_ignored_is_exit_3(tmp_path, small_config, capsys):
    # no labeled pixel anywhere leaves mIoU undefined
    rng = np.random.default_rng(4)
    data = tmp_path / "data"
    data.mkdir()
    for stem in ("a", "b"):
        (data / f"{stem}_ir.ppm").write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 32, 32))))
        (data / f"{stem}_vis.ppm").write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 32, 32))))
        (data / f"{stem}_mask.pgm").write_bytes(io_formats.encode_pgm_labels(np.full((32, 32), pipeline.IGNORE_LABEL)))
    ckpt = tmp_path / "m.ckpt"
    model = pipeline.build_model(io_formats.parse_config(SMALL_CFG), seed=0)
    ckpt.write_bytes(io_formats.encode_checkpoint(model.store))
    out = tmp_path / "o"
    code = cli.main(["eval", "--config", small_config, "--ckpt", str(ckpt),
                     "--data", str(data), "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "no labeled pixel" in err
    assert not out.exists()


@pytest.mark.parametrize("bad_file, shape", [("b_mask.pgm", (16, 16)), ("b_vis.ppm", (3, 16, 32))])
def test_eval_scene_file_of_another_size_is_exit_4_naming_it(tmp_path, small_config, capsys, monkeypatch,
                                                             bad_file, shape):
    # the sizes are checked while the directory is read, before any model is built
    rng = np.random.default_rng(5)
    data = tmp_path / "data"
    data.mkdir()
    for stem in ("a", "b"):
        (data / f"{stem}_ir.ppm").write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 32, 32))))
        (data / f"{stem}_vis.ppm").write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, (3, 32, 32))))
        (data / f"{stem}_mask.pgm").write_bytes(io_formats.encode_pgm_labels(np.zeros((32, 32), dtype=np.int64)))
    if bad_file.endswith(".ppm"):
        (data / bad_file).write_bytes(io_formats.encode_pnm(rng.uniform(0, 1, shape)))
    else:
        (data / bad_file).write_bytes(io_formats.encode_pgm_labels(np.zeros(shape, dtype=np.int64)))
    monkeypatch.setattr(pipeline, "build_model", lambda *a: pytest.fail("model built before the scenes were checked"))
    out = tmp_path / "o"
    code = cli.main(["eval", "--config", small_config, "--ckpt", str(tmp_path / "m.ckpt"),
                     "--data", str(data), "--out-dir", str(out)])
    assert code == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and bad_file in err[0] and str(shape) in err[0] and "(3, 32, 32)" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "eval"])
def test_checkpoint_holding_nan_is_exit_5_and_leaves_no_results_dir(tmp_path, small_config, image_pair, capsys,
                                                                     command):
    model = pipeline.build_model(io_formats.parse_config(SMALL_CFG), seed=0)
    assert list(dict(model.store.items()))[-1] == "head.classifier.b"
    data = bytearray(io_formats.encode_checkpoint(model.store))
    data[-4:] = struct.pack("<f", float("nan"))  # the last value of the last entry
    ckpt = tmp_path / "nan.ckpt"
    ckpt.write_bytes(bytes(data))
    if command == "forward":
        ir, vis = image_pair
        argv = ["forward", "--ir", ir, "--vis", vis]
    else:
        scenes = tmp_path / "data"
        assert cli.main(["make-data", "--config", small_config, "--count", "1", "--out-dir", str(scenes)]) == 0
        argv = ["eval", "--data", str(scenes)]
    out = tmp_path / "o"
    assert cli.main(argv + ["--config", small_config, "--ckpt", str(ckpt), "--out-dir", str(out)]) == 5
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "'head.classifier.b'" in err
    assert not out.exists()


@pytest.mark.parametrize("command, target", [("forward", "mask.pgm"), ("eval", "report.csv")])
def test_output_path_that_is_a_directory_is_exit_3_and_writes_nothing(tmp_path, small_config, image_pair, capsys,
                                                                     command, target):
    # every target is checked before the first write, so no run_metadata.txt
    # names an output that was never written
    if command == "forward":
        ir, vis = image_pair
        argv = ["forward", "--ir", ir, "--vis", vis]
    else:
        scenes = tmp_path / "data"
        assert cli.main(["make-data", "--config", small_config, "--count", "1", "--out-dir", str(scenes)]) == 0
        ckpt = tmp_path / "m.ckpt"
        model = pipeline.build_model(io_formats.parse_config(SMALL_CFG), seed=0)
        ckpt.write_bytes(io_formats.encode_checkpoint(model.store))
        argv = ["eval", "--data", str(scenes), "--ckpt", str(ckpt)]
    out = tmp_path / "o"
    (out / target).mkdir(parents=True)
    capsys.readouterr()
    assert cli.main(argv + ["--config", small_config, "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "is a directory" in err and target in err
    assert sorted(p.name for p in out.iterdir()) == [target]
    assert not any((out / target).iterdir())


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts the entries of /proc/self/fd")
@pytest.mark.filterwarnings("error::ResourceWarning")
def test_checkpoint_loads_leave_no_file_descriptor_open(tmp_path, small_config):
    cfg = io_formats.parse_config(SMALL_CFG)
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(io_formats.encode_checkpoint(pipeline.build_model(cfg, seed=1).store))
    data = bytearray(ckpt.read_bytes())
    data[-4:] = struct.pack("<f", float("nan"))
    nan = tmp_path / "nan.ckpt"
    nan.write_bytes(bytes(data))
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(bytes(data[:-1]))
    scenes = tmp_path / "data"
    assert cli.main(["make-data", "--config", small_config, "--count", "1", "--out-dir", str(scenes)]) == 0
    store = pipeline.build_model(cfg, seed=0).store

    def load(path):  # the benchmark's one-line form
        store.load_arrays(io_formats.load_checkpoint(path).arrays())

    def evaluate(path, out):
        return cli.main(["eval", "--config", small_config, "--ckpt", str(path), "--data", str(scenes),
                         "--out-dir", str(tmp_path / out)])

    before = len(os.listdir("/proc/self/fd"))
    load(ckpt)
    with pytest.raises(NonFiniteError):
        load(nan)
    with pytest.raises(FormatError):
        load(truncated)
    assert (evaluate(ckpt, "o1"), evaluate(nan, "o2"), evaluate(truncated, "o3")) == (0, 5, 3)
    assert len(os.listdir("/proc/self/fd")) == before
    with io_formats.load_checkpoint(ckpt) as loaded:
        name = next(iter(loaded))
    with pytest.raises(ValueError, match="closed file"):
        loaded[name]


@pytest.mark.parametrize("classes", ["256", "300"])
def test_head_classes_above_255_is_exit_2_and_leaves_no_results_dir(tmp_path, capsys, classes):
    cfg = tmp_path / "classes.cfg"
    cfg.write_text(f"head.width = 8\nhead.classes = {classes}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["make-data", "--config", str(cfg), "--count", "1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "line 2" in err and "head.classes" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-toy", "forward"])
def test_out_of_memory_is_exit_2_and_leaves_no_results_dir(tmp_path, image_pair, capsys, command):
    # the first head weight alone needs about 227 PiB, more than a 64-bit address space holds
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("head.width = 1000000000000000\n", encoding="utf-8")
    ir, vis = image_pair
    extra = ["--steps", "1"] if command == "train-toy" else ["--ir", ir, "--vis", vis]
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out-dir", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("out of memory: ")
    assert not out.exists()


def test_image_size_beyond_its_bound_is_exit_2_and_leaves_no_results_dir(tmp_path, capsys):
    # numpy cannot index a [3, 1e9, 1e9] array at all: it raises ValueError, not MemoryError
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("data.image_size = 1000000000\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["make-data", "--config", str(cfg), "--count", "1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "bad value for 'data.image_size': must lie in [32, " in err
    assert not out.exists()


@pytest.mark.parametrize("config", ["small", "toy"])
def test_train_toy_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, small_config, config):
    """One and two OpenBLAS threads give byte-identical loss curves and checkpoints.

    toy.cfg's batched matmuls are the widest the program runs, the ones that
    could cross OpenBLAS's threading threshold.
    """
    cfg = small_config if config == "small" else str(REPO / "configs" / "toy.cfg")
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(REPO / "src"))
        subprocess.run(
            [sys.executable, "-c", "import sys; from ivgf.cli import main; sys.exit(main(sys.argv[1:]))",
             "train-toy", "--config", cfg, "--steps", "3", "--seed", "7", "--out-dir", str(out)],
            env=env, check=True, capture_output=True,
        )
        assert f"blas_threads = {threads}" in (out / "run_metadata.txt").read_text(encoding="utf-8")
        outputs[threads] = [(out / name).read_bytes() for name in ("loss_curve.csv", "model.ckpt")]
    assert outputs["1"] == outputs["2"]
