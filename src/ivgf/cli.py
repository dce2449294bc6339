"""Single executable: forward inference, gradient checking, augmentation
preview, toy training, evaluation (with missing-modality substitution), and
synthetic data generation.

Exit codes are a stable contract:
  0 success, 1 gradient-check violation, 2 config or argument error
  (out of memory included), 3 I/O or format error, 4 shape error,
  5 non-finite loss or parameter.

Seed precedence: --seed flag > IVGF_SEED env var > train.seed config key.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, augment, gradcheck, io_formats, pipeline, tensor
from .backbone import MISSING_MODES, feature_projection
from .errors import ConfigError, DimensionError, FormatError, NonFiniteError
from .rng import RngState

EXIT_OK = 0
EXIT_GRADCHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SHAPE = 4
EXIT_NONFINITE = 5


def _resolve_seed(flag_seed, cfg) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("IVGF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"IVGF_SEED must be an integer, got {env!r}") from None
    return cfg.train_seed


def _blas_threads() -> str:
    """Thread count of the OpenBLAS bundled with numpy, or "unknown" when it cannot be read."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return str(fn())
    return "unknown"


def _write_results(out_dir: Path, command: str, cfg, seed: int, files: dict) -> None:
    """Write run_metadata.txt to out_dir, then each {path: bytes} of files.

    `main` calls this once a command has returned every result encoded, so
    a failed command leaves no directory.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"command = {command}",
        f"version = {__version__}",
        f"seed = {seed}",
        f"wall_clock = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}",
        f"blas_threads = {_blas_threads()}",
        f"cores = {os.cpu_count()}",
        "outputs = " + ",".join(path.name for path in files),
        "",
        cfg.dump().rstrip("\n"),
    ]
    (out_dir / "run_metadata.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for path, data in files.items():
        path.write_bytes(data)


def _read_image(path: str):
    if not os.path.exists(path):
        raise FileNotFoundError(f"image file not found: {path}")
    return io_formats.read_pnm_file(path)


def _load_model(cfg, seed: int, ckpt_path):
    model = pipeline.build_model(cfg, seed)
    if ckpt_path is not None:
        if not os.path.exists(ckpt_path):
            raise FileNotFoundError(f"checkpoint not found: {ckpt_path}")
        with io_formats.load_checkpoint(ckpt_path) as loaded:
            model.store.load_arrays(loaded.arrays())
    return model


def _load_scene_dir(path: str, classes: int):
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"data directory not found: {path}")
    scenes = []
    any_labeled = False
    for ir_path in sorted(root.glob("*_ir.ppm")):
        stem = ir_path.name[: -len("_ir.ppm")]
        vis_path = root / f"{stem}_vis.ppm"
        mask_path = root / f"{stem}_mask.pgm"
        if not vis_path.exists() or not mask_path.exists():
            raise FileNotFoundError(f"scene {stem!r} is missing {vis_path.name} or {mask_path.name}")
        mask = io_formats.read_pgm_labels(mask_path)
        labeled = mask[mask != pipeline.IGNORE_LABEL]
        any_labeled |= labeled.size > 0
        if labeled.size and labeled.max() >= classes:
            raise FormatError(
                f"{mask_path.name}: label {int(labeled.max())} exceeds head.classes = {classes}"
            )
        scenes.append(
            pipeline.SyntheticScene(
                ir=io_formats.read_pnm_file(ir_path),
                vis=io_formats.read_pnm_file(vis_path),
                mask=mask,
            )
        )
    if not scenes:
        raise FileNotFoundError(f"no scenes (*_ir.ppm) found in {path}")
    if not any_labeled:
        raise FormatError(
            f"no labeled pixel in {path}: every mask pixel is {pipeline.IGNORE_LABEL}, so mIoU is undefined"
        )
    return scenes


# -- subcommands -----------------------------------------------------------------
# Every command but gradcheck takes (args, config, seed) and returns
# ({path: bytes}, stdout text); `main` writes the files, then prints the text.


def cmd_forward(args, cfg, seed: int):
    ir = _read_image(args.ir)
    vis = _read_image(args.vis)
    model = _load_model(cfg, seed, args.ckpt)
    with tensor.no_grad():
        feats, logits = pipeline.model_forward(model, ir, vis)
    out_dir = Path(args.out_dir)
    files = {out_dir / "mask.pgm": io_formats.encode_pgm_labels(logits.data.argmax(axis=0))}
    if args.dump_features:
        for i, ((fx, fy), fxy) in enumerate(zip(feats.pairs, feats.fused), start=1):
            for tag, fmap in (("x", fx), ("y", fy), ("xy", fxy)):
                files[out_dir / f"feat_s{i}_{tag}.pgm"] = io_formats.encode_pnm(feature_projection(fmap)[None])
    return files, ""


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    results = gradcheck.run_suite(seed=args.seed, trials=args.trials)
    print(f"{'block':<12} {'max_rel_err':>12} {'tolerance':>10}  status")
    failed = []
    for res in results:
        status = "ok" if res.ok else f"FAIL at {res.worst}"
        print(f"{res.block:<12} {res.max_err:>12.3e} {res.tolerance:>10.0e}  {status}")
        if not res.ok:
            failed.append(res)
    if failed:
        print(
            "gradient check failed: "
            + "; ".join(f"{r.block} ({r.worst}, err {r.max_err:.3e})" for r in failed),
            file=sys.stderr,
        )
        return EXIT_GRADCHECK
    return EXIT_OK


def cmd_train_toy(args, cfg, seed: int):
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    out_dir = Path(args.out_dir)
    ckpt_path = Path(args.out_ckpt) if args.out_ckpt else out_dir / "model.ckpt"
    for name in ("loss_curve.csv", "run_metadata.txt"):
        if ckpt_path.resolve() == (out_dir / name).resolve():
            raise ConfigError(f"--out-ckpt {ckpt_path} would overwrite the run's own {name}")
    if ckpt_path.parent != out_dir and not ckpt_path.parent.is_dir():
        raise FileNotFoundError(f"checkpoint directory not found: {ckpt_path.parent}")
    # out_dir and its parents will be directories once the results are written
    if ckpt_path.is_dir() or out_dir.resolve().is_relative_to(ckpt_path.resolve()):
        raise IsADirectoryError(f"checkpoint path is a directory: {ckpt_path}")
    model, losses = pipeline.train_toy(cfg, steps=args.steps, seed=seed)
    curve = "step,loss\n" + "".join(f"{i},{loss!r}\n" for i, loss in enumerate(losses))
    files = {
        out_dir / "loss_curve.csv": curve.encode("utf-8"),
        ckpt_path: io_formats.encode_checkpoint(model.store),
    }
    return files, ""


def cmd_eval(args, cfg, seed: int):
    scenes = _load_scene_dir(args.data, cfg.head_classes)
    model = _load_model(cfg, seed, args.ckpt)
    report = pipeline.evaluate(scenes, model, missing=args.missing)
    out_dir = Path(args.out_dir)
    text = pipeline.report_text(report)
    files = {
        out_dir / "report.txt": text.encode("utf-8"),
        out_dir / "report.csv": pipeline.report_csv(report).encode("utf-8"),
    }
    return files, text


def cmd_augment(args, cfg, seed: int):
    ir = _read_image(args.ir)
    vis = _read_image(args.vis)
    ir2, vis2, record = augment.cma_apply(ir, vis, cfg, RngState(seed).derive("augment"))
    out_dir = Path(args.out_dir)
    files = {
        out_dir / "ir_aug.ppm": io_formats.encode_pnm(ir2.data.clip(0.0, 1.0)),
        out_dir / "vis_aug.ppm": io_formats.encode_pnm(vis2.data.clip(0.0, 1.0)),
        out_dir / "record.txt": record.as_text().encode("utf-8"),
    }
    return files, ""


def cmd_make_data(args, cfg, seed: int):
    count = args.count if args.count is not None else (
        cfg.data_train_scenes if args.split == "train" else cfg.data_eval_scenes
    )
    if count < 1:
        raise ConfigError(f"--count must be >= 1, got {count}")
    scenes = pipeline.make_dataset(seed, args.split, count, cfg.data_image_size, cfg.head_classes)
    out_dir = Path(args.out_dir)
    files = {}
    for i, scene in enumerate(scenes):
        stem = f"scene_{i:03d}"
        files[out_dir / f"{stem}_ir.ppm"] = io_formats.encode_pnm(scene.ir)
        files[out_dir / f"{stem}_vis.ppm"] = io_formats.encode_pnm(scene.vis)
        files[out_dir / f"{stem}_mask.pgm"] = io_formats.encode_pgm_labels(scene.mask)
    return files, ""


# -- wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ivgf", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="config file (defaults apply when absent)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", required=True)

    p = sub.add_parser("forward", help="run dual-modality inference on one image pair")
    common(p)
    p.add_argument("--ir", required=True, help="infrared image (P5/P6 PNM)")
    p.add_argument("--vis", required=True, help="visible image (P5/P6 PNM)")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--dump-features", action="store_true", help="write all 12 per-scale feature views")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("gradcheck", help="verify every block's gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="train on the synthetic paired-modality task")
    common(p)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out-ckpt", default=None)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval", help="evaluate a checkpoint, optionally with a missing modality")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="directory of *_ir.ppm / *_vis.ppm / *_mask.pgm scenes")
    p.add_argument("--missing", choices=MISSING_MODES, default="none")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("augment", help="preview cutout&mix augmentation on one image pair")
    common(p)
    p.add_argument("--ir", required=True)
    p.add_argument("--vis", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("make-data", help="materialize synthetic scenes as PNM files")
    common(p)
    p.add_argument("--split", choices=("train", "eval"), default="eval")
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=cmd_make_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # non-finite values are detected explicitly and reported as exit 5
        with np.errstate(over="ignore", invalid="ignore"):
            if args.func is cmd_gradcheck:
                return cmd_gradcheck(args)
            cfg = io_formats.load_config(args.config)
            seed = _resolve_seed(args.seed, cfg)
            files, text = args.func(args, cfg, seed)
        _write_results(Path(args.out_dir), args.command, cfg, seed, files)
        print(text, end="")
        return EXIT_OK
    except SystemExit as exc:  # argparse reports bad flags with code 2
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # sizes the config asks for that this machine cannot hold
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DimensionError as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except NonFiniteError as exc:
        print(f"non-finite: {exc}", file=sys.stderr)
        return EXIT_NONFINITE


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
