"""Bit-exact external formats: PNM images, binary checkpoints, config files.

Everything here is platform independent: checkpoints are little-endian with
32-bit float payloads (widened to 64-bit as they are written into a
`ParamStore`), text formats are plain UTF-8. Parsers reject malformed input
wholesale; nothing is ever partially loaded.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NonFiniteError
from .params import ParamStore
from .tensor import Tensor

CHECKPOINT_MAGIC = b"IVGF"
CHECKPOINT_VERSION = 1


# -- PNM images ---------------------------------------------------------------


def _next_pnm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments, then collect one token
    n = len(data)
    while pos < n:
        b = data[pos]
        if b in b" \t\r\n\v\f":
            pos += 1
        elif b == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("unexpected end of header", offset=pos)
    start = pos
    while pos < n and data[pos] not in b" \t\r\n\v\f#":
        pos += 1
    return data[start:pos], pos


def _pnm_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, end = _next_pnm_token(data, pos)
    if not token.isdigit():
        raise FormatError(f"expected integer {what}, got {token[:16]!r}", offset=pos)
    return int(token), end


def _parse_pnm_header(data: bytes, magics: tuple) -> tuple[bytes, int, int, int]:
    """Check a binary PNM header against `magics` and the payload length.

    Returns (magic, width, height, payload offset). Only maxval 255 is
    accepted, and exactly one whitespace byte separates header and payload.
    """
    magic = data[:2]
    if magic not in magics:
        expected = " or ".join(m.decode() for m in magics)
        raise FormatError(f"bad magic {magic!r}, expected {expected}", offset=0)
    width, pos = _pnm_int(data, 2, "width")
    height, pos = _pnm_int(data, pos, "height")
    maxval, pos = _pnm_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise FormatError(f"bad image size {width}x{height}", offset=pos)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, only 255 accepted", offset=pos)
    if pos >= len(data) or data[pos] not in b" \t\r\n\v\f":
        raise FormatError("missing single whitespace before payload", offset=pos)
    pos += 1
    need = width * height * (3 if magic == b"P6" else 1)
    if len(data) - pos < need:
        raise FormatError(f"payload holds {len(data) - pos} bytes, need {need}", offset=pos)
    return magic, width, height, pos


def read_pnm(data: bytes) -> Tensor:
    """Parse binary P5/P6 bytes into a [3,H,W] tensor with values in [0,1].

    P5 grayscale is replicated to three identical channels. Only maxval 255
    is accepted.
    """
    magic, width, height, pos = _parse_pnm_header(data, (b"P5", b"P6"))
    channels = 1 if magic == b"P5" else 3
    raw = np.frombuffer(data, dtype=np.uint8, count=width * height * channels, offset=pos)
    img = raw.reshape(height, width, channels).transpose(2, 0, 1).astype(np.float64) / 255.0
    return Tensor(np.repeat(img, 3, axis=0) if channels == 1 else img)


def read_pnm_file(path) -> Tensor:
    with open(path, "rb") as fh:
        return read_pnm(fh.read())


def encode_pnm(image: Tensor | np.ndarray) -> bytes:
    """Serialize a [3,H,W] (P6) or [1,H,W]/[H,W] (P5) image in [0,1].

    Quantization rounds half away from zero: v -> floor(255*v + 0.5).
    Out-of-range values are rejected; clamping is the caller's decision.
    """
    arr = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise DimensionError(f"PNM writer expects [1|3,H,W], got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError("cannot write an empty image")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(
            f"pixel values must lie in [0,1] (got min {arr.min():g}, max {arr.max():g}); clamp first"
        )
    c, h, w = arr.shape
    quantized = np.floor(arr * 255.0 + 0.5).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (w, h)
    if c == 1:
        payload = quantized[0].tobytes()
    else:
        payload = quantized.transpose(1, 2, 0).tobytes()
    return header + payload


def encode_pgm_labels(ids: np.ndarray) -> bytes:
    """Serialize an [H,W] integer label map as raw P5 gray levels (0..255)."""
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise DimensionError(f"label map must be [H,W], got shape {ids.shape}")
    if ids.min() < 0 or ids.max() > 255:
        raise ValueError("label ids must fit in one byte")
    h, w = ids.shape
    return b"P5\n%d %d\n255\n" % (w, h) + ids.astype(np.uint8).tobytes()


def read_pgm_labels(path) -> np.ndarray:
    """Read a raw P5 file back as an [H,W] integer label map (no scaling)."""
    with open(path, "rb") as fh:
        data = fh.read()
    _, width, height, pos = _parse_pnm_header(data, (b"P5",))
    raw = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return raw.reshape(height, width).astype(np.int64)


# -- checkpoints --------------------------------------------------------------


def encode_checkpoint(store: ParamStore) -> bytes:
    """magic | u32 version | u32 count | (u32 name_len, name, u32 ndim, u32 dims..., f32 values...)."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(store))]
    for name, p in store.items():
        with np.errstate(over="ignore"):  # overflow shows up as inf, checked next
            values = p.data.astype("<f4")
        if not np.all(np.isfinite(values)):
            raise NonFiniteError(f"parameter {name!r} is not finite in float32; refusing to save it")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", p.data.ndim))
        chunks.append(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
        chunks.append(values.tobytes())
    return b"".join(chunks)


class Checkpoint(dict):
    """A decoded checkpoint: read-only float32 arrays by name, in file order.

    Each array is a view into the bytes the checkpoint was decoded from, so
    decoding copies no payload; widening to float64 happens where the
    values are written, in `ParamStore.load_arrays`.
    """

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(self)


def decode_checkpoint(data: bytes) -> Checkpoint:
    pos = 0

    def take(n: int, what: str) -> int:
        """Claim the next n bytes and return their offset."""
        nonlocal pos
        if len(data) - pos < n:
            raise FormatError(f"truncated checkpoint while reading {what}", offset=pos)
        pos += n
        return pos - n

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, data, take(struct.calcsize(fmt), what))

    take(4, "magic")
    if data[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {data[:4]!r}", offset=0)
    version, count = unpack("<II", "header")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    entries = Checkpoint()
    for _ in range(count):
        (name_len,) = unpack("<I", "name length")
        start = take(name_len, "name")
        try:
            name = bytes(data[start:pos]).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("checkpoint entry name is not UTF-8", offset=start) from None
        (ndim,) = unpack("<I", "ndim")
        dims = unpack(f"<{ndim}I", "dims")
        n_values = math.prod(dims)  # exact: a product too large for the data fails the length check
        start = take(4 * n_values, f"values of {name!r}")
        if name in entries:
            raise FormatError(f"duplicate checkpoint entry {name!r}", offset=pos)
        values = np.frombuffer(data, dtype="<f4", count=n_values, offset=start)
        try:
            values = values.reshape(dims)
        except ValueError as exc:  # more than 64 dims, or a size numpy cannot index even with a 0 dim
            raise FormatError(f"entry {name!r} has a shape numpy cannot hold: {exc}", offset=pos) from None
        entries[name] = values
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes after last entry", offset=pos)
    return entries


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return decode_checkpoint(fh.read())


# -- config files --------------------------------------------------------------


@dataclass
class Config:
    fem_enabled: bool = True
    fem_mode: str = "parallel"
    tem_enabled: bool = True
    tem_adapters: int = 2
    agf_enabled: bool = True
    agf_heads: int = 4
    backbone_base_width: int = 32
    backbone_depth: int = 9
    head_width: int = 64
    head_classes: int = 4
    aug_enabled: bool = True
    aug_grid_rows: int = 4
    aug_grid_cols: int = 4
    aug_p_cutmix: float = 0.25
    aug_p_cutout: float = 0.5
    aug_cutout_cells: int = 2
    aug_fill_value: float = 0.0
    train_lr: float = 1e-4
    train_weight_decay: float = 0.05
    train_batch_size: int = 2
    train_seed: int = 7
    data_train_scenes: int = 64
    data_eval_scenes: int = 16
    data_image_size: int = 64

    def widths(self) -> tuple[int, int, int, int]:
        w = self.backbone_base_width
        return (w, 2 * w, 4 * w, 8 * w)

    def dump(self) -> str:
        """Canonical `key = value` lines, sorted, for run metadata."""
        lines = []
        for key, (field_name, _spec) in sorted(_KEYS.items()):
            value = getattr(self, field_name)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"


def _parse_bool(raw: str):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError("expected true or false")


def _int_at_least(minimum):
    def parse(raw):
        value = int(raw)
        if value < minimum:
            raise ValueError(f"must be >= {minimum}")
        return value

    return parse


def _int_in(lo, hi):
    def parse(raw):
        value = int(raw)
        if not lo <= value <= hi:
            raise ValueError(f"must lie in [{lo}, {hi}]")
        return value

    return parse


def _real_in(lo, hi):
    def parse(raw):
        value = float(raw)
        if not math.isfinite(value) or not lo <= value <= hi:
            raise ValueError(f"must lie in [{lo}, {hi}]")
        return value

    return parse


def _real_positive(raw):
    value = float(raw)
    if not math.isfinite(value) or value <= 0:
        raise ValueError("must be > 0")
    return value


def _real_nonneg(raw):
    value = float(raw)
    if not math.isfinite(value) or value < 0:
        raise ValueError("must be >= 0")
    return value


def _real_finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _enum(*tokens):
    def parse(raw):
        if raw not in tokens:
            raise ValueError(f"expected one of {', '.join(tokens)}")
        return raw

    return parse


# dotted key -> (Config field, value parser)
_KEYS = {
    "fem.enabled": ("fem_enabled", _parse_bool),
    "fem.mode": ("fem_mode", _enum("parallel", "serial", "channel_only", "spatial_only")),
    "tem.enabled": ("tem_enabled", _parse_bool),
    "tem.adapters": ("tem_adapters", _int_at_least(0)),
    "agf.enabled": ("agf_enabled", _parse_bool),
    "agf.heads": ("agf_heads", _int_at_least(1)),
    "backbone.base_width": ("backbone_base_width", _int_at_least(1)),
    "backbone.depth": ("backbone_depth", _int_at_least(1)),
    "head.width": ("head_width", _int_at_least(1)),
    # class ids 0..classes-1 must stay below the ignore label 255
    "head.classes": ("head_classes", _int_in(2, 255)),
    "aug.enabled": ("aug_enabled", _parse_bool),
    "aug.grid_rows": ("aug_grid_rows", _int_at_least(1)),
    "aug.grid_cols": ("aug_grid_cols", _int_at_least(1)),
    "aug.p_cutmix": ("aug_p_cutmix", _real_in(0.0, 1.0)),
    "aug.p_cutout": ("aug_p_cutout", _real_in(0.0, 1.0)),
    "aug.cutout_cells": ("aug_cutout_cells", _int_at_least(0)),
    "aug.fill_value": ("aug_fill_value", _real_finite),
    "train.lr": ("train_lr", _real_positive),
    "train.weight_decay": ("train_weight_decay", _real_nonneg),
    "train.batch_size": ("train_batch_size", _int_at_least(1)),
    "train.seed": ("train_seed", lambda raw: int(raw)),
    "data.train_scenes": ("data_train_scenes", _int_at_least(1)),
    "data.eval_scenes": ("data_eval_scenes", _int_at_least(1)),
    "data.image_size": ("data_image_size", _int_at_least(32)),
}


def parse_config(text: str) -> Config:
    """Parse `key = value` lines into a validated Config.

    Unknown keys, duplicates, type errors and cross-key inconsistencies are
    all rejected with the offending line number; absent keys take defaults.
    """
    values: dict[str, object] = {}
    key_lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in key_lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first set on line {key_lines[key]})")
        key_lines[key] = lineno
        field_name, parse = _KEYS[key]
        try:
            values[field_name] = parse(raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    cfg = Config(**values)
    _validate_config(cfg, key_lines)
    return cfg


def _blame_line(key_lines: dict[str, int], *keys: str) -> str:
    for key in keys:
        if key in key_lines:
            return f"line {key_lines[key]}: "
    return ""


def _validate_config(cfg: Config, key_lines: dict[str, int]):
    if cfg.backbone_base_width % cfg.agf_heads != 0:
        raise ConfigError(
            _blame_line(key_lines, "agf.heads", "backbone.base_width")
            + f"agf.heads = {cfg.agf_heads} must divide channel width {cfg.backbone_base_width}"
        )
    cells = cfg.aug_grid_rows * cfg.aug_grid_cols
    if cfg.aug_cutout_cells > cells:
        raise ConfigError(
            _blame_line(key_lines, "aug.cutout_cells", "aug.grid_rows", "aug.grid_cols")
            + f"aug.cutout_cells = {cfg.aug_cutout_cells} exceeds the {cells}-cell grid"
        )
    if cfg.data_image_size % 32 != 0:
        raise ConfigError(
            _blame_line(key_lines, "data.image_size")
            + f"data.image_size = {cfg.data_image_size} must be divisible by 32"
        )


def load_config(path=None) -> Config:
    if path is None:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)
