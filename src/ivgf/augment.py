"""Cutout&mix augmentation for paired modality images.

cutmix swaps grid cells between the two modalities; cutout erases a few
cells in one randomly chosen modality. Both are sampled from an explicit
RngState into an AugRecord, and the record alone decides the pixels, so a
(seed, config, inputs) triple always reproduces the same pair. Ground-truth
masks are never touched: both modalities image the same scene, so labels
stay valid under either transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionError
from .io_formats import Config
from .rng import RngState
from .tensor import Tensor


@dataclass
class AugRecord:
    """Everything needed to replay one augmentation exactly."""

    swapped_cells: list = field(default_factory=list)
    cutout_modality: str = "none"  # ir | vis | none
    cutout_cells_applied: list = field(default_factory=list)

    def as_text(self) -> str:
        lines = [
            "swapped_cells = " + (",".join(map(str, self.swapped_cells)) if self.swapped_cells else "-"),
            f"cutout_modality = {self.cutout_modality}",
            "cutout_cells = " + (",".join(map(str, self.cutout_cells_applied)) if self.cutout_cells_applied else "-"),
        ]
        return "\n".join(lines) + "\n"


def check_grid(h: int, w: int, rows: int, cols: int):
    if rows > h or cols > w:
        raise DimensionError(f"grid {rows}x{cols} larger than image {h}x{w}")


def cell_bounds(h: int, w: int, rows: int, cols: int):
    """Row-major cell rectangles; trailing cells absorb any remainder."""
    check_grid(h, w, rows, cols)
    rstep, cstep = h // rows, w // cols
    bounds = []
    for r in range(rows):
        r0 = r * rstep
        r1 = (r + 1) * rstep if r + 1 < rows else h
        for c in range(cols):
            c0 = c * cstep
            c1 = (c + 1) * cstep if c + 1 < cols else w
            bounds.append((r0, r1, c0, c1))
    return bounds


def sample_cutmix(cfg: Config, rng: RngState) -> list:
    """Cells to exchange between the modalities: one Bernoulli draw per cell."""
    cells = cfg.aug_grid_rows * cfg.aug_grid_cols
    return [cell for cell in range(cells) if rng.bernoulli(cfg.aug_p_cutmix)]


def sample_cutout(cfg: Config, rng: RngState) -> tuple[str, list]:
    """With probability aug.p_cutout, pick one modality and aug.cutout_cells cells to erase."""
    if rng.bernoulli(cfg.aug_p_cutout) and cfg.aug_cutout_cells > 0:
        modality = "ir" if rng.uniform() < 0.5 else "vis"
        return modality, sorted(rng.sample_distinct(cfg.aug_grid_rows * cfg.aug_grid_cols, cfg.aug_cutout_cells))
    return "none", []


def cma_apply(x: Tensor, y: Tensor, cfg: Config, rng: RngState):
    """cutmix then cutout, each sampled on its own derived stream, one merged record."""
    if x.shape != y.shape:
        raise DimensionError(f"modality shapes differ: {x.shape} vs {y.shape}")
    if not cfg.aug_enabled:
        return Tensor(x.data.copy()), Tensor(y.data.copy()), AugRecord()
    check_grid(*x.shape[-2:], cfg.aug_grid_rows, cfg.aug_grid_cols)  # before drawing once per cell
    modality, cells = sample_cutout(cfg, rng.derive("cutout"))
    record = AugRecord(sample_cutmix(cfg, rng.derive("cutmix")), modality, cells)
    x2, y2 = apply_record(x, y, cfg, record)
    return x2, y2, record


def apply_record(x: Tensor, y: Tensor, cfg: Config, record: AugRecord):
    """Swap then erase the recorded cells on copies of the inputs, no randomness."""
    _, h, w = x.shape
    bounds = cell_bounds(h, w, cfg.aug_grid_rows, cfg.aug_grid_cols)
    xd, yd = x.data.copy(), y.data.copy()
    for cell in record.swapped_cells:
        r0, r1, c0, c1 = bounds[cell]
        patch = xd[:, r0:r1, c0:c1].copy()
        xd[:, r0:r1, c0:c1] = yd[:, r0:r1, c0:c1]
        yd[:, r0:r1, c0:c1] = patch
    if record.cutout_modality != "none":
        target = xd if record.cutout_modality == "ir" else yd
        for cell in record.cutout_cells_applied:
            r0, r1, c0, c1 = bounds[cell]
            target[:, r0:r1, c0:c1] = cfg.aug_fill_value
    return Tensor(xd), Tensor(yd)
