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
from .rng import RngState
from .tensor import Tensor


@dataclass
class AugConfig:
    grid: tuple = (4, 4)
    p_cutmix: float = 0.25  # per-cell swap probability
    p_cutout: float = 0.5  # probability of erasing cells in one modality
    cutout_cells: int = 2
    fill_value: float = 0.0
    enabled: bool = True

    def validate(self):
        rows, cols = self.grid
        if rows < 1 or cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.grid}")
        if not (0.0 <= self.p_cutmix <= 1.0 and 0.0 <= self.p_cutout <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if not 0 <= self.cutout_cells <= rows * cols:
            raise ValueError(f"cutout_cells {self.cutout_cells} exceeds grid of {rows * cols} cells")


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


def cell_bounds(h: int, w: int, rows: int, cols: int):
    """Row-major cell rectangles; trailing cells absorb any remainder."""
    if rows > h or cols > w:
        raise DimensionError(f"grid {rows}x{cols} larger than image {h}x{w}")
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


def sample_cutmix(cfg: AugConfig, rng: RngState) -> list:
    """Cells to exchange between the modalities: one Bernoulli draw per cell."""
    rows, cols = cfg.grid
    return [cell for cell in range(rows * cols) if rng.bernoulli(cfg.p_cutmix)]


def sample_cutout(cfg: AugConfig, rng: RngState) -> tuple[str, list]:
    """With probability p_cutout, pick one modality and cutout_cells cells to erase."""
    rows, cols = cfg.grid
    if rng.bernoulli(cfg.p_cutout) and cfg.cutout_cells > 0:
        modality = "ir" if rng.uniform() < 0.5 else "vis"
        return modality, sorted(rng.sample_distinct(rows * cols, cfg.cutout_cells))
    return "none", []


def cma_apply(x: Tensor, y: Tensor, cfg: AugConfig, rng: RngState):
    """cutmix then cutout, each sampled on its own derived stream, one merged record."""
    if x.shape != y.shape:
        raise DimensionError(f"modality shapes differ: {x.shape} vs {y.shape}")
    if not cfg.enabled:
        return Tensor(x.data.copy()), Tensor(y.data.copy()), AugRecord()
    cfg.validate()
    modality, cells = sample_cutout(cfg, rng.derive("cutout"))
    record = AugRecord(sample_cutmix(cfg, rng.derive("cutmix")), modality, cells)
    x2, y2 = apply_record(x, y, cfg, record)
    return x2, y2, record


def apply_record(x: Tensor, y: Tensor, cfg: AugConfig, record: AugRecord):
    """Swap then erase the recorded cells on copies of the inputs, no randomness."""
    rows, cols = cfg.grid
    _, h, w = x.shape
    bounds = cell_bounds(h, w, rows, cols)
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
            target[:, r0:r1, c0:c1] = cfg.fill_value
    return Tensor(xd), Tensor(yd)
