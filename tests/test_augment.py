"""Augmentation laws: exchange symmetry, conservation, counting, determinism."""

import numpy as np
import pytest

from ivgf.augment import (
    AugConfig,
    AugRecord,
    apply_record,
    cell_bounds,
    cma_apply,
    sample_cutmix,
    sample_cutout,
)
from ivgf.errors import ConfigError, DimensionError
from ivgf.rng import RngState
from ivgf.tensor import Tensor


def _pair(seed, c=3, h=8, w=8):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0.1, 0.9, (c, h, w))), Tensor(rng.uniform(0.1, 0.9, (c, h, w)))


def cutmix(x, y, cfg, rng):
    """Sample cutmix alone on `rng`, then apply it through the record."""
    record = AugRecord(swapped_cells=sample_cutmix(cfg, rng))
    return (*apply_record(x, y, cfg, record), record)


def cutout(x, y, cfg, rng):
    """Sample cutout alone on `rng`, then apply it through the record."""
    modality, cells = sample_cutout(cfg, rng)
    record = AugRecord(cutout_modality=modality, cutout_cells_applied=cells)
    return (*apply_record(x, y, cfg, record), record)


class TestCellGrid:
    def test_even_split(self):
        bounds = cell_bounds(8, 8, 4, 4)
        assert len(bounds) == 16
        assert bounds[0] == (0, 2, 0, 2)
        assert bounds[-1] == (6, 8, 6, 8)

    def test_trailing_cells_absorb_remainder(self):
        bounds = cell_bounds(10, 7, 4, 4)
        assert bounds[0] == (0, 2, 0, 1)
        # last row/col cells run to the image edge
        assert bounds[-1] == (6, 10, 3, 7)
        total = sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in bounds)
        assert total == 10 * 7

    def test_grid_larger_than_image_rejected(self):
        with pytest.raises(DimensionError):
            cell_bounds(3, 3, 4, 4)


class TestCutmix:
    def test_p_zero_is_identity_with_empty_record(self):
        x, y = _pair(0)
        cfg = AugConfig(p_cutmix=0.0)
        x2, y2, rec = cutmix(x, y, cfg, RngState(1))
        assert np.array_equal(x2.data, x.data) and np.array_equal(y2.data, y.data)
        assert rec.swapped_cells == []

    def test_exchange_law(self):
        # every output pixel comes from one of the two inputs, and the swap
        # is symmetric: x' takes y exactly where y' takes x
        x, y = _pair(1)
        cfg = AugConfig(p_cutmix=0.5)
        x2, y2, rec = cutmix(x, y, cfg, RngState(42))
        assert rec.swapped_cells  # seed chosen so something swaps
        from_x = x2.data == x.data
        from_y = x2.data == y.data
        assert np.all(from_x | from_y)
        swapped = x2.data == y.data
        assert np.array_equal(y2.data[swapped], x.data[swapped])
        assert np.array_equal(y2.data[~swapped], y.data[~swapped])

    def test_pixel_conservation(self):
        x, y = _pair(2)
        cfg = AugConfig(p_cutmix=0.5)
        x2, y2, _ = cutmix(x, y, cfg, RngState(7))
        before = np.sort(np.concatenate([x.data.reshape(-1), y.data.reshape(-1)]))
        after = np.sort(np.concatenate([x2.data.reshape(-1), y2.data.reshape(-1)]))
        assert np.array_equal(before, after)

    def test_rng_replay_reproduces_swap_set(self):
        x = Tensor(np.full((3, 8, 8), 0.25))
        y = Tensor(np.full((3, 8, 8), 0.75))
        cfg = AugConfig(grid=(4, 4), p_cutmix=0.5)
        _, _, rec = cutmix(x, y, cfg, RngState(42))
        # independent replay of the same stream decides the same cells
        replay = RngState(42)
        expected = [cell for cell in range(16) if replay.uniform() < 0.5]
        assert rec.swapped_cells == expected


class TestCutout:
    def test_p_zero_is_identity(self):
        x, y = _pair(3)
        x2, y2, rec = cutout(x, y, AugConfig(p_cutout=0.0), RngState(5))
        assert np.array_equal(x2.data, x.data) and np.array_equal(y2.data, y.data)
        assert rec.cutout_modality == "none"

    def test_counting_law(self):
        # exactly cutout_cells * cell_area * C entries change, all to fill_value
        x = Tensor(np.full((3, 8, 8), 0.4))
        y = Tensor(np.full((3, 8, 8), 0.6))
        cfg = AugConfig(grid=(4, 4), p_cutout=1.0, cutout_cells=2, fill_value=0.0)
        x2, y2, rec = cutout(x, y, cfg, RngState(11))
        changed_x = np.count_nonzero(x2.data != x.data)
        changed_y = np.count_nonzero(y2.data != y.data)
        assert len(rec.cutout_cells_applied) == 2
        expected = 2 * (2 * 2) * 3  # cells * cell area * channels
        if rec.cutout_modality == "ir":
            assert (changed_x, changed_y) == (expected, 0)
            assert np.all(x2.data[x2.data != x.data] == 0.0)
        else:
            assert (changed_x, changed_y) == (0, expected)
            assert np.all(y2.data[y2.data != y.data] == 0.0)

    def test_touches_exactly_one_modality(self):
        for seed in range(40):
            x, y = _pair(seed + 100)
            cfg = AugConfig(p_cutout=1.0, cutout_cells=3, fill_value=0.0)
            x2, y2, rec = cutout(x, y, cfg, RngState(seed))
            touched_x = not np.array_equal(x2.data, x.data)
            touched_y = not np.array_equal(y2.data, y.data)
            assert touched_x != touched_y
            assert rec.cutout_modality == ("ir" if touched_x else "vis")

    def test_modality_frequency(self):
        # apply-with-p-0.5 then pick-ir-with-0.5: ir frequency 0.25 +/- 0.02
        cfg = AugConfig(grid=(2, 2), p_cutout=0.5, cutout_cells=1)
        x = Tensor(np.full((1, 4, 4), 0.5))
        y = Tensor(np.full((1, 4, 4), 0.5))
        root = RngState(123)
        hits = 0
        trials = 10_000
        for i in range(trials):
            _, _, rec = cutout(x, y, cfg, root.derive("trial", i))
            hits += rec.cutout_modality == "ir"
        assert abs(hits / trials - 0.25) <= 0.02


class TestCma:
    def test_disabled_is_identity(self):
        x, y = _pair(4)
        cfg = AugConfig(enabled=False, p_cutmix=1.0, p_cutout=1.0)
        x2, y2, rec = cma_apply(x, y, cfg, RngState(9))
        assert np.array_equal(x2.data, x.data) and np.array_equal(y2.data, y.data)
        assert rec.swapped_cells == [] and rec.cutout_modality == "none"

    def test_same_seed_bit_identical(self):
        x, y = _pair(5)
        cfg = AugConfig()
        a = cma_apply(x, y, cfg, RngState(31))
        b = cma_apply(x, y, cfg, RngState(31))
        assert a[0].data.tobytes() == b[0].data.tobytes()
        assert a[1].data.tobytes() == b[1].data.tobytes()
        assert a[2] == b[2]

    def test_composition_equals_sub_ops_on_split_streams(self):
        x, y = _pair(6)
        cfg = AugConfig(p_cutmix=0.4, p_cutout=0.9, cutout_cells=2)
        root = RngState(55)
        xa, ya, rec = cma_apply(x, y, cfg, root)
        x1, y1, rec_mix = cutmix(x, y, cfg, RngState(55).derive("cutmix"))
        x2, y2, rec_out = cutout(x1, y1, cfg, RngState(55).derive("cutout"))
        # the merged record replays to the same pixels as the two steps in turn
        assert np.array_equal(xa.data, x2.data) and np.array_equal(ya.data, y2.data)
        assert rec.swapped_cells == rec_mix.swapped_cells
        assert rec.cutout_modality == rec_out.cutout_modality
        assert rec.cutout_cells_applied == rec_out.cutout_cells_applied

    def test_record_replay_reproduces_outputs(self):
        x, y = _pair(7)
        cfg = AugConfig(p_cutmix=0.5, p_cutout=1.0, cutout_cells=2)
        xa, ya, rec = cma_apply(x, y, cfg, RngState(77))
        xr, yr = apply_record(x, y, cfg, rec)
        assert np.array_equal(xa.data, xr.data) and np.array_equal(ya.data, yr.data)

    def test_inputs_never_mutated(self):
        x, y = _pair(8)
        bx, by = x.data.copy(), y.data.copy()
        cma_apply(x, y, AugConfig(p_cutmix=1.0, p_cutout=1.0), RngState(3))
        assert np.array_equal(x.data, bx) and np.array_equal(y.data, by)


def test_config_validation():
    with pytest.raises(ValueError):
        AugConfig(p_cutmix=1.5).validate()
    with pytest.raises(ValueError):
        AugConfig(cutout_cells=99).validate()
    with pytest.raises(ValueError):
        AugConfig(grid=(0, 4)).validate()


@pytest.mark.parametrize("cfg", [AugConfig(p_cutmix=1.5), AugConfig(p_cutout=-0.1), AugConfig(cutout_cells=99),
                                 AugConfig(grid=(0, 4))])
def test_invalid_config_is_a_config_error(cfg):
    with pytest.raises(ConfigError):
        cfg.validate()
