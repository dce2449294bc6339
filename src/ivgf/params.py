"""Named parameter tensors with deterministic initialization.

Weights draw from U(-1/sqrt(fan_in), +1/sqrt(fan_in)) on a stream derived
from ("init", name), so adding or removing a parameter never shifts any
other parameter's values. Biases start at zero, norm gains at one.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .errors import DimensionError, NonFiniteError
from .rng import RngState
from .tensor import Tensor


class ParamStore:
    """Insertion-ordered mapping of unique names to trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise DimensionError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def items(self):
        return self._params.items()

    def load_arrays(self, arrays: Mapping[str, np.ndarray]):
        """Copy values in by name, in place; names and shapes must match exactly.

        Two passes over the mapping, each looking every entry up afresh. The
        check pass checks each entry's shape, then its finiteness, and keeps
        none of them; the write pass widens each straight into its parameter.
        So a refused load leaves the store as it was, and a `Checkpoint`,
        which reads an entry per lookup, holds one entry in memory at a time.
        Float32 entries are checked as float32 (finite exactly when their
        float64 widening is) and widened by the write itself, with no float64
        copy.
        """
        missing = [n for n in self._params if n not in arrays]
        extra = [n for n in arrays if n not in self._params]
        if missing or extra:
            raise DimensionError(
                f"parameter set mismatch: missing {missing[:3]}, unexpected {extra[:3]}"
            )
        for name in arrays:
            values = np.asarray(arrays[name])
            shape = self._params[name].data.shape
            if values.shape != shape:
                raise DimensionError(
                    f"parameter {name!r}: stored shape {values.shape} != model shape {shape}"
                )
            if not np.all(np.isfinite(values)):
                raise NonFiniteError(f"parameter {name!r} holds a NaN or infinite value; refusing to load it")
            del values  # before the next lookup allocates its entry
        for name in arrays:
            self._params[name].data[...] = arrays[name]


def weight(store: ParamStore, rng: RngState, name: str, shape, fan_in: int) -> Tensor:
    scale = 1.0 / math.sqrt(fan_in)
    data = rng.derive("init", name).fill_uniform(shape, -scale, scale)
    return store.add(name, Tensor(data, requires_grad=True))


def bias(store: ParamStore, name: str, width: int) -> Tensor:
    return store.add(name, Tensor(np.zeros(width), requires_grad=True))


def norm_gain(store: ParamStore, name: str, width: int) -> Tensor:
    return store.add(name, Tensor(np.ones(width), requires_grad=True))
