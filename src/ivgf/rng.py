"""Deterministic counter-based random numbers.

A stream is (seed, counter): draw i is a pure function of both, so any
stream can be replayed from its seed, and `derive` splits independent
sub-streams per subsystem ("init", "augment", "data", ...) without the
consumers ever perturbing each other. All arithmetic is 64-bit integer,
identical on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Values per chunk of a `fill_uniform` draw. The output is allocated once
# and each chunk's splitmix64 words (two 32 k uint64 buffers, 512 kB) are
# mixed in cache and written into it, so a draw's scratch is bounded by the
# chunk, not by the weight, and building a model peaks at about its
# parameter bytes. On toy.cfg 16 k-64 k measured best and 4 k or 256 k
# about 15% slower; the best size follows the cache rather than the model,
# so it is a constant, as `pipeline.ADAMW_CHUNK` is.
FILL_CHUNK = 32768


def _finalize(z: int) -> int:
    # splitmix64 output mixer
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _key_word(key) -> int:
    if isinstance(key, bool):
        raise TypeError("bool is not a valid stream key")
    if isinstance(key, int):
        return key & _MASK
    if isinstance(key, str):
        h = 0xCBF29CE484222325  # FNV-1a over UTF-8 bytes
        for byte in key.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK
        return h
    raise TypeError(f"stream keys must be int or str, got {type(key).__name__}")


class RngState:
    """One random stream: a 64-bit seed plus a draw counter."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK
        self.counter = int(counter)

    def derive(self, *keys) -> "RngState":
        """Child stream keyed by (seed, *keys); independent of this one."""
        h = self.seed
        for key in keys:
            h = _finalize((h ^ _key_word(key)) + _GOLDEN)
        return RngState(h)

    def next_u64(self) -> int:
        self.counter += 1
        return _finalize((self.seed + _GOLDEN * self.counter) & _MASK)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is < n/2**64, irrelevant here."""
        if n <= 0:
            raise DimensionError(f"randint needs n > 0, got {n}")
        return self.next_u64() % n

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p

    def sample_distinct(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), partial Fisher-Yates order."""
        if not 0 <= k <= n:
            raise DimensionError(f"cannot sample {k} distinct values from {n}")
        pool = list(range(n))
        out = []
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out

    def fill_uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Vectorized batch of uniform draws; bit-identical to repeated uniform().

        A shape with a negative dim, or one numpy cannot hold, raises
        `DimensionError` before the counter moves.
        """
        try:
            out = np.empty(shape)
        except ValueError as exc:  # a negative dim, or a size beyond numpy's index range
            raise DimensionError(f"fill_uniform cannot draw shape {shape}: {exc}") from None
        n = out.size  # exact: numpy refused any shape whose size overflows
        flat = out.reshape(-1)
        seed, golden = np.uint64(self.seed), np.uint64(_GOLDEN)
        shifted = np.empty(min(n, FILL_CHUNK), dtype=np.uint64)
        for start in range(0, n, FILL_CHUNK):
            stop = min(start + FILL_CHUNK, n)
            z = np.arange(self.counter + start + 1, self.counter + stop + 1, dtype=np.uint64)
            t = shifted[: stop - start]
            z *= golden
            z += seed
            np.right_shift(z, np.uint64(30), out=t)  # `_finalize`, in place
            z ^= t
            z *= np.uint64(0xBF58476D1CE4E5B9)
            np.right_shift(z, np.uint64(27), out=t)
            z ^= t
            z *= np.uint64(0x94D049BB133111EB)
            np.right_shift(z, np.uint64(31), out=t)
            z ^= t
            np.right_shift(z, np.uint64(11), out=t)
            u = flat[start:stop]
            u[...] = t
            u *= 2.0**-53
            u *= hi - lo
            u += lo
        self.counter += n
        return out
