"""Portable seeded pseudo-randomness.

The generator is counter-based SplitMix64 (Steele, Lea & Flood's mixing
function): draw i of a stream keyed by ``key`` is

    out_i = mix64(key + (i + 1) * 0x9E3779B97F4A7C15)  (mod 2**64)

which makes every draw a pure function of (key, i). All arithmetic is
exact 64-bit integer math, so the integer stream is bit-identical on
every platform and the whole stream can be produced vectorised with
numpy uint64 ops. Real-valued draws are derived from the integer stream
with IEEE-754 double arithmetic; uniforms and permutations are exactly
portable, normals additionally go through libm log/cos and are portable
up to last-ulp libm differences.

Independent child streams come from `derive`, which folds string/int
tags into a fresh key. All stochastic choices in the package (weight
init, episode sampling, batch shuffling, image synthesis) are drawn from
this generator so a run is fully determined by its seeds.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

_U64_SCALE = 2.0**-53  # maps the top 53 bits of a u64 onto [0, 1)


def _mix64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _fnv1a(data: bytes) -> np.uint64:
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for b in data:
            h = (h ^ np.uint64(b)) * _FNV_PRIME
    return h


class Rng:
    """Deterministic random stream with a 64-bit seed."""

    def __init__(self, seed: int, _key: np.uint64 | None = None):
        self.seed = int(seed)
        self._key = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)) if _key is None else _key
        self._counter = 0

    def derive(self, *tags: int | str) -> "Rng":
        """Child stream keyed by (this key, tags); independent of draws made here."""
        k = self._key
        with np.errstate(over="ignore"):
            for tag in tags:
                if isinstance(tag, str):
                    k = _mix64(k ^ _fnv1a(tag.encode("utf-8")))
                else:
                    k = _mix64(k ^ _mix64(np.uint64(int(tag) & 0xFFFFFFFFFFFFFFFF) + _GOLDEN))
        return Rng(self.seed, _key=k)

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(self._key + idx * _GOLDEN)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0, dtype=np.float64) -> np.ndarray:
        """Uniform on [low, high), from the top 53 bits of each raw draw."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _U64_SCALE
        out = (low + (high - low) * u).astype(dtype)
        return out.reshape(shape) if shape else out[0]

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0, dtype=np.float64) -> np.ndarray:
        """Standard Box-Muller normals (pairs of uniforms, u1 kept in (0, 1])."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        m = (n + 1) // 2
        raw = self._raw(2 * m)
        u1 = ((raw[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * _U64_SCALE
        u2 = (raw[m:] >> np.uint64(11)).astype(np.float64) * _U64_SCALE
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        out = (mean + std * z).astype(dtype)
        return out.reshape(shape) if shape else out[0]

    def below(self, bound: int) -> int:
        """One integer uniform on [0, bound). Bias is < bound / 2**53, negligible here."""
        return int(self.uniform() * bound)

    def _below_each(self, bounds: np.ndarray) -> list[int]:
        """[below(b) for b in bounds] from one vectorised draw.

        Each `below` call takes exactly one counter slot, so the draws,
        and the counter afterwards, are those of the loop.
        """
        return (self.uniform((len(bounds),)) * bounds).astype(np.int64).tolist()

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n); exactly portable."""
        out = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), self._below_each(np.arange(n, 1, -1))):
            out[i], out[j] = out[j], out[i]
        return np.array(out, dtype=np.int64)

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), returned sorted ascending."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n} without replacement")
        pool = list(range(n))
        for i, j in enumerate(self._below_each(np.arange(n, n - k, -1))):
            j += i
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:k])
