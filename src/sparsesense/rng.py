"""Deterministic, portable random number generation.

A splitmix64 mixer seeds a xoshiro256++ stream.  The synthetic data, their
timestamps and the top-k SVD's start columns draw from this generator so
that they are bit-identical across runs and platforms.  Gaussian variates
come from Box-Muller with both outputs consumed in order; uniform integers
use unbiased rejection sampling.

One generator can also hold many independent streams as lanes, such as
one per time frame (`substream` with an array of indices).  The lanes step
together in numpy uint64 arithmetic, and every derived draw is computed
over a (k, lanes) block of raw outputs, so lane l yields exactly what the
single stream with lane l's seed would.  Box-Muller takes cos and sin of
its angles from numpy, which links them from the same libm as `math`
(numpy 2.4.6 on AVX-512 matched it bit for bit on over 2 * 10**6 angles
2 pi k 2**-53; a test pins this).  Only log stays on `math`, element by
element: numpy's SIMD log differs from `math.log` in the last bit on
about 3,500 of 10**6 draws, and `logl` rounded to double on about 900,
so either would change every noisy synth artifact.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_M53 = 2.0 ** -53

#: raw draws per Box-Muller chunk, which bounds the temporaries
_CHUNK = 8192

#: the largest |z| that `normals` draws at std 1: the Box-Muller radius
#: sqrt(-2 log u) at the smallest (0, 1] uniform, 2**-53
NORMAL_BOUND = math.sqrt(-2.0 * math.log(_TWO_M53))


def splitmix64_next(state):
    """Advance a splitmix64 state; returns (new_state, output).  Works on
    a Python int, or elementwise on a uint64 array (which wraps anyway)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _unit(u):
    """Raw draws to doubles in [0, 1) from their top 53 bits, exactly."""
    return (u >> 11) * _TWO_M53


def _unit_open(u):
    """Raw draws to doubles in (0, 1], safe as a log argument."""
    return ((u >> 11) + 1) * _TWO_M53


def _xoshiro_rows(s: list[np.ndarray], out: np.ndarray) -> None:
    """Fill out, a (k, lanes) uint64 block, with the next k outputs of
    every lane, advancing the lane states s in place."""
    s0, s1, s2, s3 = s
    t = np.empty_like(s0)
    for row in out:
        np.add(s0, s3, out=t)           # rotl(s0 + s3, 23) + s0
        np.left_shift(t, 23, out=row)
        t >>= 41
        row |= t
        row += s0
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)    # s3 = rotl(s3, 45)
        s3 >>= 19
        s3 |= t


class Xoshiro256pp:
    """xoshiro256++ with splitmix64 seeding.

    Seeded with an int, it is one stream and its draws are scalars or 1-D
    arrays.  Seeded with a 1-D uint64 array, it holds one stream (lane)
    per entry and its block draws gain a trailing lane axis; lane l equals
    the stream seeded with seed[l], bit for bit.  Several lanes step as
    numpy uint64 arithmetic at some 10 us per step for all of them; one
    stream steps in Python ints at about 1 us, which is faster alone.
    """

    def __init__(self, seed):
        self._lanes = np.shape(seed)
        state = np.asarray(seed, dtype=np.uint64) if self._lanes else int(seed) & _MASK64
        s = []
        for _ in range(4):
            state, out = splitmix64_next(state)
            s.append(out)
        if self._lanes == (1,):
            s = [int(x[0]) for x in s]
        self._s = s

    def next_u64(self):
        """The next raw output: an int, or a uint64 array of one per lane."""
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def next_u64s(self, k: int) -> np.ndarray:
        """The next k raw outputs of every lane, as a (k,) + lanes block."""
        if isinstance(self._s[0], int):
            out = np.array([self.next_u64() for _ in range(k)], dtype=np.uint64)
        else:
            out = np.empty((k, self._s[0].size), dtype=np.uint64)
            _xoshiro_rows(self._s, out)
        return out.reshape((k,) + self._lanes)

    # ------------------------------------------------------------------
    # derived draws

    def random(self, size: int | None = None):
        """Uniform doubles in [0, 1) from the top 53 bits: one, or a
        (size,) + lanes block."""
        return _unit(self.next_u64() if size is None else self.next_u64s(size))

    def random_open(self) -> float:
        """Uniform double in (0, 1], safe as a log argument."""
        return _unit_open(self.next_u64())

    def uniform(self, lo: float, hi: float, size: int | None = None):
        return lo + (hi - lo) * self.random(size)

    def coin(self) -> bool:
        """Fair coin from the top bit."""
        return bool(self.next_u64() >> 63)

    def coin_uniforms(self, k: int, tails: tuple[float, float],
                      heads: tuple[float, float]) -> np.ndarray:
        """k (coin, uniform) draw pairs per lane, a (k,) + lanes block:
        each value is uniform on the interval `heads` when the top bit of
        its coin is set, else on `tails`."""
        u = self.next_u64s(2 * k)
        up = (u[0::2] >> 63).astype(bool)
        lo = np.where(up, heads[0], tails[0])
        hi = np.where(up, heads[1], tails[1])
        return lo + (hi - lo) * _unit(u[1::2])

    def below(self, bound: int):
        """Unbiased integer in [0, bound) by rejection, one per lane; only
        the lanes whose draw is rejected draw again."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        if isinstance(self._s[0], int):
            x = self.next_u64()
            while x >= limit:
                x = self.next_u64()
            return np.array([x % bound], dtype=np.uint64) if self._lanes else x % bound
        x = self.next_u64s(1)[0]
        retry = np.flatnonzero(x >= limit)
        while retry.size:
            s = [a[retry] for a in self._s]
            redraw = np.empty((1, retry.size), dtype=np.uint64)
            _xoshiro_rows(s, redraw)
            for a, b in zip(self._s, s):
                a[retry] = b
            x[retry] = redraw[0]
            retry = retry[redraw[0] >= limit]
        return x % bound

    def normals(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """n Gaussian draws per lane via Box-Muller, a (n,) + lanes block;
        both outputs of each pair are consumed in order, the trailing one
        discarded when n is odd.  Pairs are drawn in chunks of about
        _CHUNK raw draws, so the temporaries stay small.  cos and sin of
        a chunk's angles are one numpy call each; the log of its radii
        is `math.log` per element, the one transcendental whose numpy
        form changes bytes (see the module docstring)."""
        out = np.empty((n,) + self._lanes)
        pairs = -(-n // 2)
        step = max(1, _CHUNK // (2 * math.prod(self._lanes)))
        for p in range(0, pairs, step):
            u = self.next_u64s(2 * min(step, pairs - p))
            v = _unit_open(u[0::2])
            log_v = np.fromiter(map(math.log, v.ravel().tolist()), np.float64, v.size)
            radius = np.sqrt(-2.0 * log_v).reshape(v.shape)
            theta = 2.0 * math.pi * _unit(u[1::2])
            rows = (out[2 * p:2 * p + len(u):2], out[2 * p + 1:2 * p + len(u):2])
            for f, z in zip((np.cos, np.sin), rows):
                f(theta[:len(z)], out=z)
                z *= radius[:len(z)]
                if mean != 0.0 or std != 1.0:
                    z[...] = mean + std * z
        return out

    def sample_without_replacement(self, population: int, k: int) -> np.ndarray:
        """k distinct integers from [0, population) per lane, a (k,) + lanes
        block in selection order (partial Fisher-Yates)."""
        if k > population:
            raise ValueError("cannot sample more items than the population")
        dtype = np.int32 if population <= np.iinfo(np.int32).max else np.int64
        pool = np.empty((population,) + self._lanes, dtype=dtype)
        pool.T[...] = np.arange(population, dtype=dtype)
        cols = tuple(np.arange(n) for n in self._lanes)
        for i in range(k):
            a, b = (i, *cols), (i + self.below(population - i), *cols)
            pool[a], pool[b] = pool[b], pool[a]
        return pool[:k].astype(np.int64)


def substream(seed: int, index) -> Xoshiro256pp:
    """Deterministic child stream for (seed, index), e.g. one per time
    frame.  An integer array of indices gives one generator with a lane
    per index, lane l equal to substream(seed, index[l])."""
    if np.ndim(index):
        index = np.asarray(index).astype(np.uint64)  # negatives wrap as & _MASK64 does
    # reduce the seed in Python first: uint64 lanes cannot hold seeds >= 2**64
    child = (int(seed) & _MASK64) ^ ((_GOLDEN * ((index + 1) & _MASK64)) & _MASK64)
    _, mixed = splitmix64_next(child)
    return Xoshiro256pp(mixed)
