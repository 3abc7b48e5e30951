"""Deterministic, portable random number generation.

A splitmix64 mixer seeds a xoshiro256++ stream.  The synthetic data, their
timestamps and the top-k SVD's start columns draw from this generator so
that they are bit-identical across runs and platforms.  Gaussian variates
come from Box-Muller with both outputs consumed in order; uniform integers
use unbiased rejection sampling.

A generator holds its streams as lanes: one for an int seed, or many
independent ones, such as one per time frame (`substream` with an array
of indices).  The lanes step together in numpy uint64 arithmetic, and
every derived draw is computed over a (k, lanes) block of raw outputs, so
lane l yields exactly what the single stream with lane l's seed would.

A long block on few lanes would step one narrow row at a time, so it
jumps ahead instead.  The xoshiro256++ state transition is linear over
GF(2) (Blackman and Vigna 2018), so the state d steps on from any state
is an XOR of that state and the 255 after it, picked by the bits of x**d
modulo the transition's characteristic polynomial.  The block's first
256 rows are drawn as usual, recording those states; the rest splits
into segments whose start states are formed that way, and all segments
of all lanes step together at full numpy width.  The output bits are
those of stepping one row at a time.  x**d for the first segment and
x**seg, the step between segments, come by square and multiply, and each
later segment's polynomial is one product mod the polynomial.

Box-Muller takes cos and sin of its angles from numpy, which links them
from the same libm as `math` (numpy 2.4.6 on AVX-512 matched it bit for
bit on over 2 * 10**6 angles 2 pi k 2**-53; a test pins this).  Only log
stays on `math`, element by element: numpy's SIMD log differs from
`math.log` in the last bit on about 3,500 of 10**6 draws, and `logl`
rounded to double on about 900, so either would change every noisy
synth artifact.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_M53 = 2.0 ** -53

#: raw draws per Box-Muller chunk, which bounds the temporaries
_CHUNK = 8192

#: the characteristic polynomial of the xoshiro256++ state transition over
#: GF(2), bit i the coefficient of x**i; Berlekamp-Massey finds it from
#: the low bit of any stream's s0 (a test re-derives it)
_P = 0x10003C03C3F3ECB1904B4EDCF26259F850280002BCEFD1A5E9D116F2BB0F0F001
_DEG = 256

#: the lanes times segments that a jumped block draw steps together
_WIDE = 2048

#: the shortest block that jumps: the _DEG recorded rows, then as many again
_JUMP_MIN = 2 * _DEG

#: the largest |z| that `normals` draws at std 1: the Box-Muller radius
#: sqrt(-2 log u) at the smallest (0, 1] uniform, 2**-53
NORMAL_BOUND = math.sqrt(-2.0 * math.log(_TWO_M53))

#: xoshiro256++'s shift counts as 0-d uint64 arrays: numpy converts a
#: Python-int operand again on every call
_U17, _U19, _U23, _U41, _U45 = (np.array(c, dtype=np.uint64) for c in (17, 19, 23, 41, 45))


def splitmix64_next(state):
    """Advance a splitmix64 state; returns (new_state, output).  Works on
    a Python int, or elementwise on a uint64 array (which wraps anyway)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def _unit(u):
    """Raw draws to doubles in [0, 1) from their top 53 bits, exactly."""
    return (u >> 11) * _TWO_M53


def _unit_open(u):
    """Raw draws to doubles in (0, 1], safe as a log argument."""
    return ((u >> 11) + 1) * _TWO_M53


def _xoshiro_rows(s: np.ndarray, out: np.ndarray, record: np.ndarray | None = None) -> None:
    """Fill out, a (k,) + lanes uint64 block, with the next k outputs of
    every lane, advancing the lane states s, a (4,) + lanes array, in
    place.  With a record, record[i] gets the states before row i.

    A row is twelve ufunc calls, each with its output given: the shift
    counts are uint64 constants, and the four independent xors are two
    calls on pairs of state rows."""
    s0, s1, s2, s3 = s
    s01, s23, s32 = s[0:2], s[2:4], s[3:1:-1]
    t = np.empty_like(s0)
    add, xor, bor = np.add, np.bitwise_xor, np.bitwise_or
    lshift, rshift = np.left_shift, np.right_shift
    for i, row in enumerate(out):
        if record is not None:
            record[i] = s
        add(s0, s3, out=t)              # rotl(s0 + s3, 23) + s0
        lshift(t, _U23, out=row)
        rshift(t, _U41, out=t)
        bor(row, t, out=row)
        add(row, s0, out=row)
        lshift(s1, _U17, out=t)
        xor(s23, s01, out=s23)          # s2 ^= s0, s3 ^= s1
        xor(s01, s32, out=s01)          # s0 ^= s3, s1 ^= s2
        xor(s2, t, out=s2)
        lshift(s3, _U45, out=t)         # s3 = rotl(s3, 45)
        rshift(s3, _U19, out=s3)
        bor(s3, t, out=s3)


def _mulmod(a: int, b: int) -> int:
    """a(x) b(x) mod _P over GF(2), bit i of an int the coefficient of
    x**i, for a of degree below _DEG: Horner's rule over the bits of b."""
    r = 0
    for bit in bin(b)[2:]:
        r <<= 1
        if r >> _DEG:
            r ^= _P
        if bit == "1":
            r ^= a
    return r


def _xpow(d: int) -> int:
    """x**d mod _P, by square and multiply: about 2 log2(d) products."""
    r = 1
    for bit in bin(d)[2:]:
        r = _mulmod(r, r)
        if bit == "1":
            r <<= 1
            if r >> _DEG:
                r ^= _P
    return r


def _jump_rows(record: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the rows of out, a (k, lanes) uint64 block with k >= _JUMP_MIN,
    that follow its first _DEG, which are drawn already; record, a
    (_DEG, 4, lanes) array, holds the states before those first rows.
    Returns the states after the last row.

    The state transition T is linear over GF(2), so by Cayley-Hamilton
    T**d is (x**d mod _P)(T): the state d rows on is the XOR of the
    recorded states at the set bits of x**d mod _P.  The rows split into
    J segments, each started that way, which then step side by side as
    J * lanes lanes (Haramoto et al. 2008, jump ahead for F2-linear
    generators)."""
    k, lanes = out.shape
    rest = k - _DEG
    # J segments: at most _WIDE // lanes wide, sqrt(rest) balances the J
    # start states to form against the rest / J rows to step, and J <= _DEG
    # keeps base >= 0
    seg = -(-rest // min(_WIDE // lanes, math.isqrt(rest), _DEG))
    J = -(-rest // seg)
    # the segments tile rows base..k-1; the few below _DEG are drawn again, alike
    base = k - J * seg
    starts = np.empty((4, J, lanes), dtype=np.uint64)
    poly, step = _xpow(base), _xpow(seg)  # x**(base + j seg) mod _P for segment j
    for j in range(J):
        if j:
            poly = _mulmod(poly, step)
        bits = np.unpackbits(np.frombuffer(poly.to_bytes(_DEG // 8, "little"), np.uint8),
                             bitorder="little").view(bool)
        np.bitwise_xor.reduce(record[bits], axis=0, out=starts[:, j])
    # rows step into a small contiguous buffer: strided output rows are slower
    slab = out[base:].reshape(J, seg, lanes)
    buf = np.empty((max(1, _CHUNK // (J * lanes)), J, lanes), dtype=np.uint64)
    for t in range(0, seg, len(buf)):
        rows = buf[:seg - t]
        _xoshiro_rows(starts, rows)
        slab[:, t:t + len(rows)] = rows.swapaxes(0, 1)
    return starts[:, -1].copy()


class Xoshiro256pp:
    """xoshiro256++ with splitmix64 seeding.

    Seeded with an int, it is one stream, a single lane: its block draws
    are 1-D arrays and `below` is a numpy scalar.  Seeded with a 1-D
    uint64 array, it holds one stream (lane) per entry and its block draws
    gain a trailing lane axis; lane l equals the stream seeded with
    seed[l], bit for bit.  Every layout keeps its state as a (4, lanes)
    uint64 array and steps it in numpy uint64 arithmetic, twelve ufunc
    calls per row (`_xoshiro_rows`): some 6-8 us per row for a few hundred
    lanes and 9 us for one (numpy's ufuncs cost more per call on
    one-element arrays; 2-core host, numpy 2.4.6).  A block of at least _JUMP_MIN rows on at most _WIDE // 4
    lanes records its first _DEG states and jumps ahead from them, so that
    the rest of the block steps up to _WIDE lanes wide (`_jump_rows`).
    """

    def __init__(self, seed):
        self._lanes = np.shape(seed)
        # mask an int seed in Python first: uint64 cannot hold every int
        state = np.asarray(seed if self._lanes else [int(seed) & _MASK64], dtype=np.uint64)
        s = []
        for _ in range(4):
            state, out = splitmix64_next(state)
            s.append(out)
        self._s = np.stack(s)

    def next_u64s(self, k: int) -> np.ndarray:
        """The next k raw outputs of every lane, as a (k,) + lanes block."""
        out = np.empty((k, self._s.shape[1]), dtype=np.uint64)
        self._fill(out)
        return out.reshape((k,) + self._lanes)

    def _fill(self, out: np.ndarray) -> None:
        """Fill out, a (k, lanes) uint64 block, with the next k raw outputs
        of every lane."""
        k, lanes = out.shape
        jump = k >= _JUMP_MIN and _WIDE // lanes >= 4
        record = np.empty((_DEG, 4, lanes), dtype=np.uint64) if jump else None
        _xoshiro_rows(self._s, out[:_DEG] if jump else out, record)
        if jump:
            self._s = _jump_rows(record, out)

    # ------------------------------------------------------------------
    # derived draws

    def random(self, size: int) -> np.ndarray:
        """Uniform doubles in [0, 1) from the top 53 bits, a (size,) +
        lanes block."""
        return _unit(self.next_u64s(size))

    def uniform(self, lo: float, hi: float, size: int) -> np.ndarray:
        return lo + (hi - lo) * self.random(size)

    def either_uniforms(self, k: int, tails: tuple[float, float],
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
        """Unbiased integer in [0, bound) by rejection: a uint64 scalar, or
        one per lane; only the lanes whose draw is rejected draw again."""
        if not 1 <= bound < 1 << 64:
            raise ValueError("bound must be in [1, 2**64)")
        limit = (1 << 64) - ((1 << 64) % bound)
        x = self.next_u64s(1).reshape(-1)
        retry = np.flatnonzero(x >= limit)
        while retry.size:
            s = self._s[:, retry]
            redraw = np.empty((1, retry.size), dtype=np.uint64)
            _xoshiro_rows(s, redraw)
            self._s[:, retry] = s
            x[retry] = redraw[0]
            retry = retry[redraw[0] >= limit]
        return (x % bound).reshape(self._lanes)[()]

    def _below_each(self, bounds: np.ndarray) -> np.ndarray:
        """What `below(bounds[i])` for i = 0, 1, ... draws, as a
        (len(bounds),) + lanes uint64 block; bounds is a uint64 array.
        The rows are one block draw; only when some draw falls in the
        rejection zone of its bound does the generator rewind and draw
        them one `below` at a time."""
        snapshot = self._s.copy()
        x = self.next_u64s(len(bounds))
        bounds = bounds.reshape(bounds.shape + (1,) * len(self._lanes))
        # 2**64 mod bound, the width of the zone at the top that below rejects
        zone = (np.uint64(_MASK64) % bounds + np.uint64(1)) % bounds
        if (x <= np.uint64(_MASK64) - zone).all():
            return x % bounds
        self._s = snapshot
        return np.array([self.below(int(b)) for b in bounds.ravel()], dtype=np.uint64)

    def normals(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """n Gaussian draws per lane via Box-Muller, a (n,) + lanes block;
        both outputs of each pair are consumed in order, the trailing one
        discarded when n is odd.  The raw draws fill the output buffer's
        uint64 view as one block, and each chunk of about _CHUNK of them
        turns into its pairs' normals in place, so the temporaries stay
        small.  cos and sin of a chunk's angles are one numpy call each;
        the log of its radii is `math.log` per element, the one
        transcendental whose numpy form changes bytes (see the module
        docstring)."""
        rows, lanes = 2 * -(-n // 2), self._s.shape[1]
        out = np.empty((rows,) + self._lanes)
        raw = out.view(np.uint64)
        self._fill(raw.reshape(rows, lanes))
        step = 2 * max(1, _CHUNK // (2 * lanes))
        for p in range(0, rows, step):
            u = raw[p:p + step]
            v = _unit_open(u[0::2])
            log_v = np.fromiter(map(math.log, v.ravel().tolist()), np.float64, v.size)
            radius = np.sqrt(-2.0 * log_v).reshape(v.shape)
            theta = 2.0 * math.pi * _unit(u[1::2])
            for f, z in ((np.cos, out[p:p + step:2]), (np.sin, out[p + 1:p + step:2])):
                f(theta, out=z)
                z *= radius
                if mean != 0.0 or std != 1.0:
                    z[...] = mean + std * z
        return out[:n]

    def sample_without_replacement(self, population: int, k: int) -> np.ndarray:
        """k distinct integers from [0, population) per lane, a (k,) + lanes
        block in selection order (partial Fisher-Yates)."""
        if not 0 <= k <= population:
            raise ValueError("k must be in [0, population]")
        dtype = np.int32 if population <= np.iinfo(np.int32).max else np.int64
        lanes = self._s.shape[1]
        pool = np.empty((population, lanes), dtype=dtype)
        pool.T[...] = np.arange(population, dtype=dtype)
        flat = pool.reshape(-1)
        picks = self._below_each(np.arange(population, population - k, -1, dtype=np.uint64))
        # pick i of lane l swaps row i with row i + pick, at flat index
        # (i + pick) * lanes + l; picks < population < 2**63 fit int64
        at = picks.reshape(k, lanes).view(np.int64)
        at += np.arange(k)[:, None]
        at *= lanes
        at += np.arange(lanes)
        for row, b in zip(pool, at):
            swap = flat[b]
            flat[b] = row
            row[...] = swap
        return pool[:k].astype(np.int64).reshape((k,) + self._lanes)


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
