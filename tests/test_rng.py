import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsesense import rng
from sparsesense.rng import Xoshiro256pp, splitmix64_next, substream


def test_splitmix64_known_sequence():
    # first outputs of the reference splitmix64 stream seeded with 0
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    state = 0
    for want in expected:
        state, out = splitmix64_next(state)
        assert out == want


def test_xoshiro_first_output_from_unit_state():
    gen = Xoshiro256pp(0)
    gen._s = np.array([[1], [2], [3], [4]], dtype=np.uint64)
    # rotl(s0 + s3, 23) + s0 = rotl(5, 23) + 1
    assert gen.next_u64s(1)[0] == 5 * (1 << 23) + 1


def test_determinism_per_seed():
    a = Xoshiro256pp(1234)
    b = Xoshiro256pp(1234)
    assert a.next_u64s(50).tolist() == b.next_u64s(50).tolist()
    assert Xoshiro256pp(1).next_u64s(1)[0] != Xoshiro256pp(2).next_u64s(1)[0]


def test_random_in_unit_interval():
    gen = Xoshiro256pp(7)
    draws = gen.random(1000)
    assert np.all((0.0 <= draws) & (draws < 1.0))
    # Box-Muller's log argument: (0, 1], ends included
    raw = np.array([0, 1, 2**64 - 1, *Xoshiro256pp(7).next_u64s(1000)], dtype=np.uint64)
    u = rng._unit_open(raw)
    assert np.all((u > 0.0) & (u <= 1.0)) and u[0] == 2.0**-53 and u[2] == 1.0


def test_below_unbiased_range():
    gen = Xoshiro256pp(11)
    draws = [gen.below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        gen.below(0)


@pytest.mark.parametrize("seed", [11, np.arange(3, dtype=np.uint64)], ids=["one", "lanes"])
@pytest.mark.parametrize("bound", [-1, 0, 2**64, 2**64 + 1])
def test_below_rejects_a_bound_outside_uint64_before_drawing(seed, bound):
    # a bound above 2**64 would make every draw a rejection, and loop forever
    gen = Xoshiro256pp(seed)
    state = gen._s.copy()
    with pytest.raises(ValueError):
        gen.below(bound)
    assert np.array_equal(gen._s, state)
    assert np.all(gen.below(2**64 - 1) < 2**64 - 1)


def test_normals_moments():
    gen = Xoshiro256pp(3)
    z = gen.normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_normals_scaling_and_odd_count():
    gen = Xoshiro256pp(3)
    z = gen.normals(5, mean=2.0, std=0.5)
    assert z.shape == (5,)
    gen2 = Xoshiro256pp(3)
    z2 = gen2.normals(5)
    np.testing.assert_allclose(z, 2.0 + 0.5 * z2)


def test_numpy_cos_sin_equal_math_on_box_muller_angles():
    # `normals` takes cos and sin of its angles from numpy, which this
    # build links to the same libm as `math`; the synth bytes rest on that.
    # Angles 2 pi k 2**-53 as `normals` forms them: k = 0..999, the last
    # 1,000 k, and 2**20 k spread evenly over [0, 2**53)
    k = np.concatenate([np.arange(1000, dtype=np.uint64),
                        np.arange(2**53 - 1000, 2**53, dtype=np.uint64),
                        np.arange(2**20, dtype=np.uint64) * np.uint64(2**33) + np.uint64(4321)])
    theta = 2.0 * math.pi * (k * 2.0 ** -53)
    strided = np.empty((theta.size, 2))
    for f, ref in ((np.cos, math.cos), (np.sin, math.sin)):
        want = np.array([ref(x) for x in theta.tolist()])
        f(theta, out=strided[:, 0])
        for got in (f(theta), strided[:, 0]):
            differ = np.count_nonzero(got.view(np.uint64) != want.view(np.uint64))
            assert differ == 0, (
                f"np.{f.__name__} differs from math.{ref.__name__} on {differ} of "
                f"{theta.size} Box-Muller angles: synth bytes would change on this "
                f"numpy build")


def test_sample_without_replacement_distinct():
    gen = Xoshiro256pp(9)
    sample = gen.sample_without_replacement(100, 40)
    assert len(set(sample.tolist())) == 40
    assert sample.min() >= 0 and sample.max() < 100
    with pytest.raises(ValueError):
        gen.sample_without_replacement(5, 6)


def test_sample_without_replacement_rejects_a_negative_count():
    gen = Xoshiro256pp(0)
    state = gen._s.copy()
    with pytest.raises(ValueError):
        gen.sample_without_replacement(10, -3)
    assert np.array_equal(gen._s, state)


def test_substreams_independent_and_deterministic():
    a = substream(42, 0)
    b = substream(42, 1)
    a2 = substream(42, 0)
    seq_a = a.next_u64s(10).tolist()
    assert seq_a == a2.next_u64s(10).tolist()
    assert seq_a != b.next_u64s(10).tolist()


# ----------------------------------------------------------------------
# lanes against the one-stream algorithm, kept here as a pure-Python oracle

M64 = (1 << 64) - 1


def oracle_splitmix(state):
    state = (state + 0x9E3779B97F4A7C15) & M64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return state, z ^ (z >> 31)


def oracle_rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & M64


class Oracle:
    """substream(seed, index), or Xoshiro256pp(seed) without an index, one
    Python-int step at a time."""

    def __init__(self, seed, index=None):
        state = seed & M64
        if index is not None:
            _, state = oracle_splitmix((seed ^ (0x9E3779B97F4A7C15 * (index + 1))) & M64)
        self.s = []
        for _ in range(4):
            state, out = oracle_splitmix(state)
            self.s.append(out)

    def next(self):
        s0, s1, s2, s3 = self.s
        result = (oracle_rotl((s0 + s3) & M64, 23) + s0) & M64
        t = (s1 << 17) & M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self.s = [s0, s1, s2, oracle_rotl(s3, 45)]
        return result

    def random(self):
        return (self.next() >> 11) / 2.0 ** 53

    def below(self, bound):
        limit = (1 << 64) - (1 << 64) % bound
        while (x := self.next()) >= limit:
            pass
        return x % bound

    def normals(self, n, mean, std):
        out = []
        while len(out) < n:
            u1 = ((self.next() >> 11) + 1) / 2.0 ** 53
            u2 = self.random()
            radius = math.sqrt(-2.0 * math.log(u1))
            out += [radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)]
        out = np.array(out[:n])
        return mean + std * out if mean != 0.0 or std != 1.0 else out

    def sample(self, population, k):
        pool = list(range(population))
        for i in range(k):
            j = i + self.below(population - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


seeds = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**66))
lanes = st.lists(st.integers(0, 2**40), min_size=1, max_size=40)


def assert_lanes_match(block, want):
    """block (k, lanes) equals the per-lane oracle draws, bit for bit."""
    want = np.array(want, dtype=block.dtype).reshape(len(want), -1).T
    assert block.tobytes() == np.ascontiguousarray(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(seeds, lanes, st.integers(0, 41), st.integers(1, 70),
       st.sampled_from([(0.0, 1.0), (0.0, 4.0), (-2.5, 0.5)]))
def test_lane_normals_match_one_stream(seed, index, n, chunk, affine):
    with mock.patch.object(rng, "_CHUNK", chunk):   # many chunk boundaries
        block = substream(seed, np.array(index)).normals(n, *affine)
    assert block.shape == (n, len(index))
    assert_lanes_match(block, [Oracle(seed, j).normals(n, *affine) for j in index])
    assert substream(seed, index[0]).normals(n, *affine).tobytes() == block[:, 0].tobytes()


@settings(max_examples=60, deadline=None)
@given(seeds, lanes, st.integers(1, 41), st.data())
def test_lane_sample_without_replacement_matches_one_stream(seed, index, population, data):
    k = data.draw(st.integers(0, population))
    block = substream(seed, np.array(index)).sample_without_replacement(population, k)
    assert block.shape == (k, len(index)) and block.dtype == np.int64
    assert_lanes_match(block, [Oracle(seed, j).sample(population, k) for j in index])


@settings(max_examples=60, deadline=None)
@given(seeds, lanes)
def test_lane_below_retries_only_rejected_lanes(seed, index):
    # at this bound about half of all draws are rejected
    bound = 2**63 + 1
    gen = substream(seed, np.array(index))
    block = np.array([gen.below(bound) for _ in range(6)])
    oracles = [Oracle(seed, j) for j in index]
    assert_lanes_match(block, [[o.below(bound) for _ in range(6)] for o in oracles])


@settings(max_examples=30, deadline=None)
@given(seeds, lanes, st.integers(0, 9))
def test_lane_coin_uniforms_match_one_stream(seed, index, k):
    gen = substream(seed, np.array(index))
    block = np.concatenate([gen.either_uniforms(k, (30.0, 40.0), (-40.0, -30.0)),
                            gen.uniform(-15.0, 30.0, k)])

    def draws(o):
        pairs = []
        for _ in range(k):
            lo, hi = (-40.0, -30.0) if o.next() >> 63 else (30.0, 40.0)
            pairs.append(lo + (hi - lo) * o.random())
        return pairs + [-15.0 + 45.0 * o.random() for _ in range(k)]

    assert_lanes_match(block, [draws(Oracle(seed, j)) for j in index])


# one stream: a generator seeded with an int is a single lane

one_stream_ops = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 3)),
    st.builds(lambda op, k: (*op, k),
              st.sampled_from([("uniform", -15.0, 30.0), ("uniform", 0.0, 2.0 * math.pi)]),
              st.integers(0, 3)),
    # bounds >= 2**63 reject about half of all draws
    st.tuples(st.just("below"), st.one_of(st.integers(1, 100), st.integers(2**63, 2**64 - 1))),
    # blocks around the jump threshold and past the recorded rows
    st.tuples(st.just("next_u64s"), st.one_of(st.integers(0, 5), st.integers(250, 262),
                                              st.integers(506, 518), st.integers(1018, 1030))))


def oracle_draw(o, op):
    name, *args = op
    if name == "random":
        return [o.random() for _ in range(args[0])]
    if name == "uniform":
        lo, hi, k = args
        return [lo + (hi - lo) * o.random() for _ in range(k)]
    if name == "below":
        return o.below(args[0])
    return [o.next() for _ in range(args[0])]


@settings(max_examples=60, deadline=None)
@given(seeds, st.lists(one_stream_ops, max_size=12))
def test_one_stream_interleaved_draws_match_oracle(seed, ops):
    gen, oracle = Xoshiro256pp(seed), Oracle(seed)
    for op in ops:
        got, want = getattr(gen, op[0])(*op[1:]), oracle_draw(oracle, op)
        if op[0] == "below":
            assert isinstance(got, np.uint64) and got == want, op
        else:
            assert got.shape == (op[-1],) and got.tolist() == want, op
    assert gen.next_u64s(1)[0] == oracle.next()


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from([3, 300, 600, 1100]), st.integers(1, 40))
def test_one_lane_array_seed_equals_int_seed(seed, k, n):
    one = Xoshiro256pp(seed)
    lane = Xoshiro256pp(np.array([seed & M64], dtype=np.uint64))
    assert lane.next_u64s(k).tobytes() == one.next_u64s(k).tobytes()
    assert lane.below(2**63 + 1).tolist() == [one.below(2**63 + 1)]
    assert lane.normals(n).tobytes() == one.normals(n).tobytes()
    assert lane.sample_without_replacement(50, 7).tobytes() == (
        one.sample_without_replacement(50, 7).tobytes())
    assert lane.next_u64s(1).tobytes() == one.next_u64s(1).tobytes()


# ----------------------------------------------------------------------
# jumped block draws: long blocks on narrow lanes jump ahead by _P


def berlekamp_massey(bits):
    """The shortest LFSR connection polynomial of a GF(2) sequence, as an
    int with bit i the coefficient of x**i, and its degree."""
    c, b, degree, shift = 1, 1, 0, 1
    for n, bit in enumerate(bits):
        discrepancy = bit
        for i in range(1, degree + 1):
            discrepancy ^= (c >> i) & bits[n - i]
        if not discrepancy:
            shift += 1
        elif 2 * degree <= n:
            c, b, degree, shift = c ^ (b << shift), c, n + 1 - degree, 1
        else:
            c ^= b << shift
            shift += 1
    return c, degree


def test_characteristic_polynomial_rederived_by_berlekamp_massey():
    oracle = Oracle(2024, 7)
    bits = []
    for _ in range(4 * rng._DEG):
        bits.append(oracle.s[0] & 1)
        oracle.next()
    c, degree = berlekamp_massey(bits)
    assert degree == rng._DEG
    # the characteristic polynomial is the connection polynomial reversed
    assert int(f"{c:0{degree + 1}b}"[::-1], 2) == rng._P


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(0, 2 * 10**6), min_size=1, max_size=4))
def test_jump_polynomials_equal_one_galois_shift_per_row(ds):
    # one pass of per-row shifts to the largest d checks x**d mod _P at each
    # d, and the segment step: x**a times x**(d - a) is x**d
    poly, row, prev = 1, 0, 0
    for d in sorted(ds):
        for _ in range(d - row):
            poly <<= 1
            if poly >> rng._DEG:
                poly ^= rng._P
        row = d
        assert rng._xpow(d) == poly
        assert rng._mulmod(rng._xpow(prev), rng._xpow(d - prev)) == poly
        prev = d


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(0, 3000), st.data())
def test_one_stream_sample_without_replacement_matches_oracle(seed, population, data):
    # k >= _JUMP_MIN draws its picks as a jumped block
    k = data.draw(st.one_of(st.integers(0, min(population, 40)), st.integers(0, population)))
    gen, oracle = Xoshiro256pp(seed), Oracle(seed)
    assert gen.sample_without_replacement(population, k).tolist() == oracle.sample(population, k)
    assert gen.next_u64s(1)[0] == oracle.next()


jump_lanes = st.one_of(st.none(), st.integers(1, 12), st.integers(13, 600))
# around the jump threshold, and up to 3000 rows
jump_rows = st.one_of(st.integers(rng._JUMP_MIN - 3, rng._JUMP_MIN + 3),
                      st.integers(0, 3000))


@settings(max_examples=40, deadline=None)
@given(seeds, jump_lanes, jump_rows, st.data())
def test_jumped_block_draws_match_one_stream(seed, n_lanes, k, data):
    # every lane is drawn, a few are checked against the oracle, and the
    # draws after the block check the state it leaves
    index = data.draw(st.integers(0, 2**40))
    gen = substream(seed, index if n_lanes is None else index + np.arange(n_lanes))
    block = gen.next_u64s(k).reshape(k, n_lanes or 1)
    after = gen.next_u64s(5).reshape(5, n_lanes or 1)
    checked = data.draw(st.lists(st.integers(0, (n_lanes or 1) - 1), min_size=1, max_size=3))
    for lane in checked:
        oracle = Oracle(seed, index + lane)
        assert block[:, lane].tolist() == [oracle.next() for _ in range(k)]
        assert after[:, lane].tolist() == [oracle.next() for _ in range(5)]


@settings(max_examples=15, deadline=None)
@given(seeds, st.sampled_from([None, 1, 3, 100]), st.integers(1000, 1100), st.data())
def test_jumped_normals_match_one_stream(seed, n_lanes, n, data):
    index = data.draw(st.integers(0, 2**40))
    gen = substream(seed, index if n_lanes is None else index + np.arange(n_lanes))
    block = gen.normals(n, 0.0, 4.0).reshape(n, -1)
    lane = data.draw(st.integers(0, (n_lanes or 1) - 1))
    assert block[:, lane].tobytes() == Oracle(seed, index + lane).normals(n, 0.0, 4.0).tobytes()


@settings(max_examples=40, deadline=None)
@given(seeds, lanes, st.lists(st.one_of(st.integers(1, 50), st.integers(2**63, 2**64 - 1)),
                              max_size=6))
def test_below_each_matches_below_one_at_a_time(seed, index, bounds):
    # bounds >= 2**63 reject about half of all draws, which forces the
    # generator to rewind and draw row by row
    gen = substream(seed, np.array(index))
    block = np.concatenate([gen._below_each(np.array(bounds, dtype=np.uint64)),
                            gen.next_u64s(2)])
    oracles = [Oracle(seed, j) for j in index]
    assert_lanes_match(block, [[o.below(b) for b in bounds] + [o.next(), o.next()]
                               for o in oracles])


def test_normals_peak_memory_is_its_output_and_small_temporaries():
    # a second (n, lanes) temporary would add as much again as the output
    gen = substream(5, np.arange(100))
    tracemalloc.start()
    try:
        z = gen.normals(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = rng._DEG * 4 * 100 * 8     # the jump's recorded states
    # the record, its gather for one start state and the chunk buffers
    assert peak <= z.nbytes + 2 * record + 4 * rng._CHUNK * 8
