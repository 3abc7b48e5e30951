import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsesense.errors import BoundsError, ValidationError
from sparsesense.rng import Xoshiro256pp
from sparsesense.synth import (
    GroundTruthSpec,
    Scenario,
    ScenarioSpec,
    apply_scenario,
    generate_ground_truth,
)


def test_ground_truth_rank_one_columns_proportional():
    X = generate_ground_truth(GroundTruthSpec(m=40, n=30, rank=1, seed=3))
    ref = X[:, np.argmax(np.linalg.norm(X, axis=0))]
    for j in range(X.shape[1]):
        coeff = (ref @ X[:, j]) / (ref @ ref)
        np.testing.assert_allclose(X[:, j], coeff * ref, atol=1e-10)


@pytest.mark.parametrize("rank", [1, 3, 7])
def test_ground_truth_numerical_rank(rank):
    X = generate_ground_truth(GroundTruthSpec(m=80, n=60, rank=rank, seed=rank))
    sv = np.linalg.svd(X, compute_uv=False)
    assert int(np.sum(sv > 1e-8 * sv[0])) == rank


def test_ground_truth_deterministic():
    spec = GroundTruthSpec(m=50, n=40, rank=4, seed=11)
    np.testing.assert_array_equal(generate_ground_truth(spec),
                                  generate_ground_truth(spec))


def test_ground_truth_rank_bounds():
    with pytest.raises(BoundsError):
        generate_ground_truth(GroundTruthSpec(m=5, n=4, rank=5, seed=0))


# ----------------------------------------------------------------------
# scenarios


@pytest.fixture(scope="module")
def truth():
    return generate_ground_truth(GroundTruthSpec(m=500, n=60, rank=4, seed=0))


def test_scenario_outliers_count_and_range(truth):
    spec = ScenarioSpec(scenario=Scenario.OUTLIERS, seed=21)
    out, mask = apply_scenario(truth, spec)
    for j in range(truth.shape[1]):
        changed = np.nonzero(out[:, j] != truth[:, j])[0]
        assert len(changed) == spec.n_outliers
        assert np.array_equal(np.nonzero(mask[:, j])[0], changed)
        vals = out[changed, j]
        assert np.all(((vals >= 30) & (vals <= 40)) | ((vals >= -40) & (vals <= -30)))


def test_scenario_noise_moments(truth):
    out, mask = apply_scenario(truth, ScenarioSpec(scenario=Scenario.NOISE, seed=5))
    noise = (out - truth).ravel()
    assert not mask.any()
    assert abs(noise.mean()) < 0.1
    assert abs(noise.std() - 4.0) < 0.1


def test_scenario_corruptions_mask_and_interval(truth):
    spec = ScenarioSpec(scenario=Scenario.CORRUPTIONS, seed=13)
    out, mask = apply_scenario(truth, spec)
    m, n = truth.shape
    assert mask.sum() == round(0.10 * m) * n == round(0.10 * m * n)
    add = (out - truth)[mask]
    assert np.all((add >= -15.0) & (add <= 30.0))
    # off-mask entries untouched, bit for bit
    np.testing.assert_array_equal(out[~mask], truth[~mask])


def test_scenario_superposition_composes(truth):
    spec = ScenarioSpec(scenario=Scenario.SUPERPOSITION, seed=99)
    out, mask = apply_scenario(truth, spec)
    # component masks reuse the same substreams, so they match the union
    _, mask_out = apply_scenario(truth, ScenarioSpec(scenario=Scenario.OUTLIERS, seed=99))
    _, mask_cor = apply_scenario(truth, ScenarioSpec(scenario=Scenario.CORRUPTIONS, seed=99))
    np.testing.assert_array_equal(mask, mask_out | mask_cor)
    # everything differs in general because of the dense noise component
    assert np.mean(out != truth) > 0.99


def test_scenario_deterministic(truth):
    spec = ScenarioSpec(scenario=Scenario.SUPERPOSITION, seed=31)
    out1, mask1 = apply_scenario(truth, spec)
    out2, mask2 = apply_scenario(truth, spec)
    np.testing.assert_array_equal(out1, out2)
    np.testing.assert_array_equal(mask1, mask2)


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(Scenario),
       m=st.one_of(st.integers(0, 30).map(lambda h: 2 * h + 1), st.just(1025)),
       n=st.integers(1, 40), data=st.data())
def test_leading_frames_are_perturbed_as_in_the_whole_matrix(scenario, m, n, data):
    # each frame draws from its own substreams, whatever frames follow it;
    # m = 1025 takes the jumped block draws
    k = data.draw(st.integers(1, n))
    spec = ScenarioSpec(scenario=scenario, seed=data.draw(st.integers(0, 2**64 - 1)),
                        n_outliers=data.draw(st.integers(0, m)))
    X = generate_ground_truth(GroundTruthSpec(m=m, n=n, rank=1, seed=0))
    out, mask = apply_scenario(X, spec)
    out_k, mask_k = apply_scenario(X[:, :k], spec)
    assert out_k.tobytes() == np.ascontiguousarray(out[:, :k]).tobytes()
    assert mask_k.tobytes() == np.ascontiguousarray(mask[:, :k]).tobytes()


def test_scenario_validation():
    X = np.zeros((10, 5)) + 1.0
    with pytest.raises(ValidationError):
        apply_scenario(X, ScenarioSpec(scenario=Scenario.OUTLIERS, n_outliers=11))
    with pytest.raises(ValidationError):
        apply_scenario(X, ScenarioSpec(corruption_fraction=1.5))
    with pytest.raises(ValidationError):
        apply_scenario(X, ScenarioSpec(noise_std=-1.0))


def test_ground_truth_golden_bytes():
    # 5 * rank scalar draws on one stream
    X = generate_ground_truth(GroundTruthSpec(m=64, n=48, rank=10, seed=0))
    assert hashlib.sha256(X.tobytes()).hexdigest() == (
        "fa653b0c9409fdf443cac636b23ece07117f9b4cea897655996aae3a05e36fc1")

def test_ground_truth_draws_its_scalars_as_one_block(monkeypatch):
    fill, calls = Xoshiro256pp._fill, []
    monkeypatch.setattr(Xoshiro256pp, "_fill", lambda self, out: calls.append(out.shape)
                        or fill(self, out))
    generate_ground_truth(GroundTruthSpec(m=64, n=48, rank=10, seed=0))
    assert calls == [(50, 1)]


# ----------------------------------------------------------------------
# golden bytes: sha256 of apply_scenario's outputs, recorded from the
# one-stream-at-a-time generator.  An odd row count, a seed above 2**64
# (masked to 64 bits, so it matches seed 5) and empty outlier/corruption
# draws are all covered.

GOLDEN_SCENARIOS = [
    # scenario, seed, n_outliers, corruption_fraction, perturbed, mask
    (1, 5, 7, 0.1,
     "13f2e8ea3aa371a552352f88f27e8af645e60d051457250bcc7f2e9ce15763fe",
     "2f5372bb195bbbde96712a299a66dbe3b2ac0dfdf028d422a8c5c2c86e7d728c"),
    (2, 5, 7, 0.1,
     "e00a5fe7297ad98ba7bbccc9d815884d3632ed3d798e672c43c3b17b1bd836f5",
     "82eb71dff26e2c0a2c5f0bb44a3e3b805cd9bfe08cb2231926dd8afea5e30d1b"),
    (3, 5, 7, 0.1,
     "35613721bf0063598265f1e581ae0b9c28282380319672a929523cde57d10c4f",
     "1ec797a3c60407de1b8c285a15112dc80bd830fc45879a39703902fed6eee5fd"),
    (4, 5, 7, 0.1,
     "6dcac102dd2db35956bcbedbdee47c7394f1cb3bef92e977a3868a7dc24c59ad",
     "bf767bef1bcd2a08e60413fb839e550f0a8e1ad0ef71687f69c2ec684c6b607e"),
    (4, 2**64 + 5, 7, 0.1,
     "6dcac102dd2db35956bcbedbdee47c7394f1cb3bef92e977a3868a7dc24c59ad",
     "bf767bef1bcd2a08e60413fb839e550f0a8e1ad0ef71687f69c2ec684c6b607e"),
    (4, 5, 0, 0.0,
     "13f2e8ea3aa371a552352f88f27e8af645e60d051457250bcc7f2e9ce15763fe",
     "2f5372bb195bbbde96712a299a66dbe3b2ac0dfdf028d422a8c5c2c86e7d728c"),
]


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("case", GOLDEN_SCENARIOS,
                         ids=lambda c: f"s{c[0]}-frame-seed{c[1]}-k{c[2]}")
def test_scenario_golden_bytes(case):
    scenario, seed, n_outliers, fraction, want_out, want_mask = case
    truth = generate_ground_truth(GroundTruthSpec(m=61, n=23, rank=3, seed=1))
    out, mask = apply_scenario(truth, ScenarioSpec(
        scenario=Scenario(scenario), seed=seed,
        n_outliers=n_outliers, corruption_fraction=fraction))
    assert (_sha256(out), _sha256(mask)) == (want_out, want_mask)


def test_scenario_memory_is_bounded_at_desk_scale():
    # output and mask take 18 MB; the per-frame lanes may add one (m, n)
    # block of draws, but no (m, n) list of Python floats
    truth = generate_ground_truth(GroundTruthSpec(m=2000, n=1000, rank=10, seed=0))
    tracemalloc.start()
    try:
        apply_scenario(truth, ScenarioSpec(scenario=Scenario.SUPERPOSITION, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
