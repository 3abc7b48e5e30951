from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sparsesense.config import KEYS, RunConfig, parse_config
from sparsesense.errors import ValidationError
from sparsesense.synth import Scenario


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted([*(ROOT / "configs").glob("*.cfg"),
                  *(ROOT / "perfbench" / "workloads").glob("*.cfg")])


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parse_basic_with_comments_and_blanks(tmp_path):
    path = write_cfg(tmp_path, """
# a comment line
synth.m = 100   # trailing comment
synth.n = 50

rpca.lambda = 0.006
rpca.mu = auto
osp.r = 10
""")
    cfg = parse_config(path)
    assert (cfg.ground_truth.m, cfg.ground_truth.n) == (100, 50)
    assert cfg.rpca.lam == 0.006
    assert cfg.r == 10


def test_parse_rejects_unknown_key(tmp_path):
    path = write_cfg(tmp_path, "synth.bogus = 1\n")
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config(path)


def test_parse_rejects_missing_equals(tmp_path):
    path = write_cfg(tmp_path, "synth.m 100\n")
    with pytest.raises(ValidationError):
        parse_config(path)


def test_ground_truth_spec_defaults_and_overrides(tmp_path):
    spec = parse_config(write_cfg(tmp_path, "")).ground_truth
    assert (spec.m, spec.n, spec.rank, spec.seed) == (2000, 1000, 10, 0)
    path = write_cfg(tmp_path, "synth.m = 64\nsynth.seed = 9\n")
    spec = parse_config(path).ground_truth
    assert spec.m == 64 and spec.seed == 9
    assert parse_config(path, seed=3).ground_truth.seed == 3  # CLI seed wins


def test_scenario_spec_fields(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
synth.scenario = 2
synth.n_outliers = 7
"""))
    spec = cfg.scenario
    assert spec.scenario is Scenario.OUTLIERS
    assert spec.n_outliers == 7
    assert spec.outlier_ranges == ((30.0, 40.0), (-40.0, -30.0))


def test_range_keys_set_their_end_of_the_range(tmp_path):
    spec = parse_config(write_cfg(tmp_path, """
synth.outlier_lo_min = -50
synth.outlier_hi_max = 45
synth.corruption_max = 20
""")).scenario
    assert spec.outlier_ranges == ((30.0, 45.0), (-50.0, -30.0))
    assert spec.corruption_interval == (-15.0, 20.0)


def test_rpca_config_auto_and_explicit(tmp_path):
    rc = parse_config(write_cfg(tmp_path, "rpca.lambda = auto\n")).rpca
    assert rc.lam is None
    assert rc.max_iters == 500 and rc.tol == 1e-7
    rc = parse_config(write_cfg(tmp_path, "rpca.lambda = 0.01\nrpca.tol = 1e-6\n")).rpca
    assert rc.lam == 0.01 and rc.tol == 1e-6


@pytest.mark.parametrize("key, value, refused", [
    # mu_0 is not a setting: any number is refused
    ("rpca.mu", "auto", ("1e-5", "inf", "1e-320", "1e300", "-1")),
    # every scenario perturbs frame by frame
    ("synth.per_frame", "true", ("false", "0", "no", "off", "1", "True")),
])
def test_retired_key_parses_only_its_one_value(tmp_path, key, value, refused):
    assert parse_config(write_cfg(tmp_path, f"{key} = {value}\n")) == \
        parse_config(write_cfg(tmp_path, ""))
    for text in refused:
        with pytest.raises(ValidationError, match=key):
            parse_config(write_cfg(tmp_path, f"{key} = {text}\n"))


def test_shipped_configs_are_found():
    names = {p.name for p in SHIPPED}
    assert {"small.cfg", "desk_scale.cfg", "desk.cfg", "selftest-bad.cfg"} <= names


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_config_parses(path):
    # a key that a committed config uses must not be removed or narrowed
    # under it; the harness's own bad config must stay bad
    if path.name == "selftest-bad.cfg":
        with pytest.raises(ValidationError):
            parse_config(path)
    else:
        assert isinstance(parse_config(path), RunConfig)


def test_train_config_defaults_match_reference_setup(tmp_path):
    tc = parse_config(write_cfg(tmp_path, "")).train
    assert (tc.window, tc.horizon, tc.hidden_dim, tc.dense_dim) == (50, 100, 128, 128)
    assert tc.learning_rate == 1e-4 and tc.epochs == 100 and tc.dropout == 0.2
    tc = parse_config(write_cfg(tmp_path, "train.epochs = 3\n"), seed=5).train
    assert tc.epochs == 3 and tc.seed == 5


def test_seeds_and_pipeline_defaults(tmp_path):
    path = write_cfg(tmp_path, "synth.seed = 4\ntrain.seed = 6\n"
                               "osp.r = 3\ntrain.horizon = 20\n")
    cfg = parse_config(path)
    assert (cfg.ground_truth.seed, cfg.scenario.seed, cfg.train.seed) == (4, 4, 6)
    assert cfg.s == 3 and cfg.holdout == 20  # s follows r, holdout the horizon
    cfg = parse_config(path, seed=8)
    assert (cfg.ground_truth.seed, cfg.scenario.seed, cfg.train.seed) == (8, 8, 8)


def test_bad_value_reports_key(tmp_path):
    path = write_cfg(tmp_path, "synth.m = lots\n")
    with pytest.raises(ValidationError, match="synth.m"):
        parse_config(path)


_VALUE_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["auto", "true", "off", "maybe", "", "1e999", "-0", "7"]),
)


@settings(max_examples=300, deadline=None)
@given(entries=st.dictionaries(st.sampled_from(sorted(KEYS)), _VALUE_TEXT,
                               max_size=4))
def test_any_value_text_gives_run_config_or_validation_error(tmp_path_factory,
                                                             entries):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()),
                    encoding="utf-8")
    try:
        cfg = parse_config(path)
    except ValidationError:
        return
    assert isinstance(cfg, RunConfig)
