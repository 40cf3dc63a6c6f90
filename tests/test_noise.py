import math

import numpy as np
import pytest

import pvfdi
from pvfdi.errors import DataError
from pvfdi.noise import NOISE_TARGETS, NoiseConfig, inject


@pytest.fixture(scope="module")
def clean():
    return pvfdi.synth_generate(200, seed=21)


def test_zero_fraction_is_identity(clean):
    noisy, affected = inject(clean, NoiseConfig(0.0, seed=5))
    assert affected == []
    np.testing.assert_array_equal(noisy.features, clean.features)
    np.testing.assert_array_equal(noisy.power, clean.power)


def test_input_never_mutated(clean):
    before = clean.features.copy()
    inject(clean, NoiseConfig(1.0, seed=5))
    np.testing.assert_array_equal(clean.features, before)


def test_row_count_rounds_half_up(clean):
    for fraction, expected in ((0.1, 20), (0.5, 100), (1.0, 200)):
        _, affected = inject(clean, NoiseConfig(fraction, seed=1))
        assert len(affected) == expected
    five = clean.take(range(5))
    _, affected = inject(five, NoiseConfig(0.5, seed=1))
    assert len(affected) == 3  # 2.5 rounds up


def test_affected_rows_sorted_unique(clean):
    _, affected = inject(clean, NoiseConfig(0.5, seed=9))
    assert affected == sorted(set(affected))
    assert all(0 <= r < 200 for r in affected)


def test_untouched_rows_bit_identical(clean):
    noisy, affected = inject(clean, NoiseConfig(0.3, seed=2))
    untouched = np.setdiff1d(np.arange(200), affected)
    np.testing.assert_array_equal(noisy.features[untouched], clean.features[untouched])
    np.testing.assert_array_equal(noisy.power[untouched], clean.power[untouched])
    delta = noisy.features[affected] - clean.features[affected]
    assert np.all(np.any(delta != 0.0, axis=1))


def test_features_target_leaves_power_alone(clean):
    noisy, _ = inject(clean, NoiseConfig(1.0, target="FEATURES", seed=3))
    np.testing.assert_array_equal(noisy.power, clean.power)
    assert not np.array_equal(noisy.features, clean.features)


def test_power_target_leaves_features_alone(clean):
    noisy, affected = inject(clean, NoiseConfig(0.5, target="POWER", seed=3))
    np.testing.assert_array_equal(noisy.features, clean.features)
    changed = np.flatnonzero(noisy.power != clean.power)
    np.testing.assert_array_equal(changed, affected)


def test_both_target_hits_features_and_power(clean):
    noisy, _ = inject(clean, NoiseConfig(1.0, target="BOTH", seed=3))
    assert not np.array_equal(noisy.features, clean.features)
    assert not np.array_equal(noisy.power, clean.power)


def test_columns_narrow_injection(clean):
    cfg = NoiseConfig(1.0, columns=("ssrd", "t2m"), seed=4)
    noisy, _ = inject(clean, cfg)
    names = list(pvfdi.FEATURE_NAMES)
    hit = [names.index("ssrd"), names.index("t2m")]
    spared = [j for j in range(12) if j not in hit]
    np.testing.assert_array_equal(noisy.features[:, spared], clean.features[:, spared])
    assert np.all(noisy.features[:, hit] != clean.features[:, hit])


@pytest.mark.parametrize("columns", [(), []])
def test_empty_columns_hit_every_feature(clean, columns):
    cfg = NoiseConfig(1.0, columns=columns, seed=4)
    assert cfg.columns is None
    noisy, _ = inject(clean, cfg)
    expected, _ = inject(clean, NoiseConfig(1.0, seed=4))
    np.testing.assert_array_equal(noisy.features, expected.features)


def test_unknown_column_rejected():
    with pytest.raises(ValueError):
        NoiseConfig(0.5, columns=("sunshine",))


def test_repeated_column_rejected():
    # += over a repeated fancy index keeps one of its two draws
    with pytest.raises(ValueError, match="must not repeat"):
        NoiseConfig(0.5, columns=("tcc", "t2m", "tcc"))


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(1.5)
    with pytest.raises(ValueError):
        NoiseConfig(0.5, std=-1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="std must be finite"):
            NoiseConfig(0.5, std=bad)
        with pytest.raises(ValueError, match="mean must be finite"):
            NoiseConfig(0.5, mean=bad)
    with pytest.raises(ValueError):
        NoiseConfig(0.5, target="features")
    assert NOISE_TARGETS == ("FEATURES", "POWER", "BOTH")
    assert math.copysign(1.0, NoiseConfig(-0.0).fraction) == 1.0  # -0 is the clean 0


@pytest.mark.parametrize("target, columns, name", [
    ("FEATURES", None, "tclw"), ("FEATURES", ("ssrd", "tp"), "ssrd"), ("POWER", None, "POWER"),
])
def test_noise_beyond_the_float_range_is_a_data_error(clean, target, columns, name):
    # a std of 1e308 takes a draw beyond +-1.797 (7 % of them) to infinity
    cfg = NoiseConfig(0.5, std=1e308, target=target, columns=columns)
    with pytest.raises(DataError, match=f"column '{name}'"):
        inject(clean, cfg)


def test_injection_deterministic(clean):
    a, rows_a = inject(clean, NoiseConfig(0.5, seed=8))
    b, rows_b = inject(clean, NoiseConfig(0.5, seed=8))
    assert rows_a == rows_b
    np.testing.assert_array_equal(a.features, b.features)


def test_seed_changes_rows_not_count(clean):
    _, rows_a = inject(clean, NoiseConfig(0.5, seed=8))
    _, rows_b = inject(clean, NoiseConfig(0.5, seed=88))
    assert len(rows_a) == len(rows_b) == 100
    assert rows_a != rows_b


def test_noise_moments_match_request():
    big = pvfdi.synth_generate(10_000, seed=30)
    cfg = NoiseConfig(1.0, mean=0.25, std=2.0, seed=6)
    noisy, _ = inject(big, cfg)
    delta = (noisy.features - big.features).ravel()  # 120k draws
    assert delta.mean() == pytest.approx(0.25, abs=0.02)
    assert delta.std() == pytest.approx(2.0, abs=0.02)


def test_standard_normal_default_moments():
    big = pvfdi.synth_generate(10_000, seed=31)
    noisy, _ = inject(big, NoiseConfig(1.0, seed=7))
    delta = (noisy.features - big.features).ravel()
    assert abs(delta.mean()) < 0.02
    assert delta.std() == pytest.approx(1.0, abs=0.02)
