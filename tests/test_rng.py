import numpy as np
import pytest

from pvfdi.experiment import ExperimentConfig
from pvfdi.noise import NoiseConfig
from pvfdi.regressors import ModelSpec
from pvfdi.rng import derive_seed, is_seed, stream


def test_same_seed_and_labels_reproduce():
    a = stream(42, "split").uniform(size=100)
    b = stream(42, "split").uniform(size=100)
    assert np.array_equal(a, b)


def test_distinct_labels_are_independent():
    a = stream(42, "split").uniform(size=100)
    b = stream(42, "synth").uniform(size=100)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = stream(1).uniform(size=50)
    b = stream(2).uniform(size=50)
    assert not np.array_equal(a, b)


def test_label_types_are_distinguished():
    # int 1, float 1.0, and string "1" must key different streams
    draws = {
        kind: stream(0, label).uniform(size=20).tobytes()
        for kind, label in (("int", 1), ("float", 1.0), ("str", "1"))
    }
    assert len(set(draws.values())) == 3


def test_float_labels_key_on_exact_value():
    a = stream(0, "noise", 0.1).uniform(size=10)
    b = stream(0, "noise", 0.5).uniform(size=10)
    assert not np.array_equal(a, b)


def test_negative_and_large_seeds_accepted():
    stream(-1).uniform(size=3)
    stream(2**63 + 11).uniform(size=3)
    assert derive_seed(-1, "x") == derive_seed(2**64 - 1, "x")


def test_derive_seed_is_stable_and_64_bit():
    s1 = derive_seed(42, "noise", 0.1)
    s2 = derive_seed(42, "noise", 0.1)
    assert s1 == s2
    assert 0 <= s1 < 2**64
    assert derive_seed(42, "noise", 0.1) != derive_seed(42, "noise", 0.5)
    assert derive_seed(42, "noise") != derive_seed(43, "noise")


def test_is_seed_takes_the_64_bit_integers_only():
    assert all(map(is_seed, (0, 7, 2**64 - 1, np.int64(7), np.uint64(2**64 - 1))))
    assert not any(map(is_seed, (-1, 2**64, np.int64(-1), True, 2.0, "1", None)))


# the streams key on a seed's low 64 bits, so a run recorded as seed -1 or
# 2**64 would hold the tables of seed 2**64 - 1 or 0
@pytest.mark.parametrize("seed", [-1, 2**64, 2**65 + 3])
@pytest.mark.parametrize("config", [
    lambda seed: ExperimentConfig(seed=seed),
    lambda seed: ModelSpec("MLPR", seed=seed),
    lambda seed: NoiseConfig(0.5, seed=seed),
])
def test_configs_refuse_seeds_the_streams_would_alias(config, seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        config(seed)
    config(2**64 - 1)
