"""Tests for the constant name space."""

import numpy as np
import pytest

from repro.naming.namespace import NameSpace, recommended_size
from repro.util.errors import ConfigurationError
from tests.oracles.naming import sample_reference


class TestNameSpace:
    def test_contains(self):
        space = NameSpace(4)
        assert 0 in space
        assert 3 in space
        assert 4 not in space
        assert -1 not in space
        assert "2" not in space

    def test_contains_numpy_integers(self):
        space = NameSpace(4)
        assert np.int64(0) in space
        assert np.uint8(3) in space
        assert np.int32(4) not in space
        assert np.int64(-1) not in space

    def test_contains_rejects_bools_and_floats(self):
        space = NameSpace(4)
        assert True not in space
        assert False not in space
        assert np.bool_(True) not in space
        assert 1.0 not in space
        assert np.float64(2) not in space

    def test_numpy_exclusions_are_honored(self, rng):
        space = NameSpace(3)
        draws = {space.sample(rng, exclude=[np.int64(0), np.int64(1)])
                 for _ in range(20)}
        assert draws == {2}

    def test_bool_exclusions_are_ignored(self, rng):
        space = NameSpace(2)
        draws = {space.sample(rng, exclude=[True, False]) for _ in range(40)}
        assert draws == {0, 1}

    def test_duplicate_exclusions_count_once(self, rng):
        space = NameSpace(3)
        draws = {space.sample(rng, exclude=[1, 1, np.int64(1), 0])
                 for _ in range(20)}
        assert draws == {2}

    def test_sample_matches_scan_oracle(self):
        # Same draw, same name as the scan over γ, generator state included.
        space = NameSpace(50)
        fast_rng = np.random.default_rng(7)
        oracle_rng = np.random.default_rng(7)
        for k in range(200):
            exclude = [(k * 7 + j * 13) % 60 for j in range(k % 40)]
            assert space.sample(fast_rng, exclude) == \
                sample_reference(space, oracle_rng, exclude)
        assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_len(self):
        assert len(NameSpace(7)) == 7

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            NameSpace(0)

    def test_sample_uniform_over_free_names(self, rng):
        space = NameSpace(4)
        draws = [space.sample(rng, exclude=[0, 2]) for _ in range(200)]
        assert set(draws) == {1, 3}
        ones = draws.count(1)
        assert 60 <= ones <= 140  # roughly balanced

    def test_sample_whole_space(self, rng):
        space = NameSpace(3)
        draws = {space.sample(rng) for _ in range(100)}
        assert draws == {0, 1, 2}

    def test_exhausted_space_raises(self, rng):
        space = NameSpace(2)
        with pytest.raises(ConfigurationError):
            space.sample(rng, exclude=[0, 1])

    def test_exclusions_outside_space_ignored(self, rng):
        space = NameSpace(2)
        name = space.sample(rng, exclude=[5, 7, 0])
        assert name == 1


class TestRecommendedSize:
    def test_delta_squared(self):
        assert recommended_size(10) == 100

    def test_exponent_one(self):
        assert recommended_size(10, exponent=1) == 12  # delta + 2 floor

    def test_small_delta_floor(self):
        assert recommended_size(0) == 2
        assert recommended_size(1) >= 3

    def test_rejects_negative_delta(self):
        with pytest.raises(ConfigurationError):
            recommended_size(-1)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ConfigurationError):
            recommended_size(5, exponent=0)
