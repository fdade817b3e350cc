import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caribou.model import TrainConfig, train_head
from caribou.prng import _Key, stream

MASK64 = (1 << 64) - 1
ID = st.integers(0, 2**32 - 1)


def keyed_generator(seed, *ids):
    """The generator ``stream`` stands for: Philox keyed by the seed and the
    packed ids, built through its ``key`` argument."""
    packed = sum(sid << (32 * i) for i, sid in enumerate(ids))
    key = np.array([seed & MASK64, packed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TestStream:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(-(2**63), 2**64 - 1), ids=st.lists(ID, max_size=2))
    @example(seed=0, ids=[])
    @example(seed=-(2**63), ids=[1])
    @example(seed=-1, ids=[0])
    @example(seed=2**64 - 1, ids=[2**32 - 1, 2**32 - 1])
    @example(seed=0, ids=[0, 2**32 - 1])
    def test_draws_equal_the_keyed_philox(self, seed, ids):
        got, expected = stream(seed, *ids), keyed_generator(seed, *ids)
        assert np.array_equal(got.normal(size=37), expected.normal(size=37))
        assert np.array_equal(got.integers(0, 1 << 63, size=5),
                              expected.integers(0, 1 << 63, size=5))
        assert np.array_equal(got.random(3), expected.random(3))
        assert got.bit_generator.state["state"]["counter"].tolist() == \
            expected.bit_generator.state["state"]["counter"].tolist()

    def test_streams_of_one_key_are_independent_objects(self):
        a, b = stream(3, 1), stream(3, 1)
        first = a.normal(size=4)
        assert np.array_equal(b.normal(size=4), first)
        assert not np.array_equal(a.normal(size=4), first)

    @pytest.mark.parametrize("ids", [(-1,), (2**32,), (0, 2**32)])
    def test_id_outside_32_bits_rejected(self, ids):
        with pytest.raises(ValueError, match="outside"):
            stream(0, *ids)

    @pytest.mark.parametrize(
        "seed", [True, 1.5, np.float64(2.0), "3", None, 2**64, 2**64 + 1, -(2**63) - 1],
        ids=["bool", "float", "numpy-float", "string", "none", "2^64", "2^64+1", "below-2^63"],
    )
    def test_seed_outside_the_integers_it_keys_rejected(self, seed):
        # masked to 64 bits, 2^64 + 1 would key the stream of seed 1
        message = f"seed must be an integer in [-2^63, 2^64), got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stream(seed, 1)

    def test_numpy_integer_seeds_key_their_value(self):
        # a signed numpy integer cannot be masked by a Python int of 2^64 - 1
        for seed, same in ((np.int64(-1), 2**64 - 1), (np.uint64(2**64 - 1), -1),
                           (np.int32(7), 7)):
            assert np.array_equal(stream(seed, 2).random(4), stream(same, 2).random(4))

    def test_a_fractional_training_seed_is_named(self):
        x = np.eye(4)
        with pytest.raises(ValueError, match=r"^seed must be .*, got 2\.5$"):
            train_head(x, x, np.array([0, 1, 0, 1]), np.arange(4), TrainConfig(epochs=1), 2.5)

    def test_at_most_two_ids(self):
        with pytest.raises(ValueError, match="at most two"):
            stream(0, 1, 2, 3)

    def test_key_refuses_another_state_size(self):
        key = _Key(np.array([1, 2], dtype=np.uint64))
        assert key.generate_state(2, np.uint64) is key.key
        with pytest.raises(ValueError, match="Philox key"):
            key.generate_state(4, np.uint32)
