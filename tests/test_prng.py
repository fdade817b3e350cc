import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    @given(seed=st.integers(-(2**64), 2**64 - 1), ids=st.lists(ID, max_size=2))
    @example(seed=0, ids=[])
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

    def test_at_most_two_ids(self):
        with pytest.raises(ValueError, match="at most two"):
            stream(0, 1, 2, 3)

    def test_key_refuses_another_state_size(self):
        key = _Key(np.array([1, 2], dtype=np.uint64))
        assert key.generate_state(2, np.uint64) is key.key
        with pytest.raises(ValueError, match="Philox key"):
            key.generate_state(4, np.uint32)
