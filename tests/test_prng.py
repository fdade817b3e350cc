import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caribou.model import TrainConfig, train_head
from caribou.prng import _Key, stream

MASK64 = (1 << 64) - 1
ID = st.integers(0, 2**32 - 1)


def keyed_generator(seed, *ids, part=0):
    """The generator ``stream`` stands for: Philox keyed by the seed and the
    packed ids, built through its ``key`` argument, with ``part`` as the
    top word of its counter."""
    packed = sum(sid << (32 * i) for i, sid in enumerate(ids))
    key = np.array([seed & MASK64, packed], dtype=np.uint64)
    counter = np.array([0, 0, 0, part], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


class TestStream:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(-(2**63), 2**64 - 1), ids=st.lists(ID, max_size=2))
    @example(seed=0, ids=[])
    @example(seed=-(2**63), ids=[1])
    @example(seed=-1, ids=[0])
    @example(seed=2**64 - 1, ids=[2**32 - 1, 2**32 - 1])
    @example(seed=0, ids=[0, 2**32 - 1])
    def test_draws_equal_the_keyed_philox(self, seed, ids):
        expected = keyed_generator(seed, *ids)
        normal, integers, uniform = (expected.normal(size=37),
                                     expected.integers(0, 1 << 63, size=5), expected.random(3))
        # part 0 is the key's stream from counter 0
        for got in (stream(seed, *ids), stream(seed, *ids, part=0)):
            assert np.array_equal(got.normal(size=37), normal)
            assert np.array_equal(got.integers(0, 1 << 63, size=5), integers)
            assert np.array_equal(got.random(3), uniform)
            assert got.bit_generator.state["state"]["counter"].tolist() == \
                expected.bit_generator.state["state"]["counter"].tolist()

    @pytest.mark.parametrize("seed, ids", [(0, ()), (7, (0x40C4, 3)), (2**64 - 1, (1,))])
    def test_parts_are_the_top_counter_word(self, seed, ids):
        draws = [stream(seed, *ids, part=part).normal(size=64) for part in (0, 1, 2, 2**64 - 1)]
        for part, draw in zip((0, 1, 2, 2**64 - 1), draws):
            assert np.array_equal(draw, keyed_generator(seed, *ids, part=part).normal(size=64))
        # no two parts share a number
        assert np.unique(np.concatenate(draws)).size == 4 * 64

    @pytest.mark.parametrize("part", [True, False, -1, 2**64, 1.0, np.float64(2.0), "1"],
                             ids=["true", "false", "negative", "2^64", "float", "numpy-float",
                                  "string"])
    def test_part_outside_the_counter_word_rejected(self, part):
        message = f"part must be an integer in [0, 2^64), got {part!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stream(3, 1, part=part)

    def test_numpy_integer_parts_key_their_value(self):
        for part in (np.int64(3), np.uint64(3), np.int8(3)):
            assert np.array_equal(stream(4, 2, part=part).random(4), stream(4, 2, part=3).random(4))

    def test_streams_of_one_key_are_independent_objects(self):
        a, b = stream(3, 1), stream(3, 1)
        first = a.normal(size=4)
        assert np.array_equal(b.normal(size=4), first)
        assert not np.array_equal(a.normal(size=4), first)

    @pytest.mark.parametrize("ids", [(-1,), (2**32,), (0, 2**32)])
    def test_id_outside_32_bits_rejected(self, ids):
        message = f"stream id must be an integer in [0, 2^32), got {ids[-1]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stream(0, *ids)

    @pytest.mark.parametrize("sid", [True, False, 1.5, np.float64(2.0), "1", None],
                             ids=["true", "false", "float", "numpy-float", "string", "none"])
    @pytest.mark.parametrize("position", [0, 1])
    def test_id_that_is_not_an_integer_rejected(self, sid, position):
        # True as an id would draw the numbers of id 1
        ids = (sid, 3) if position == 0 else (3, sid)
        message = f"stream id must be an integer in [0, 2^32), got {sid!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stream(0, *ids)

    def test_numpy_integer_ids_key_their_value(self):
        # a 32-bit numpy id shifted into the key's top half would be lost
        for sid in (np.int64(5), np.uint64(5), np.uint32(5), np.int8(5)):
            for ids, same in (((sid,), (5,)), ((sid, sid), (5, 5)), ((1, sid), (1, 5))):
                assert np.array_equal(stream(4, *ids).random(4), stream(4, *same).random(4))

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
