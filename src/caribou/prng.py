"""Deterministic random streams built on the Philox counter-based generator.

Every stochastic component of the library draws from a stream keyed by
(seed, context ids) so that results are reproducible regardless of the
order in which streams are consumed.  Philox-4x64 takes a 2-word key:
word 0 carries the user seed, word 1 packs up to two 32-bit context ids.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
# the values of numbers.Integral, checked in a fraction of its time
_INTEGERS = (int, np.integer)


class _Key(ISeedSequence):
    """A seed sequence whose state is a given Philox key.

    ``Philox(_Key(key))`` is the generator ``Philox(key=key)``, counter 0,
    without the ``SeedSequence()`` that ``Philox`` builds, from fresh OS
    entropy, for the seed it is not given and then throws away.
    """

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != self.key.size or np.dtype(dtype) != self.key.dtype:
            raise ValueError(f"a Philox key is {self.key.size} words of {self.key.dtype}")
        return self.key


def _check_seed(seed) -> int:
    """``seed`` as an int; ValueError unless an integer in [-2^63, 2^64), not a bool."""
    if (isinstance(seed, bool) or not isinstance(seed, _INTEGERS)
            or not -(1 << 63) <= int(seed) <= _MASK64):
        raise ValueError(f"seed must be an integer in [-2^63, 2^64), got {seed!r}")
    return int(seed)


def stream(seed: int, *ids: int, part: int = 0) -> np.random.Generator:
    """Return an independent Generator for the given seed and context ids.

    ``seed`` is an integer in [-2^63, 2^64), not a bool; a negative seed
    is read modulo 2^64, so -1 keys the stream of 2^64 - 1.  At most two
    context ids, each an integer in [0, 2^32) and not a bool, are
    supported.  ``part``, in [0, 2^64), is Philox's top counter word:
    parts of one key draw disjoint counter ranges, and part 0 is the key's
    stream.  Normal variates use NumPy's ziggurat sampler.
    """
    seed = _check_seed(seed)
    if (isinstance(part, bool) or not isinstance(part, _INTEGERS)
            or not 0 <= int(part) <= _MASK64):
        raise ValueError(f"part must be an integer in [0, 2^64), got {part!r}")
    if len(ids) > 2:
        raise ValueError("at most two stream ids are supported")
    packed = 0
    for i, sid in enumerate(ids):
        if isinstance(sid, bool) or not isinstance(sid, _INTEGERS) or not 0 <= sid < (1 << 32):
            raise ValueError(f"stream id must be an integer in [0, 2^32), got {sid!r}")
        packed |= int(sid) << (32 * i)
    key = np.array([seed & _MASK64, packed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key), counter=int(part) << 192))
