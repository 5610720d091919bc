"""The batch Philox key derivation, pinned to numpy's own SeedSequence."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcpg_kit.util import MAX_ENTROPY_WORDS, as_entropy, keyed_generators, philox_keys, seed_sequence_keys


def reference_rng(seed, *parts):
    """A copy of rng_for as first written: Generator(Philox(SeedSequence(entropy)))."""

    def entropy(part):
        if isinstance(part, int):
            return part & 0xFFFFFFFFFFFFFFFF
        return int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "big")

    return np.random.Generator(np.random.Philox(np.random.SeedSequence([entropy(seed)] + [entropy(p) for p in parts])))


# one uint32 word (0 included) or two; seeds also above 2**64 and negative, which are masked
INTS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1))
SEEDS = st.one_of(INTS, st.integers(2**64, 2**96), st.integers(-(2**64), -1))
PARTS = st.one_of(INTS, st.text())


@st.composite
def batches(draw):
    """Rows of (seed, *parts), all with one part count; their word counts differ."""
    n_parts = draw(st.integers(0, 6))
    return draw(st.lists(st.tuples(SEEDS, *[PARTS] * n_parts), min_size=1, max_size=12))


@st.composite
def word_arrays(draw):
    width = draw(st.integers(0, 20))
    rows = draw(st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width), min_size=1, max_size=8))
    return np.array(rows, dtype=np.uint32).reshape(len(rows), width)


class TestBatchKeys:
    @given(batches(), st.floats(0.0, 50.0), st.integers(1, 6))
    @example(rows=[(0, 2**32 - 1, "a"), (2**40, 2**32, "b"), (7, 0, "c"), (2**64 + 5, 1, "")], std=5.0, k=5)
    @settings(max_examples=200, deadline=None)
    def test_keys_and_draws_equal_numpy(self, rows, std, k):
        keys = philox_keys(np.array([[as_entropy(p) for p in row] for row in rows], dtype=np.uint64))
        for row, key, rng in zip(rows, keys, keyed_generators(keys)):
            reference = reference_rng(*row)
            assert (key == reference.bit_generator.state["state"]["key"]).all()
            assert (rng.normal(0.0, std, size=(k, 3)) == reference.normal(0.0, std, size=(k, 3))).all()
            assert rng.random() == reference.random()

    @given(word_arrays())
    @settings(max_examples=100, deadline=None)
    def test_words_equal_numpy(self, words):
        expected = [np.random.Philox(np.random.SeedSequence(row)).state["state"]["key"] for row in words]
        assert (seed_sequence_keys(words) == np.array(expected, dtype=np.uint64).reshape(-1, 2)).all()

    def test_rejects_entropy_wider_than_the_schedule(self):
        seed_sequence_keys(np.zeros((2, MAX_ENTROPY_WORDS), dtype=np.uint32))
        with pytest.raises(ValueError):
            seed_sequence_keys(np.zeros((2, MAX_ENTROPY_WORDS + 1), dtype=np.uint32))
