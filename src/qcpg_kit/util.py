"""Small shared helpers: deterministic RNG derivation and line splitting."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4
MAX_ENTROPY_WORDS = 64


def _hash_schedule(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` mod 2**32 for k < count: the hash constants SeedSequence steps through."""
    consts, h = [], init
    for _ in range(count):
        consts.append(h)
        h = h * mult & _MASK32
    return np.array(consts, dtype=np.uint32)


# Neither schedule depends on the data. The k-th hashmix call of a pool
# mix XORs with _HASHMIX[k] and multiplies by _HASHMIX[k + 1];
# generate_state does the same with _STATE_HASH for the k-th of its
# 4 uint32 words (2 uint64).
_HASHMIX = _hash_schedule(0x43B0D7E5, 0x931E8875, _POOL_SIZE * MAX_ENTROPY_WORDS + 1)
_STATE_HASH = _hash_schedule(0x8B51F9DD, 0x58F38DED, 4 + 1)


def as_entropy(part) -> int:
    """One ``rng_for`` part as a 64-bit int: an int masked, anything else the SHA-256 prefix of its text."""
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(seed: int, *parts) -> np.random.Generator:
    """Derive an independent counter-based generator from the root seed.

    Each distinct ``(seed, *parts)`` tuple yields its own stream, so
    subsystems can draw randomness in any order (or in parallel) without
    affecting one another. Strings are hashed with SHA-256, not Python's
    salted ``hash``, so streams are stable across processes.
    """
    entropy = [as_entropy(seed)] + [as_entropy(p) for p in parts]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def seed_sequence_keys(entropy: np.ndarray) -> np.ndarray:
    """The Philox key of ``Philox(SeedSequence(row))`` for each row of an (n, W) uint32 array.

    This is numpy's SeedSequence algorithm (pool size 4: ``hashmix`` and
    ``mix``, then ``generate_state(2, uint64)``) run once over all n rows
    as uint32 array arithmetic: a fixed cost of a few hundred
    microseconds per call, then well under a microsecond per row.
    ``rng_for`` keeps numpy's own SeedSequence, which is faster for one
    row; the tests pin the two to each other.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    n, width = entropy.shape
    if width > MAX_ENTROPY_WORDS:
        raise ValueError(f"entropy of {width} words is wider than {MAX_ENTROPY_WORDS}")
    calls = itertools.count()

    def hashmix(value):
        k = next(calls)
        value = (value ^ _HASHMIX[k]) * _HASHMIX[k + 1]
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    words = list(entropy.T)
    pool = [hashmix(words[i] if i < width else np.zeros(n, np.uint32)) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[src]))
    state = []
    for k, value in enumerate(pool):
        value = (value ^ _STATE_HASH[k]) * _STATE_HASH[k + 1]
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # generate_state reads its uint32 words as little-endian uint64 pairs
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def philox_keys(parts: np.ndarray) -> np.ndarray:
    """The Philox key of ``Philox(SeedSequence(list(row)))`` for each row of an (n, P) array of
    ints below 2**64, such as ``as_entropy`` values.

    SeedSequence takes an int below 2**32 as one uint32 word and any
    other as two, low word first; zero-padding a short row would change
    its key. So the rows are grouped by word count, one pass per count.
    """
    parts = np.asarray(parts, dtype=np.uint64)
    n = len(parts)
    halves = np.stack([parts & _MASK32, parts >> 32], axis=2).reshape(n, -1).astype(np.uint32)
    present = halves != 0
    present[:, 0::2] = True
    widths = present.sum(axis=1)
    keys = np.empty((n, 2), dtype=np.uint64)
    for width in np.unique(widths):
        rows = widths == width
        keys[rows] = seed_sequence_keys(halves[rows][present[rows]].reshape(-1, width))
    return keys


def keyed_generators(keys: np.ndarray):
    """Yield, for each Philox key, a Generator at the start of the Philox stream with that key.

    One Philox is reset per key (key set, counter 0, buffer empty), so
    every Generator yielded is the same object, valid until the next.
    """
    bitgen = np.random.Philox(0)
    state = bitgen.state  # counter 0, buffer empty
    rng = np.random.Generator(bitgen)
    for key in keys:
        state["state"]["key"] = key
        bitgen.state = state
        yield rng


def split_lines(text: str) -> list[str]:
    r"""Split at ``\n`` only, dropping one trailing ``\r`` per line; U+2028,
    U+0085, form feed and the like stay inside a line."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline ending the last line
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, split as :func:`split_lines` does."""
    with open(path, encoding="utf-8", newline="") as fh:
        return split_lines(fh.read())
