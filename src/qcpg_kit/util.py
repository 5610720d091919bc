"""Small shared helpers: deterministic RNG derivation, and the files and line format read and written."""

from __future__ import annotations

import hashlib
import os
import stat

import numpy as np

_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4


def _hasher(init: int, mult: int):
    """SeedSequence's hash: XOR with a running constant, step it by ``mult``, multiply by it, xorshift."""
    const = init

    def hash_(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> _XSHIFT)

    return hash_


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
    ``mix``, then ``generate_state(2, uint64)``), each hash stepping its
    running constant as numpy's does, run once over all n rows as uint32
    array arithmetic. Rows may be of any width W. It costs a fixed few
    hundred microseconds per call, then well under a microsecond per row.
    ``rng_for`` keeps numpy's own SeedSequence, which is faster for one
    row; the tests pin the two to each other.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    n, width = entropy.shape
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

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
    state_hash = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [state_hash(value).astype(np.uint64) for value in pool]
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
    n, p = parts.shape
    halves = np.stack([parts & _MASK32, parts >> 32], axis=2).reshape(n, 2 * p).astype(np.uint32)
    present = halves != 0
    present[:, 0::2] = True
    widths = present.sum(axis=1)
    keys = np.empty((n, 2), dtype=np.uint64)
    for width in np.flatnonzero(np.bincount(widths)):  # np.unique, with no index output, loads numpy.ma (numpy 2.4)
        rows = widths == width
        keys[rows] = seed_sequence_keys(halves[rows][present[rows]].reshape(np.count_nonzero(rows), width))
    return keys


def keyed_generators(keys: np.ndarray):
    """Yield, for each Philox key, a Generator at the start of the Philox stream with that key.

    One Philox is reset per key (key set, counter 0, buffer empty), so
    every Generator yielded is the same object, valid until the next.
    The state setter reads its arrays one element at a time, so they are
    handed to it as lists of Python ints; the keys are converted once.
    """
    bitgen = np.random.Philox(0)
    state = bitgen.state  # counter 0, buffer empty
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    rng = np.random.Generator(bitgen)
    for key in np.asarray(keys, dtype=np.uint64).tolist():
        state["state"]["key"] = key
        bitgen.state = state
        yield rng


def is_json_number(value) -> bool:
    """Whether a value read from JSON is a number: an int or a float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def split_lines(text: str) -> list[str]:
    r"""Split at ``\n`` only, dropping one trailing ``\r`` per line; U+2028,
    U+0085, form feed and the like stay inside a line."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline ending the last line
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def read_text(path) -> str:
    """The text of a UTF-8 file, one leading BOM dropped, line ends as written."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return fh.read()


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8, line ends as given, whole or not at all: to a new file
    beside ``path``, which ``os.replace`` then moves onto it (onto a symlink's target).

    A failed write or close removes the new file. An existing file keeps its
    permission bits; a new one gets ``0o666 & ~umask``. A target that is not a
    regular file, such as ``/dev/null`` or ``/dev/stdout``, is written in place.
    No fsync: this holds through a crash, an interrupt or a full disk, not a power loss.
    """
    mode = os.stat(path).st_mode if os.path.exists(path) else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    tmp = f"{os.path.dirname(target)}/.{os.path.basename(target)[:50]}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def read_lines(path) -> list[str]:
    """The lines of :func:`read_text`, split as :func:`split_lines` does."""
    return split_lines(read_text(path))


def tsv_row(fields: list[str]) -> str:
    r"""``fields`` joined by tabs and ended by ``\n``: one line that reads back as ``fields``.

    Raises ValueError for a field holding a tab or newline, or a last
    field ending in ``\r`` (:func:`split_lines` drops one ``\r`` before
    each newline).
    """
    if any("\t" in f or "\n" in f for f in fields) or fields[-1].endswith("\r"):
        raise ValueError(f"row {fields[:2]!r} has a field that a TSV line cannot hold")
    return "\t".join(fields) + "\n"
