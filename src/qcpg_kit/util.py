"""Small shared helpers: deterministic RNG derivation and line splitting."""

from __future__ import annotations

import hashlib

import numpy as np


def _as_entropy(part) -> int:
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
    entropy = [_as_entropy(seed)] + [_as_entropy(p) for p in parts]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


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
