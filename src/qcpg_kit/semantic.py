"""Semantic similarity scoring.

The semantic dimension is a raw model score squashed through a sigmoid
onto [0, 100]. Two raw scorers are provided: a deterministic built-in
character-trigram scorer (no model dependencies, monotone with surface
similarity) and an adapter that pipes sentence pairs to any external
command speaking a one-line-per-pair protocol, so a real neural scorer
can be plugged in without code changes.

An external scorer is one process per batch (``run_line_protocol``,
shared with the external generator) of the distinct pairs not yet
scored in ``score``, ``eval``, a ``quality_samples`` call, a grid chunk
or one oracle ``generate_batch`` call. A spawn failure, a non-zero exit,
a wrong line count, invalid UTF-8 or a non-numeric line fails every pair
of the batch; a non-finite score fails only its own pair.
"""

from __future__ import annotations

import math
import shlex
import subprocess
from collections import Counter
from dataclasses import dataclass

from .errors import NonFiniteValue, ProtocolError, SpawnFailure
from .util import split_lines

BUILTIN_TRIGRAM = "builtin_trigram"
EXTERNAL_COMMAND = "external_command"


def _trigram_counts(s: str) -> Counter:
    return Counter(s[i:i + 3] for i in range(len(s) - 2))


def builtin_trigram_raw(s1: str, s2: str) -> float:
    """Raw score in [-2, 2] from character-trigram cosine similarity.

    The cosine is affinely mapped via 4 * (cos - 0.5) so the sigmoid
    downstream spans a useful range. Sentences too short for trigrams
    compare as cosine 1 when equal (after lowercasing) and 0 otherwise.
    """
    a, b = s1.lower(), s2.lower()
    if a == b:
        return 2.0
    ca, cb = _trigram_counts(a), _trigram_counts(b)
    if not ca or not cb:
        return -2.0
    dot = sum(count * cb[gram] for gram, count in ca.items())
    norm_sq = sum(c * c for c in ca.values()) * sum(c * c for c in cb.values())
    cosine = dot / math.sqrt(norm_sq)
    return 4.0 * (cosine - 0.5)


def semantic_similarity(raw: float) -> float:
    """Sigmoid-normalize a raw score onto (0, 100)."""
    if not math.isfinite(raw):
        raise NonFiniteValue(f"raw semantic score must be finite, got {raw!r}")
    if raw >= 0:
        sig = 1.0 / (1.0 + math.exp(-raw))
    else:
        e = math.exp(raw)
        sig = e / (1.0 + e)
    return 100.0 * sig


def sanitize_line_field(text: str) -> str:
    # the wire protocol is line/tab delimited; collapse conflicting chars
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def run_line_protocol(command: str, lines: list[str], what: str) -> list[str]:
    r"""Pipe ``lines`` to ``command`` and read back exactly one line per input.

    Both directions are UTF-8. Output lines end at ``\n`` only, with one
    trailing ``\r`` dropped, so other Unicode line breaks (U+2028, U+0085,
    form feed, ...) are data inside a line. Empty ``lines`` start no process.
    A command that names no program, or that ``shlex`` cannot split, fails
    to spawn like a missing program.
    """
    if not lines:
        return []
    stdin = "".join(line + "\n" for line in lines).encode("utf-8")
    try:
        argv = shlex.split(command)
        if not argv:
            raise ValueError("it names no program")
        proc = subprocess.run(argv, input=stdin, capture_output=True)
    except (OSError, ValueError) as exc:
        raise SpawnFailure(f"could not spawn {what} command {command!r}: {exc}") from exc
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", "replace")
        raise ProtocolError(
            f"{what} command exited with status {proc.returncode}: {stderr.strip()[:500]}"
        )
    try:
        out = split_lines(proc.stdout.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"{what} command wrote invalid UTF-8 at byte {exc.start}") from None
    if len(out) != len(lines):
        raise ProtocolError(
            f"{what} command returned {len(out)} lines for {len(lines)} inputs",
            line=min(len(out), len(lines)) + 1,
        )
    return out


def external_raw(command: str, pairs: list[tuple[str, str]]) -> list[float]:
    """Score sentence pairs with an external command.

    Protocol: one ``s1<TAB>s2`` pair per stdin line, one decimal score
    per stdout line, exit code 0. Scores are returned in input order.
    """
    lines = [f"{sanitize_line_field(s1)}\t{sanitize_line_field(s2)}" for s1, s2 in pairs]
    out = run_line_protocol(command, lines, "scorer")
    scores = []
    for lineno, text in enumerate(out, start=1):
        try:
            scores.append(float(text.strip()))
        except ValueError:
            raise ProtocolError(f"scorer returned non-numeric output {text!r}", line=lineno) from None
    return scores


@dataclass(frozen=True)
class SemanticScorer:
    """Raw-score source: the built-in trigram scorer or an external command."""

    kind: str = BUILTIN_TRIGRAM
    command: str | None = None

    def __post_init__(self):
        if self.kind not in (BUILTIN_TRIGRAM, EXTERNAL_COMMAND):
            raise ValueError(f"unknown scorer kind {self.kind!r}")
        if self.kind == EXTERNAL_COMMAND and not (self.command or "").strip():
            raise ValueError("external_command scorer requires a command string")

    def raw(self, s1: str, s2: str) -> float:
        return self.raw_batch([(s1, s2)])[0]

    def raw_batch(self, pairs: list[tuple[str, str]]) -> list[float]:
        if self.kind == BUILTIN_TRIGRAM:
            return [builtin_trigram_raw(s1, s2) for s1, s2 in pairs]
        return external_raw(self.command, pairs)


DEFAULT_SCORER = SemanticScorer()
