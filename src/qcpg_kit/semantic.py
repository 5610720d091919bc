"""Semantic similarity scoring.

The semantic dimension is a raw model score squashed through a sigmoid
onto [0, 100]. Two raw scorers are provided: a deterministic built-in
character-trigram scorer (no model dependencies, monotone with surface
similarity) and an adapter that pipes sentence pairs to any external
command speaking a one-line-per-pair protocol, so a real neural scorer
can be plugged in without code changes.

An external scorer is one process per batch (``run_line_protocol``,
shared with the external generator) of at most ``MAX_BATCH_REQUESTS``
distinct pairs not yet scored in ``score``, ``eval``, a
``quality_samples`` call, a grid chunk or one oracle ``generate_batch``
call. A ``QualityComputer`` starts each batch's process before it
computes the batch's syn and lex, and feeds the process its pairs
afterwards, so the process's start-up overlaps that work. A spawn
failure, a non-zero exit, a wrong line count, invalid UTF-8 or a
non-numeric line fails every pair of the batch; a non-finite score fails
only its own pair.

The built-in scorer reuses per-sentence work within a batch: each
distinct sentence is lowercased, counted into trigrams and given its
integer squared norm once, and its counts are dropped after its last
pair. Scores are still per ordered pair; the built-in cosine is
symmetric, but an external scorer need not be.
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
SCORER_KINDS = (BUILTIN_TRIGRAM, EXTERNAL_COMMAND)


def _trigram_profile(s: str) -> tuple[str, Counter, int]:
    """The sentence lowercased, its trigram counts and their integer squared norm."""
    low = s.lower()
    counts = Counter(low[i:i + 3] for i in range(len(low) - 2))
    return low, counts, sum(c * c for c in counts.values())


def _builtin_raw_batch(pairs: list[tuple[str, str]]) -> list[float]:
    """Raw scores in [-2, 2] from character-trigram cosine similarity, in pair order.

    The cosine is affinely mapped via 4 * (cos - 0.5) so the sigmoid
    downstream spans a useful range. Sentences too short for trigrams
    compare as cosine 1 when equal (after lowercasing) and 0 otherwise.
    Each distinct sentence is profiled once, and its profile is dropped
    after its last pair. The dot product and norms are integers, so a
    score does not depend on the batch it is in.
    """
    uses = Counter(s for pair in pairs for s in pair)
    profiles: dict[str, tuple[str, Counter, int]] = {}
    raws = []
    for pair in pairs:
        ends = []
        for s in pair:
            profile = profiles.get(s)
            if profile is None:
                profile = profiles[s] = _trigram_profile(s)
            ends.append(profile)
            uses[s] -= 1
            if not uses[s]:
                del profiles[s]
        (a, ca, na), (b, cb, nb) = ends
        if a == b:
            raws.append(2.0)
        elif not ca or not cb:
            raws.append(-2.0)
        else:
            if len(cb) < len(ca):
                ca, cb = cb, ca
            dot = sum(count * cb.get(gram, 0) for gram, count in ca.items())
            raws.append(4.0 * (dot / math.sqrt(na * nb) - 0.5))
    return raws


def builtin_trigram_raw(s1: str, s2: str) -> float:
    """Raw trigram score of one pair: a batch of one (``_builtin_raw_batch``)."""
    return _builtin_raw_batch([(s1, s2)])[0]


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


# The most requests one batch holds: the controls `grid` and `generate` put
# in one generate_batch call (unless one group alone holds more), and the
# pairs a QualityComputer sends to one raw_batch call. A batch is one
# external process; the bound keeps a batch's memory small.
MAX_BATCH_REQUESTS = 4096


def run_line_protocol(command: str, lines: list[str], what: str, meanwhile=lambda: None) -> list[str]:
    r"""Pipe ``lines`` to ``command`` and read back exactly one line per input.

    Both directions are UTF-8. Output lines end at ``\n`` only, with one
    trailing ``\r`` dropped, so other Unicode line breaks (U+2028, U+0085,
    form feed, ...) are data inside a line. Empty ``lines`` start no process.
    A command that names no program, or that ``shlex`` cannot split, fails
    to spawn like a missing program.

    ``meanwhile`` is called once with no arguments after the process has
    started and before it is fed its lines, so the caller's own work
    overlaps the process's start-up; with empty ``lines`` it is called all
    the same, and after a spawn failure it is not. If it raises, the
    process is killed and reaped and the exception propagates.
    """
    if not lines:
        meanwhile()
        return []
    stdin = "".join(line + "\n" for line in lines).encode("utf-8")
    try:
        argv = shlex.split(command)
        if not argv:
            raise ValueError("it names no program")
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except (OSError, ValueError) as exc:
        raise SpawnFailure(f"could not spawn {what} command {command!r}: {exc}") from exc
    with proc:
        try:
            meanwhile()
            stdout, stderr = proc.communicate(stdin)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        stderr = stderr.decode("utf-8", "replace")
        raise ProtocolError(
            f"{what} command exited with status {proc.returncode}: {stderr.strip()[:500]}"
        )
    try:
        out = split_lines(stdout.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"{what} command wrote invalid UTF-8 at byte {exc.start}") from None
    if len(out) != len(lines):
        raise ProtocolError(
            f"{what} command returned {len(out)} lines for {len(lines)} inputs",
            line=min(len(out), len(lines)) + 1,
        )
    return out


def external_raw(command: str, pairs: list[tuple[str, str]], meanwhile=lambda: None) -> list[float]:
    """Score sentence pairs with an external command.

    Protocol: one ``s1<TAB>s2`` pair per stdin line, one decimal score
    per stdout line, exit code 0. Scores are returned in input order.
    ``meanwhile`` is passed to ``run_line_protocol``.
    """
    lines = [f"{sanitize_line_field(s1)}\t{sanitize_line_field(s2)}" for s1, s2 in pairs]
    out = run_line_protocol(command, lines, "scorer", meanwhile)
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
        if self.kind not in SCORER_KINDS:
            raise ValueError(f"unknown scorer kind {self.kind!r}")
        if self.kind == EXTERNAL_COMMAND and not (self.command or "").strip():
            raise ValueError("external_command scorer requires a command string")

    def raw_batch(self, pairs: list[tuple[str, str]], meanwhile=lambda: None) -> list[float]:
        """Raw scores of ``pairs``, in order.

        ``meanwhile`` is called once with no arguments while the scores
        are computed: an external scorer calls it after its process has
        started and before the process is fed the pairs, so the caller's
        work overlaps the process's start-up (except after a spawn
        failure, when it is not called); the built-in scorer calls it
        first.
        """
        if self.kind == BUILTIN_TRIGRAM:
            meanwhile()
            return _builtin_raw_batch(pairs)
        return external_raw(self.command, pairs, meanwhile)


DEFAULT_SCORER = SemanticScorer()
