"""Corpus evaluation: BLEU, Self-BLEU, system reports, Kendall's tau.

BLEU here is sentence-level BLEU-4 with add-one smoothing on orders
>= 2 (only when the raw match count is zero) and the closest-reference
brevity penalty; corpus numbers are means of sentence scores. Self-BLEU
scores a generation against its own source, so 100 means verbatim
copying and low values mean diversity.

Both come from one table per sentence: its token count and its 1- to
4-gram counts. ``evaluate_systems`` walks the rows, counts each distinct
sentence of a row once (the source, every system's output and the
reference), and reads every Self-BLEU and BLEU of that row from those
tables, so memory holds one row's tables at a time.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import repeat

import numpy as np

from .errors import AllTied, LengthMismatch, MissingTree, NonFiniteValue, raise_first_failure
from .quality import QualityComputer, QualityVector
from .semantic import DEFAULT_SCORER, SemanticScorer
from .util import tsv_row

MAX_BLEU_ORDER = 4


def _table(sentence: str) -> tuple[int, list[Counter]]:
    """A sentence's token count and its n-gram counts, one ``Counter`` per order 1..MAX_BLEU_ORDER."""
    tokens = sentence.split()
    shifted = [tokens[i:] for i in range(MAX_BLEU_ORDER)]
    return len(tokens), [Counter(zip(*shifted[:n])) for n in range(1, MAX_BLEU_ORDER + 1)]


def _bleu(candidate: str, references: list[str], table) -> float:
    """``bleu`` with each sentence's ``_table`` read through ``table(sentence)``."""
    c, cand = table(candidate)
    if not c:
        return 0.0
    refs = [table(r) for r in references] if references else []
    if all(not length for length, _ in refs):
        raise ValueError("bleu requires at least one non-empty reference")
    if len(refs) == 1:
        [(r, ref_counts)] = refs
    else:  # the closest reference length, the shorter on a tie; each order's counts max-merged once
        r = min((length for length, _ in refs), key=lambda rl: (abs(rl - c), rl))
        ref_counts = [reduce(operator.or_, order) for order in zip(*(counts for _, counts in refs))]

    log_sum, orders = 0.0, min(c, MAX_BLEU_ORDER)
    for n in range(orders):
        total = c - n
        counts = cand[n]  # clipped matches: min(count, reference count) over the candidate's n-grams
        matched = sum(map(min, counts.values(), map(ref_counts[n].get, counts, repeat(0))))
        if matched == 0:
            if n == 0:
                return 0.0
            p = 1.0 / (total + 1)
        else:
            p = matched / total
        log_sum += math.log(p)

    brevity = math.exp(1.0 - r / c) if c < r else 1.0
    return 100.0 * brevity * math.exp(log_sum / orders)


def bleu(candidate: str, references: list[str]) -> float:
    """Sentence-level smoothed BLEU-4 on a 0-100 scale.

    Tokens are whitespace-separated and case-sensitive. An empty
    candidate scores 0 by convention, as does any candidate sharing no
    unigram with the references (order 1 is never smoothed). Orders
    longer than the candidate are skipped.
    """
    return _bleu(candidate, references, _table)


def self_bleu(generated: str, source: str) -> float:
    """BLEU of a generation against its own source (copy detector)."""
    return _bleu(generated, [source], _table)


def kendall_tau(x: list[float], y: list[float]) -> float:
    """Tie-corrected Kendall's tau (tau-b) by direct pair counting; every value must be finite."""
    if len(x) != len(y):
        raise LengthMismatch(f"rankings differ in length: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("kendall_tau requires at least 2 observations")
    if not all(map(math.isfinite, [*x, *y])):
        raise NonFiniteValue("kendall_tau requires finite values; a NaN or infinity has no rank")
    concordant = discordant = tied_x = tied_y = 0
    n = len(x)
    for i in range(n):
        xi, yi = x[i], y[i]
        for j in range(i + 1, n):
            dx = xi - x[j]
            dy = yi - y[j]
            if dx == 0 and dy == 0:
                continue  # tied in both: excluded from every factor
            if dx == 0:
                tied_x += 1
            elif dy == 0:
                tied_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    denom_x = concordant + discordant + tied_x
    denom_y = concordant + discordant + tied_y
    if denom_x == 0 or denom_y == 0:
        raise AllTied("one of the rankings is entirely tied; tau-b is undefined")
    return (concordant - discordant) / math.sqrt(denom_x * denom_y)


@dataclass(frozen=True)
class EvalRow:
    name: str
    quality: QualityVector  # mean over pairs
    self_bleu: float
    bleu: float | None  # vs references, when provided
    n: int


@dataclass
class EvalReport:
    rows: list[EvalRow]

    def to_tsv(self) -> str:
        """A header and one row per system; ValueError for a name that cannot be one TSV field."""
        lines = [tsv_row("system sem syn lex self_bleu bleu n".split())]
        for row in self.rows:
            b = f"{row.bleu:.2f}" if row.bleu is not None else "-"
            scores = [f"{v:.2f}" for v in (*row.quality.as_tuple(), row.self_bleu)]
            lines.append(tsv_row([row.name, *scores, b, str(row.n)]))
        return "".join(lines)


def evaluate_systems(
    systems,
    references: list[str] | None = None,
    scorer: SemanticScorer = DEFAULT_SCORER,
) -> EvalReport:
    """Per-system corpus means of quality, Self-BLEU, and optional BLEU.

    ``systems`` is a list of ``(name, rows)``; each row is a
    ``(source, output, source_tree, output_tree)`` pair key. Every check
    is made before any pair is scored: each name must fit one TSV field
    (ValueError), no system may be empty (ValueError), every row must
    carry both trees (MissingTree), every system must have the first
    system's (source, source tree) sequence (LengthMismatch), and
    ``references`` must hold one entry per row (LengthMismatch), none of
    them blank or whitespace-only (ValueError). Every system's pairs are
    then measured in one batch; its first failure is raised.
    """
    systems = [(name, list(rows)) for name, rows in systems]
    for name, _ in systems:
        tsv_row([name, ""])  # the report's first field
    first = [(src, tree_src) for src, _, tree_src, _ in systems[0][1]] if systems else []
    for name, rows in systems:
        if not rows:
            raise ValueError(f"system {name!r} has no outputs to evaluate")
        if any(tree_src is None or tree_out is None for _, _, tree_src, tree_out in rows):
            raise MissingTree(f"system {name!r} has a pair without a source or output tree")
        if [(src, tree_src) for src, _, tree_src, _ in rows] != first:
            raise LengthMismatch(f"system {name!r} disagrees with the first system's sources or source trees")
    if systems and references is not None:
        if len(references) != len(first):
            raise LengthMismatch(f"{len(first)} pairs per system but {len(references)} references")
        for i, ref in enumerate(references):
            if not ref.split():
                raise ValueError(f"references[{i}] is blank; bleu requires at least one non-empty reference")
    qualities = raise_first_failure(QualityComputer(scorer).pair_qualities([row for _, rows in systems for row in rows]))
    n = len(first)
    self_bleus: list[list[float]] = [[] for _ in systems]
    bleus: list[list[float]] = [[] for _ in systems]
    for i, (src, _) in enumerate(first):
        outs = [rows[i][1] for _, rows in systems]
        ref = [] if references is None else [references[i]]
        # each distinct sentence of the row is split and counted once, for every score of the row
        table = {text: _table(text) for text in {src, *ref, *outs}}.__getitem__
        for k, out in enumerate(outs):
            self_bleus[k].append(_bleu(out, [src], table))
            if ref:
                bleus[k].append(_bleu(out, ref, table))
    report = EvalReport(rows=[])
    for k, (name, _) in enumerate(systems):
        mean_q = np.array([q.as_tuple() for q in qualities[k * n:(k + 1) * n]], dtype=np.float64).mean(axis=0)
        report.rows.append(
            EvalRow(
                name=name,
                quality=QualityVector(*mean_q),
                self_bleu=float(np.mean(self_bleus[k])),
                bleu=float(np.mean(bleus[k])) if references is not None else None,
                n=n,
            )
        )
    return report
