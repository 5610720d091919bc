"""Corpus evaluation: BLEU, Self-BLEU, system reports, Kendall's tau.

BLEU here is sentence-level BLEU-4 with add-one smoothing on orders
>= 2 (only when the raw match count is zero) and the closest-reference
brevity penalty; corpus numbers are means of sentence scores. Self-BLEU
scores a generation against its own source, so 100 means verbatim
copying and low values mean diversity.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import resolve_target_tree
from .errors import AllTied, LengthMismatch, MissingTree, raise_first_failure
from .quality import QualityComputer, QualityVector
from .semantic import DEFAULT_SCORER, SemanticScorer

MAX_BLEU_ORDER = 4


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: str, references: list[str]) -> float:
    """Sentence-level smoothed BLEU-4 on a 0-100 scale.

    Tokens are whitespace-separated and case-sensitive. An empty
    candidate scores 0 by convention, as does any candidate sharing no
    unigram with the references (order 1 is never smoothed). Orders
    longer than the candidate are skipped.
    """
    cand = candidate.split()
    if not cand:
        return 0.0
    if not references or all(not r.split() for r in references):
        raise ValueError("bleu requires at least one non-empty reference")
    refs = [r.split() for r in references]

    log_sum, orders = 0.0, 0
    for n in range(1, MAX_BLEU_ORDER + 1):
        counts = _ngrams(cand, n)
        total = sum(counts.values())
        if total == 0:
            continue
        max_counts: Counter = Counter()
        for ref in refs:
            for gram, c in _ngrams(ref, n).items():
                if c > max_counts[gram]:
                    max_counts[gram] = c
        matched = sum(min(c, max_counts[gram]) for gram, c in counts.items())
        if matched == 0:
            if n == 1:
                return 0.0
            p = 1.0 / (total + 1)
        else:
            p = matched / total
        log_sum += math.log(p)
        orders += 1

    c = len(cand)
    r = min((len(ref) for ref in refs), key=lambda rl: (abs(rl - c), rl))
    brevity = math.exp(1.0 - r / c) if c < r else 1.0
    return 100.0 * brevity * math.exp(log_sum / orders)


def self_bleu(generated: str, source: str) -> float:
    """BLEU of a generation against its own source (copy detector)."""
    return bleu(generated, [source])


def kendall_tau(x: list[float], y: list[float]) -> float:
    """Tie-corrected Kendall's tau (tau-b) by direct pair counting."""
    if len(x) != len(y):
        raise LengthMismatch(f"rankings differ in length: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("kendall_tau requires at least 2 observations")
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
        lines = ["system\tsem\tsyn\tlex\tself_bleu\tbleu\tn"]
        for row in self.rows:
            b = f"{row.bleu:.2f}" if row.bleu is not None else "-"
            lines.append(
                f"{row.name}\t{row.quality.sem:.2f}\t{row.quality.syn:.2f}"
                f"\t{row.quality.lex:.2f}\t{row.self_bleu:.2f}\t{b}\t{row.n}"
            )
        return "\n".join(lines) + "\n"


def evaluate_systems(
    systems,
    sources: list[str],
    source_trees: list[str],
    references: list[str] | None = None,
    scorer: SemanticScorer = DEFAULT_SCORER,
) -> EvalReport:
    """Per-system corpus means of quality, Self-BLEU, and optional BLEU.

    ``systems`` is a list of ``(name, outputs)`` or
    ``(name, outputs, output_trees)`` tuples; all lists are aligned with
    ``sources``. When a system omits its output trees, each output takes
    its tree by ``resolve_target_tree`` with no cluster: an output must
    equal its source (identity systems), whose tree is then reused. A
    pair without a source or output tree raises MissingTree.
    Every system's pairs are measured in one batch; its first failure is
    raised.
    """
    if len(sources) != len(source_trees):
        raise LengthMismatch(
            f"{len(sources)} sources but {len(source_trees)} source trees"
        )
    if references is not None and len(references) != len(sources):
        raise LengthMismatch(
            f"{len(sources)} sources but {len(references)} references"
        )
    named, keys = [], []
    for entry in systems:
        name, outputs = entry[0], list(entry[1])
        output_trees = list(entry[2]) if len(entry) > 2 and entry[2] is not None else None
        if len(outputs) != len(sources):
            raise LengthMismatch(
                f"system {name!r} has {len(outputs)} outputs for {len(sources)} sources"
            )
        if output_trees is not None and len(output_trees) != len(sources):
            raise LengthMismatch(
                f"system {name!r} has {len(output_trees)} trees for {len(sources)} sources"
            )
        for i, (src, out, tree_src) in enumerate(zip(sources, outputs, source_trees)):
            tree_out = output_trees[i] if output_trees is not None else resolve_target_tree(out, src, None, tree_src)
            if tree_src is None or tree_out is None:
                raise MissingTree(f"system {name!r} pair {i} lacks a source or output tree")
            keys.append((src, out, tree_src, tree_out))
        if not sources:
            raise ValueError(f"system {name!r} has no outputs to evaluate")
        named.append((name, outputs))
    qualities = raise_first_failure(QualityComputer(scorer).pair_qualities(keys))
    n = len(sources)
    rows = []
    for k, (name, outputs) in enumerate(named):
        mean_q = np.array([q.as_tuple() for q in qualities[k * n:(k + 1) * n]], dtype=np.float64).mean(axis=0)
        self_bleus = [self_bleu(out, src) for src, out in zip(sources, outputs)]
        bleus = [bleu(out, [ref]) for out, ref in zip(outputs, references)] if references is not None else None
        rows.append(
            EvalRow(
                name=name,
                quality=QualityVector(*mean_q),
                self_bleu=float(np.mean(self_bleus)),
                bleu=float(np.mean(bleus)) if bleus is not None else None,
                n=n,
            )
        )
    return EvalReport(rows=rows)
