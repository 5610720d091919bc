"""Offset grid search and operation-point selection.

For each candidate offset o, the expected quality Q~(o) is estimated by
averaging, over a dev set, the measured quality of what the generator
produces when asked for control = reference(s) + o. Responsiveness
R(o) = Q~(o) - Q~(0,0,0) quantifies how much the generator actually
moves. The selected operation point maximizes linguistic diversity
(mean of the syntactic and lexical components) subject to a semantic
floor above a baseline.

How a grid runs: ``generate_pairs`` is the one path from dev items to
generator batches; ``generate`` runs it at its one offset, so it sends
the controls, chunks and trees the grid measured there. Each dev item's
controls are planned with array indexing, each distinct value of an
offset column quantized once per item (``plan_controls``). Each dev
item is one generator group of its distinct controls, a ``(k, 3)``
integer array in order of first occurrence over the grid, and each
offset's slot among them. Whole dev items, in dev order, form chunks of
at most ``MAX_BATCH_REQUESTS`` controls (``generators.batches``), and
each chunk is one generator batch and one scoring batch, so a failure
of a whole batch fails every item of its chunk at every offset. A dev
item is ``(sentence, cluster)``; an output's pair takes both trees from
``Cluster.tree_of``, None for an output that is no member or for any
output of an item without a cluster, and ``QualityComputer`` measures
such a pair as ``MissingTree``. Only trees and pairs an output uses are
measured: per item, each distinct output once, as one row of a
``(u, 3)`` array, and each offset's output as an index into it. Each
failure is one warning and is left out of its offset's n.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Cluster
from .errors import (
    AllGenerationsFailed,
    MalformedRecord,
    MissingZeroPoint,
    NoFeasibleOffset,
    QcpgError,
    raise_first_failure,
)
from .generators import MAX_BATCH_REQUESTS, GeneratorSpec, batches, build_generator
from .quality import ZERO_OFFSET, Offset, QualityComputer, QualityVector, quantize
from .reference import ReferenceModel, predict
from .semantic import DEFAULT_SCORER, SemanticScorer
from .util import read_lines, write_text

log = logging.getLogger(__name__)

# (sentence, cluster context or None); its trees come from Cluster.tree_of
DevItem = tuple[str, Cluster | None]


@dataclass
class GridResult:
    """Per-offset estimates over a fixed dev set, in lexicographic offset order."""

    offsets: list[Offset]
    q_tilde: list[QualityVector]
    responsiveness: list[tuple[float, float, float]]
    n: list[int]
    dropped: list[Offset] = field(default_factory=list)


@dataclass(frozen=True)
class OperationPoint:
    offset: Offset
    expected: QualityVector
    diversity: float


@dataclass(frozen=True)
class SelectionConstraint:
    """Feasibility floor: expected semantic score must beat the baseline by the margin."""

    baseline_sem: float
    min_sem_advantage: float = 5.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.baseline_sem, self.min_sem_advantage))):
            raise ValueError(
                f"baseline and margin must be finite, got {self.baseline_sem} and {self.min_sem_advantage}"
            )


def default_grid(lo: float = 0.0, step: float = 5.0, hi: float = 50.0) -> list[Offset]:
    """The standard search grid: {lo, lo+step, ..., hi} in all three dimensions."""
    if not all(math.isfinite(v) for v in (lo, step, hi)):
        raise ValueError(f"grid bounds and step must be finite, got {lo}:{step}:{hi}")
    if step <= 0:
        raise ValueError("step must be positive")
    values = []
    v = lo
    while v <= hi + 1e-9:
        values.append(round(v, 9))
        v += step
    return [Offset(*t) for t in itertools.product(values, values, values)]


def diversity_of(q: QualityVector) -> float:
    return (q.syn + q.lex) / 2.0


def plan_controls(refs, offsets: list[Offset]):
    """Yield, per reference point, its distinct controls and each offset's slot among them.

    The controls are those of ``apply_offset(r, o)`` over ``offsets``, as
    a ``(k, 3)`` int64 array of distinct rows in order of first
    occurrence. The offsets are split once into per-dimension columns;
    per reference, each distinct column value is quantized once with the
    scalar ``quantize(r[d] + v)``, so the levels are exact, and each
    offset's three levels are packed into one code
    ``sem*10000 + syn*100 + lex``, which is decoded back into the rows.
    """
    grid = np.array([o.as_tuple() for o in offsets], dtype=np.float64).reshape(-1, 3)
    columns = [np.unique(grid[:, d], return_inverse=True) for d in range(3)]
    for r in refs:
        codes = np.zeros(len(grid), dtype=np.int64)
        for d, (values, inverse) in enumerate(columns):
            levels = np.array([quantize(r[d] + v) for v in values.tolist()], dtype=np.int64)
            codes = codes * 100 + levels[inverse]
        distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        order = np.argsort(first)
        codes = distinct[order]
        yield np.stack([codes // 10000, codes // 100 % 100, codes % 100], axis=1), np.argsort(order)[inverse]


def generate_pairs(generator, qp_model: ReferenceModel, items, offsets: list[Offset]):
    """Yield per chunk, generating at ``offsets``, one ``((s, cluster), keys, index)`` per item.

    ``keys`` holds the pair key ``(s, t, tree_s, tree_t)`` of each of the
    item's distinct outputs, or the failure that output is; ``index``
    gives each offset's position in ``keys``. The module docstring has
    the controls, chunks and trees.
    """
    items = list(items)
    refs = [predict(qp_model, s).as_tuple() for s, _ in items]
    plans = plan_controls(refs, offsets)
    groups = ((s, cluster, controls, slots) for (s, cluster), (controls, slots) in zip(items, plans))
    for chunk in batches(groups, MAX_BATCH_REQUESTS):
        outputs = generator.generate_batch([(s, cluster, controls) for s, cluster, controls, _ in chunk])
        measured = []
        for (s, cluster, _, slots), got in zip(chunk, outputs):
            # a batch-wide failure is one object, so one distinct output
            distinct = {t: i for i, t in enumerate(dict.fromkeys(got))}
            at = np.fromiter(map(distinct.__getitem__, got), dtype=np.intp, count=len(got))
            tree_of = cluster.tree_of if cluster is not None else (lambda _: None)
            tree_s = tree_of(s)
            keys = [t if isinstance(t, QcpgError) else (s, t, tree_s, tree_of(t)) for t in distinct]
            measured.append(((s, cluster), keys, at[slots]))
        yield measured


def _evaluate(gen: GeneratorSpec, qp_model: ReferenceModel, dev, offsets: list[Offset], scorer: SemanticScorer):
    """Per offset, the mean quality and success count over the dev set; None where all fail.

    Each chunk of ``generate_pairs`` is one scoring batch.
    """
    dev: list[DevItem] = list(dev)
    if not dev:
        raise ValueError("dev set must be non-empty")
    computer = QualityComputer(scorer)
    generator = build_generator(gen, computer)
    sums = np.zeros((len(offsets), 3), dtype=np.float64)
    counts = np.zeros(len(offsets), dtype=np.int64)
    for chunk in generate_pairs(generator, qp_model, dev, offsets):
        pairs = [k for _, keys, _ in chunk for k in keys if isinstance(k, tuple)]
        quality = dict(zip(pairs, computer.pair_qualities(pairs)))
        for (s, _), keys, outcome in chunk:
            got = [quality[k] if isinstance(k, tuple) else k for k in keys]
            failed = np.array([isinstance(q, QcpgError) for q in got], dtype=bool)
            values = [(0.0, 0.0, 0.0) if bad else q.as_tuple() for q, bad in zip(got, failed.tolist())]
            # a failed slot adds exactly 0.0, so each sum runs over the successes in dev order
            sums += np.array(values, dtype=np.float64).reshape(-1, 3)[outcome]
            counts += ~failed[outcome]
            for i in np.flatnonzero(failed[outcome]).tolist():
                err = got[outcome[i]]
                log.warning("%r failed at offset %s: %s: %s", s[:40], offsets[i].as_tuple(), type(err).__name__, err)
    means = sums / np.maximum(counts, 1)[:, None]  # a row with no success is dropped
    return [(QualityVector(*q.tolist()), n) if n else None for q, n in zip(means, counts.tolist())]


def dev_quality_std(dev, scorer: SemanticScorer = DEFAULT_SCORER) -> tuple[float, float, float]:
    """Population std, per dimension, of the dev set's own pair qualities.

    The pairs are each item's ``cluster.pair_keys(s)``, the oracles'
    candidates, measured in one batch; its first failure is raised. A
    dimension whose std is zero reports 1.0. Dividing a responsiveness
    by it gives it in std units.
    """
    keys = [key for s, cluster in dev if cluster is not None for key in cluster.pair_keys(s)]
    if not keys:
        log.warning("dev set has no ground-truth pairs; its quality std defaults to 1.0")
        return (1.0, 1.0, 1.0)
    rows = [q.as_tuple() for q in raise_first_failure(QualityComputer(scorer).pair_qualities(keys))]
    std = np.array(rows, dtype=np.float64).std(axis=0)
    return tuple(float(v) if v > 0 else 1.0 for v in std)


def grid_search(
    gen: GeneratorSpec,
    qp_model: ReferenceModel,
    dev,
    grid: list[Offset] | None = None,
    scorer: SemanticScorer = DEFAULT_SCORER,
) -> GridResult:
    """Evaluate Q~ and responsiveness on every grid offset.

    The grid must contain the zero offset: all responsiveness values are
    differences against that single cached evaluation, so R(0,0,0) is
    exactly (0, 0, 0). Offsets are processed (and reported) in
    lexicographic order; offsets where every generation fails are dropped
    with a warning and listed in ``dropped``.
    """
    offsets = sorted(set(grid if grid is not None else default_grid()), key=Offset.as_tuple)
    if ZERO_OFFSET not in offsets:
        raise MissingZeroPoint("the offset grid must include (0, 0, 0)")

    evaluated = _evaluate(gen, qp_model, dev, offsets, scorer)

    zero_idx = offsets.index(ZERO_OFFSET)
    if evaluated[zero_idx] is None:
        raise AllGenerationsFailed("every generation failed at the zero offset")
    q0 = evaluated[zero_idx][0]

    result = GridResult(offsets=[], q_tilde=[], responsiveness=[], n=[])
    for o, entry in zip(offsets, evaluated):
        if entry is None:
            log.warning("offset %s dropped: all generations failed", o.as_tuple())
            result.dropped.append(o)
            continue
        q, count = entry
        result.offsets.append(o)
        result.q_tilde.append(q)
        result.responsiveness.append((q.sem - q0.sem, q.syn - q0.syn, q.lex - q0.lex))
        result.n.append(count)
    return result


def responsiveness(result: GridResult, o: Offset) -> tuple[float, float, float]:
    """R(o) = Q~(o) - Q~(0,0,0)."""
    if ZERO_OFFSET not in result.offsets:
        raise MissingZeroPoint("grid result does not contain the zero offset")
    try:
        idx = result.offsets.index(o)
    except ValueError:
        raise ValueError(f"offset {o.as_tuple()} was not evaluated") from None
    return result.responsiveness[idx]


def select_operation_point(result: GridResult, constraint: SelectionConstraint) -> OperationPoint:
    """Constrained argmax over grid rows.

    Among offsets whose expected semantic score clears the baseline plus
    margin, pick the one maximizing diversity; ties break toward higher
    semantic score, then smaller L1 offset norm, then lexicographically
    smaller offset.
    """
    if not result.offsets:
        raise ValueError("grid result is empty")
    floor = constraint.baseline_sem + constraint.min_sem_advantage
    best = None
    best_key = None
    max_sem = float("-inf")
    for o, q in zip(result.offsets, result.q_tilde):
        max_sem = max(max_sem, q.sem)
        if q.sem < floor:
            continue
        div = diversity_of(q)
        key = (-div, -q.sem, sum(abs(v) for v in o.as_tuple()), o.as_tuple())
        if best_key is None or key < best_key:
            best, best_key = (o, q, div), key
    if best is None:
        raise NoFeasibleOffset(
            f"no offset reaches semantic score {floor:.4f}", max_sem=max_sem
        )
    return OperationPoint(offset=best[0], expected=best[1], diversity=best[2])


HEATMAP_COLUMNS = (
    "o_sem", "o_syn", "o_lex",
    "q_sem", "q_syn", "q_lex",
    "r_sem", "r_syn", "r_lex",
    "diversity", "n",
)


def export_heatmap_csv(result: GridResult, path) -> None:
    """Write one CSV row per offset (4-decimal fixed point, sorted by offset)."""
    order = sorted(range(len(result.offsets)), key=lambda i: result.offsets[i].as_tuple())
    row = ",".join(["%.4f"] * (len(HEATMAP_COLUMNS) - 1)) + ",%s\n"
    lines = [",".join(HEATMAP_COLUMNS) + "\n"]
    for i in order:
        q = result.q_tilde[i]
        values = (*result.offsets[i].as_tuple(), *q.as_tuple(), *result.responsiveness[i], diversity_of(q), result.n[i])
        lines.append(row % values)
    write_text(path, "".join(lines))


def read_heatmap_csv(path) -> GridResult:
    """Load an exported heatmap back into a GridResult.

    Every value must be finite and each quality in [0, 100]; a row that
    breaks this raises MalformedRecord naming its line.
    """
    result = GridResult(offsets=[], q_tilde=[], responsiveness=[], n=[])
    lines = read_lines(path) or [""]
    if lines[0].split(",") != list(HEATMAP_COLUMNS):
        raise MalformedRecord(f"unexpected heatmap header: {lines[0]!r}", line=1)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(HEATMAP_COLUMNS):
            raise MalformedRecord(f"expected {len(HEATMAP_COLUMNS)} fields, got {len(fields)}", line=lineno)
        try:
            values = [float(v) for v in fields[:-1]]
            n = int(fields[-1])
            if not all(map(math.isfinite, values)):
                raise ValueError("a value is not finite")
            if n < 1:
                raise ValueError(f"n = {n} is below 1")
            q = QualityVector(*values[3:6])
        except ValueError as exc:
            raise MalformedRecord(f"{exc} in {line!r}", line=lineno) from None
        result.offsets.append(Offset(*values[0:3]))
        result.q_tilde.append(q)
        result.responsiveness.append(tuple(values[6:9]))
        result.n.append(n)
    return result
