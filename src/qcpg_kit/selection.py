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
the controls, chunks and trees the grid measured there. The dev items'
controls are planned with array arithmetic over blocks of items, each
distinct value of an offset column quantized once per item
(``plan_controls``). Each dev item is one generator group of its
distinct controls, a ``(k, 3)`` integer array in order of first
occurrence over the grid, and each offset's slot among them. Whole dev
items, in dev order, form chunks of at most ``MAX_BATCH_REQUESTS``
controls (``generators.batches``), and each chunk is one generator
batch and one scoring batch, so a failure
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

import logging
import math
from dataclasses import dataclass

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
from .generators import GeneratorSpec, batches, build_generator
from .quality import Offset, QualityComputer, QualityVector, quantize_array
from .reference import ReferenceModel, predict_array
from .reference import predict  # noqa: F401 - not called here, but bench/tracing.py spans this binding
from .semantic import DEFAULT_SCORER, MAX_BATCH_REQUESTS, SemanticScorer
from .util import read_lines, write_text

log = logging.getLogger(__name__)

# (sentence, cluster context or None); its trees come from Cluster.tree_of
DevItem = tuple[str, Cluster | None]


# (item, offset) cells per block of plan_controls: small blocks keep its arrays, and peak RSS, small
PLAN_BLOCK = 1 << 10


def _rows(values) -> np.ndarray:
    """An ``(m, 3)`` float64 array: of an array as given, or of ``Offset``s, ``QualityVector``s or 3-tuples."""
    if not isinstance(values, np.ndarray):
        values = [v.as_tuple() if isinstance(v, (Offset, QualityVector)) else v for v in values]
    return np.asarray(values, dtype=np.float64).reshape(-1, 3)


class GridResult:
    """Per-offset estimates over a fixed dev set, in lexicographic offset order.

    Stored as columns, one row per offset: ``offset_array``,
    ``q_tilde_array`` and ``responsiveness_array`` are ``(m, 3)`` float64
    arrays, ``n_array`` is an ``(m,)`` int64 array, and ``dropped`` lists
    the ``Offset``s where every generation failed. The constructor takes
    each column as an array or as a list of ``Offset``s, ``QualityVector``s,
    3-tuples or ints. ``grid_search``, the heatmap reader and writer,
    ``responsiveness`` and ``select_operation_point`` work on the columns.
    ``offsets``, ``q_tilde``, ``responsiveness`` and ``n`` are list views of
    the columns for callers that want objects; each builds its objects on
    every access.
    """

    def __init__(self, offsets, q_tilde, responsiveness, n, dropped=()):
        self.offset_array = _rows(offsets)
        self.q_tilde_array = _rows(q_tilde)
        self.responsiveness_array = _rows(responsiveness)
        self.n_array = np.asarray(n, dtype=np.int64).reshape(-1)
        self.dropped: list[Offset] = list(dropped)

    @property
    def offsets(self) -> list[Offset]:
        return [Offset(*row) for row in self.offset_array.tolist()]

    @property
    def q_tilde(self) -> list[QualityVector]:
        return [QualityVector(*row) for row in self.q_tilde_array.tolist()]

    @property
    def responsiveness(self) -> list[tuple[float, float, float]]:
        return [tuple(row) for row in self.responsiveness_array.tolist()]

    @property
    def n(self) -> list[int]:
        return self.n_array.tolist()

    def __eq__(self, other):
        if not isinstance(other, GridResult):
            return NotImplemented
        columns = ("offset_array", "q_tilde_array", "responsiveness_array", "n_array")
        return self.dropped == other.dropped and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in columns
        )


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


def grid_array(lo: float, step: float, hi: float) -> np.ndarray:
    """The grid {lo, lo+step, ..., hi}^3 as an ``(m, 3)`` float64 array, rows in lexicographic order."""
    if not all(math.isfinite(v) for v in (lo, step, hi)):
        raise ValueError(f"grid bounds and step must be finite, got {lo}:{step}:{hi}")
    if step <= 0:
        raise ValueError("step must be positive")
    values = []
    v = lo
    while v <= hi + 1e-9:
        values.append(round(v, 9))
        v += step
    values = np.array(values, dtype=np.float64)
    axes = np.meshgrid(values, values, values, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, 3)


def default_grid(lo: float = 0.0, step: float = 5.0, hi: float = 50.0) -> list[Offset]:
    """``grid_array``'s rows as ``Offset``s, for callers that want objects."""
    return [Offset(*row) for row in grid_array(lo, step, hi).tolist()]


def diversity_of(q: QualityVector) -> float:
    return (q.syn + q.lex) / 2.0


def _diversities(q: np.ndarray) -> np.ndarray:
    """``diversity_of`` for each row of an ``(m, 3)`` quality array."""
    return (q[:, 1] + q[:, 2]) / 2.0


def plan_controls(refs, offsets):
    """Yield, per reference point, its distinct controls and each offset's slot among them.

    The controls are those of ``apply_offset(r, o)`` over ``offsets`` (an
    ``(m, 3)`` array or a list of ``Offset``s), as a ``(k, 3)`` int64
    array of distinct rows in order of first occurrence. The offsets are
    split once into per-dimension columns, and one ``quantize_array``
    pass per dimension quantizes each distinct column value once per
    reference, exactly as the scalar ``quantize``. Then, per block of
    references, each offset's three levels are packed into one code
    ``sem*10000 + syn*100 + lex``, and one ``np.unique`` over the block's
    ``item * 10**6 + code`` keys gives each item's distinct codes, which
    are decoded back into the rows. A block holds at most ``PLAN_BLOCK``
    (item, offset) cells, or one item.
    """
    grid = _rows(offsets)
    refs = np.asarray(refs, dtype=np.float64).reshape(-1, 3)
    m = len(grid)
    columns = [np.unique(grid[:, d], return_inverse=True) for d in range(3)]
    with np.errstate(over="ignore"):  # a sum overflowing to inf is refused by quantize_array
        levels = [quantize_array(refs[:, d, None] + values) for d, (values, _) in enumerate(columns)]
    block = max(1, PLAN_BLOCK // max(m, 1))
    for start in range(0, len(refs), block):
        stop = min(start + block, len(refs))
        keys = np.arange(stop - start)[:, None] * 10**6
        for (_, inverse), level, scale in zip(columns, levels, (10000, 100, 1)):
            keys = keys + level[start:stop, inverse] * scale
        distinct, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
        # by first flat index: item by item, each in order of first occurrence
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        counts = np.bincount(distinct // 10**6, minlength=stop - start)
        starts = np.cumsum(counts) - counts
        slots = rank[inverse].reshape(stop - start, m) - starts[:, None]
        codes = distinct[order] % 10**6
        rows = np.stack([codes // 10000, codes // 100 % 100, codes % 100], axis=1)
        for i, begin in enumerate(starts.tolist()):
            yield rows[begin:begin + counts[i]], slots[i]


def generate_pairs(generator, qp_model: ReferenceModel, items, offsets):
    """Yield per chunk, generating at ``offsets`` (as ``plan_controls`` takes them),
    one ``((s, cluster), keys, index)`` per item.

    ``keys`` holds the pair key ``(s, t, tree_s, tree_t)`` of each of the
    item's distinct outputs, or the failure that output is; ``index``
    gives each offset's position in ``keys``. The module docstring has
    the controls, chunks and trees.
    """
    items = list(items)
    plans = plan_controls(predict_array(qp_model, [s for s, _ in items]), offsets)
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


def _evaluate(gen: GeneratorSpec, qp_model: ReferenceModel, dev, offsets: np.ndarray, scorer: SemanticScorer):
    """Per row of the ``(m, 3)`` ``offsets``, the mean quality over the dev set's successes
    and their count, as an ``(m, 3)`` and an ``(m,)`` array; a row with no success is all 0.0.

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
                o = tuple(offsets[i].tolist())
                log.warning("%r failed at offset %s: %s: %s", s[:40], o, type(err).__name__, err)
    return sums / np.maximum(counts, 1)[:, None], counts


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
    grid: np.ndarray | list[Offset] | None = None,
    scorer: SemanticScorer = DEFAULT_SCORER,
) -> GridResult:
    """Evaluate Q~ and responsiveness on every grid offset.

    The grid, an ``(m, 3)`` array or a list of ``Offset``s, 1331 offsets
    of ``grid_array(0.0, 5.0, 50.0)`` by default, must contain the zero
    offset: all responsiveness values are differences against that
    single cached evaluation, so R(0,0,0) is exactly (0, 0, 0). Offsets
    are processed (and reported) in lexicographic order, each distinct
    offset once, as the first of its equals in ``grid`` (0.0 equals
    -0.0); offsets where every generation fails are dropped with a
    warning and listed in ``dropped``.
    """
    grid = _rows(grid if grid is not None else grid_array(0.0, 5.0, 50.0))
    # a stable sort by value; float comparison makes 0.0 and -0.0 equal
    order = np.lexsort(grid.T[::-1])
    first = np.ones(len(order), dtype=bool)
    first[1:] = (grid[order[1:]] != grid[order[:-1]]).any(axis=1)
    offsets = grid[order[first]]
    zero = np.flatnonzero((offsets == 0.0).all(axis=1))
    if not len(zero):
        raise MissingZeroPoint("the offset grid must include (0, 0, 0)")

    q_tilde, n = _evaluate(gen, qp_model, dev, offsets, scorer)
    if not n[zero[0]]:
        raise AllGenerationsFailed("every generation failed at the zero offset")

    kept = n > 0
    dropped = [Offset(*o) for o in offsets[~kept].tolist()]
    for o in dropped:
        log.warning("offset %s dropped: all generations failed", o.as_tuple())
    q = q_tilde[kept]
    return GridResult(offsets[kept], q, q - q_tilde[zero[0]], n[kept], dropped)


def responsiveness(result: GridResult, o: Offset) -> tuple[float, float, float]:
    """R(o) = Q~(o) - Q~(0,0,0)."""
    rows = result.offset_array
    if not (rows == 0.0).all(axis=1).any():
        raise MissingZeroPoint("grid result does not contain the zero offset")
    match = np.flatnonzero((rows == o.as_tuple()).all(axis=1))
    if not len(match):
        raise ValueError(f"offset {o.as_tuple()} was not evaluated")
    return tuple(result.responsiveness_array[match[0]].tolist())


def select_operation_point(result: GridResult, constraint: SelectionConstraint) -> OperationPoint:
    """Constrained argmax over grid rows.

    Among offsets whose expected semantic score clears the baseline plus
    margin, pick the one maximizing diversity; ties break toward higher
    semantic score, then smaller L1 offset norm, then lexicographically
    smaller offset; of rows equal in all of these, the first.
    """
    o, q = result.offset_array, result.q_tilde_array
    if not len(o):
        raise ValueError("grid result is empty")
    floor = constraint.baseline_sem + constraint.min_sem_advantage
    feasible = q[:, 0] >= floor
    if not feasible.any():
        raise NoFeasibleOffset(
            f"no offset reaches semantic score {floor:.4f}", max_sem=float(q[:, 0].max())
        )
    o, q = o[feasible], q[feasible]
    diversity = _diversities(q)
    norm = np.abs(o[:, 0]) + np.abs(o[:, 1]) + np.abs(o[:, 2])
    best = np.lexsort((o[:, 2], o[:, 1], o[:, 0], norm, -q[:, 0], -diversity))[0]
    return OperationPoint(
        offset=Offset(*o[best].tolist()), expected=QualityVector(*q[best].tolist()), diversity=float(diversity[best])
    )


HEATMAP_COLUMNS = (
    "o_sem", "o_syn", "o_lex",
    "q_sem", "q_syn", "q_lex",
    "r_sem", "r_syn", "r_lex",
    "diversity", "n",
)


def export_heatmap_csv(result: GridResult, path) -> None:
    """Write one CSV row per offset (4-decimal fixed point, sorted by offset, stably)."""
    o, q = result.offset_array, result.q_tilde_array
    order = np.lexsort((o[:, 2], o[:, 1], o[:, 0]))
    diversity = _diversities(q)
    table = np.column_stack([o, q, result.responsiveness_array, diversity])[order]
    row = ",".join(["%.4f"] * (len(HEATMAP_COLUMNS) - 1)) + ",%s\n"
    lines = [",".join(HEATMAP_COLUMNS) + "\n"]
    # row by row: a whole-table tolist would hold a float object per cell at once
    lines += [row % (*values.tolist(), n) for values, n in zip(table, result.n_array[order].tolist())]
    write_text(path, "".join(lines))


# rows per block of the heatmap reader: only one block's fields are Python objects at once, which keeps peak RSS at
# the row-by-row reader's
HEATMAP_BLOCK = 64


def _heatmap_columns(rows: list[str]):
    """The ``(m, 10)`` value table and the ``n`` list of a heatmap's data rows, or None if any row is refused.

    Per block of rows, one ``float`` over the value fields and one
    ``int`` over ``n``; then the checks over the whole arrays.
    """
    width = len(HEATMAP_COLUMNS)
    if any(line.count(",") != width - 1 for line in rows):
        return None
    table, counts = np.empty((len(rows), width - 1)), []
    for start in range(0, len(rows), HEATMAP_BLOCK):
        fields = ",".join(rows[start:start + HEATMAP_BLOCK]).split(",")
        try:
            counts += map(int, fields[width - 1::width])
            del fields[width - 1::width]
            values = np.fromiter(map(float, fields), dtype=np.float64, count=len(fields))
        except ValueError:  # a field that int or float refuses
            return None
        table[start:start + HEATMAP_BLOCK] = values.reshape(-1, width - 1)
    q = table[:, 3:6]
    if np.isfinite(table).all() and min(counts, default=1) >= 1 and ((q >= 0) & (q <= 100)).all():
        return table, counts
    return None


def _raise_first_bad_row(lines: list[str]) -> None:
    """Raise MalformedRecord for the first heatmap row, after the header, that ``read_heatmap_csv`` refuses."""
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
            for name, v in zip(("sem", "syn", "lex"), values[3:6]):
                if not 0.0 <= v <= 100.0:
                    raise ValueError(f"{name} must lie in [0, 100], got {v!r}")
        except ValueError as exc:
            raise MalformedRecord(f"{exc} in {line!r}", line=lineno) from None


def read_heatmap_csv(path) -> GridResult:
    """Load an exported heatmap back into a GridResult.

    Every value must be finite and each quality in [0, 100]; a row that
    breaks this raises MalformedRecord naming its line. Blank lines are
    skipped. The table is parsed and checked by column
    (``_heatmap_columns``); only a table refused there is read again row
    by row, to name its first bad line.
    """
    lines = read_lines(path) or [""]
    if lines[0].split(",") != list(HEATMAP_COLUMNS):
        raise MalformedRecord(f"unexpected heatmap header: {lines[0]!r}", line=1)
    columns = _heatmap_columns([line for line in lines[1:] if line.strip()])
    if columns is None:
        _raise_first_bad_row(lines)
    table, counts = columns
    return GridResult(table[:, 0:3], table[:, 3:6], table[:, 6:9], counts)
