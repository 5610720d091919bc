"""Offset grid search and operation-point selection.

For each candidate offset o, the expected quality Q~(o) is estimated by
averaging, over a dev set, the measured quality of what the generator
produces when asked for control = reference(s) + o. Responsiveness
R(o) = Q~(o) - Q~(0,0,0) quantifies how much the generator actually
moves. The selected operation point maximizes linguistic diversity
(mean of the syntactic and lexical components) subject to a semantic
floor above a baseline.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Cluster, resolve_target_tree
from .errors import (
    AllGenerationsFailed,
    MalformedRecord,
    MissingTree,
    MissingZeroPoint,
    NoFeasibleOffset,
    QcpgError,
    raise_first_failure,
)
from .generators import GeneratorSpec, build_generator
from .quality import ControlVector, Offset, QualityComputer, QualityVector, quantize
from .reference import ReferenceModel, predict
from .semantic import DEFAULT_SCORER, SemanticScorer
from .util import read_lines

log = logging.getLogger(__name__)

# (sentence, cluster context or None, bracketed tree of the sentence)
DevItem = tuple[str, "Cluster | None", str]


@dataclass
class GridResult:
    """Per-offset estimates over a fixed dev set, in lexicographic offset order."""

    offsets: list[Offset]
    q_tilde: list[QualityVector]
    responsiveness: list[tuple[float, float, float]]
    n: list[int]
    dim_std: tuple[float, float, float] | None = None
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

    The controls are those of ``apply_offset(r, o)`` over ``offsets``, in
    order of first occurrence. The offsets are split once into
    per-dimension columns; per reference, each distinct column value is
    quantized once with the scalar ``quantize(r[d] + v)``, so the levels
    are exact, and each offset's three levels are packed into one code
    ``sem*10000 + syn*100 + lex``. Each distinct control is built once,
    as one ``ControlVector`` shared by every reference.
    """
    interned: dict[int, ControlVector] = {}
    grid = np.array([o.as_tuple() for o in offsets], dtype=np.float64).reshape(-1, 3)
    columns = [np.unique(grid[:, d], return_inverse=True) for d in range(3)]
    for r in refs:
        codes = np.zeros(len(grid), dtype=np.int64)
        for d, (values, inverse) in enumerate(columns):
            levels = np.array([quantize(r[d] + v) for v in values.tolist()], dtype=np.int64)
            codes = codes * 100 + levels[inverse]
        distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        order = np.argsort(first)
        controls = []
        for code in distinct[order].tolist():
            if (c := interned.get(code)) is None:
                c = interned[code] = ControlVector(code // 10000, code // 100 % 100, code % 100)
            controls.append(c)
        yield controls, np.argsort(order)[inverse]


class _GridEvaluator:
    """Shared state for evaluating many offsets over one dev set."""

    def __init__(self, gen: GeneratorSpec, qp_model: ReferenceModel, dev, scorer: SemanticScorer):
        self.dev: list[DevItem] = list(dev)
        if not self.dev:
            raise ValueError("dev set must be non-empty")
        self.computer = QualityComputer(scorer)
        self.generator = build_generator(gen, self.computer)
        self.refs = [predict(qp_model, s).as_tuple() for s, _, _ in self.dev]

    def _measure(self, s: str, cluster: Cluster | None, tree_s: str, outputs: list) -> list:
        """Quality tuple of each output (or the failure it is, or leads to).

        The distinct outputs with a known tree are measured in one batch.
        """
        measured, keys = {}, {}
        for t in dict.fromkeys(outputs):  # a batch-wide failure is one object
            if isinstance(t, QcpgError):
                measured[t] = t
            elif (tree_t := resolve_target_tree(t, s, cluster, tree_s)) is None:
                measured[t] = MissingTree(f"no parse available for generated sentence {t[:60]!r}")
            else:
                keys[t] = (s, t, tree_s, tree_t)
        for t, q in zip(keys, self.computer.pair_qualities(list(keys.values()))):
            measured[t] = q if isinstance(q, QcpgError) else q.as_tuple()
        return [measured[t] for t in outputs]

    def evaluate(self, offsets: list[Offset]):
        """Per offset, the mean quality and success count; None where all fail.

        Each dev item is one generator batch holding its distinct
        controls and one scoring batch holding its distinct outputs; its
        qualities are added to per-offset sums in dev order.
        """
        sums = np.zeros((len(offsets), 3), dtype=np.float64)
        counts = np.zeros(len(offsets), dtype=np.int64)
        plans = plan_controls(self.refs, offsets)
        for (s, cluster, tree_s), (controls, slots) in zip(self.dev, plans):
            outputs = self.generator.generate_batch([(s, c, cluster) for c in controls])
            measured = self._measure(s, cluster, tree_s, outputs)
            failed = np.array([isinstance(q, QcpgError) for q in measured])
            table = np.array([(0.0, 0.0, 0.0) if bad else q for q, bad in zip(measured, failed)])
            # a failed slot adds exactly 0.0, so each sum runs over the successes in dev order
            sums += table[slots]
            counts += ~failed[slots]
            for i in np.flatnonzero(failed[slots]):
                o = offsets[i].as_tuple()
                log.warning("generation failed for %r at offset %s: %s", s[:40], o, measured[slots[i]])
        return [(QualityVector(*(total / n)), int(n)) if n else None for total, n in zip(sums, counts)]

    def dim_std(self) -> tuple[float, float, float]:
        """Population std, per dimension, of the dev set's own pair qualities.

        The pairs are each item's ``cluster.pair_keys(s)``, the oracles'
        candidates, measured in one batch; its first failure is raised.
        """
        keys = [key for s, cluster, _ in self.dev if cluster is not None for key in cluster.pair_keys(s)]
        if not keys:
            log.warning("dev set has no ground-truth pairs; std units default to 1.0")
            return (1.0, 1.0, 1.0)
        rows = [q.as_tuple() for q in raise_first_failure(self.computer.pair_qualities(keys))]
        std = np.array(rows, dtype=np.float64).std(axis=0)
        return tuple(float(v) if v > 0 else 1.0 for v in std)


def expected_quality(
    gen: GeneratorSpec,
    qp_model: ReferenceModel,
    dev,
    o: Offset,
    scorer: SemanticScorer = DEFAULT_SCORER,
) -> tuple[QualityVector, int]:
    """Estimate Q~(o): the dev-set mean of q(s, generate(s, r(s)+o))."""
    [result] = _GridEvaluator(gen, qp_model, dev, scorer).evaluate([o])
    if result is None:
        raise AllGenerationsFailed(f"no dev sentence produced a usable generation at {o.as_tuple()}")
    return result


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
    offsets = sorted({o.as_tuple() for o in (grid if grid is not None else default_grid())})
    if (0.0, 0.0, 0.0) not in offsets:
        raise MissingZeroPoint("the offset grid must include (0, 0, 0)")
    offsets = [Offset(*t) for t in offsets]

    ev = _GridEvaluator(gen, qp_model, dev, scorer)
    dim_std = ev.dim_std()

    evaluated = ev.evaluate(offsets)

    zero_idx = offsets.index(Offset(0.0, 0.0, 0.0))
    if evaluated[zero_idx] is None:
        raise AllGenerationsFailed("every generation failed at the zero offset")
    q0 = evaluated[zero_idx][0]

    result = GridResult(offsets=[], q_tilde=[], responsiveness=[], n=[], dim_std=dim_std)
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


def responsiveness(result: GridResult, o: Offset, std_units: bool = False) -> tuple[float, float, float]:
    """R(o) = Q~(o) - Q~(0,0,0), optionally in per-dimension std units."""
    tuples = [x.as_tuple() for x in result.offsets]
    if (0.0, 0.0, 0.0) not in tuples:
        raise MissingZeroPoint("grid result does not contain the zero offset")
    try:
        idx = tuples.index(o.as_tuple())
    except ValueError:
        raise ValueError(f"offset {o.as_tuple()} was not evaluated") from None
    r = result.responsiveness[idx]
    if not std_units:
        return r
    std = result.dim_std or (1.0, 1.0, 1.0)
    return tuple(v / s for v, s in zip(r, std))


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(HEATMAP_COLUMNS) + "\n")
        for i in order:
            o = result.offsets[i]
            q = result.q_tilde[i]
            r = result.responsiveness[i]
            values = [
                *o.as_tuple(),
                q.sem, q.syn, q.lex,
                *r,
                diversity_of(q),
            ]
            fh.write(",".join(f"{v:.4f}" for v in values) + f",{result.n[i]}\n")


def read_heatmap_csv(path) -> GridResult:
    """Load an exported heatmap back into a GridResult (std units are not stored).

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
            q = QualityVector(*values[3:6])
        except ValueError as exc:
            raise MalformedRecord(f"{exc} in {line!r}", line=lineno) from None
        result.offsets.append(Offset(*values[0:3]))
        result.q_tilde.append(q)
        result.responsiveness.append(tuple(values[6:9]))
        result.n.append(n)
    return result
