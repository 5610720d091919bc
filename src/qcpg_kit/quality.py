"""Quality vectors, 20-level quantization, and control-token encoding.

The quality of a paraphrase is a 3-vector (semantic similarity,
syntactic distance, lexical distance), each on a 0-100 scale. Control
inputs for a generator are quality vectors quantized onto the 20-value
grid {0, 5, ..., 95} and rendered as three special tokens prepended to
the input sentence.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import lexical
from .errors import MalformedControlPrefix, MissingTree, NonFiniteValue, QcpgError, raise_first_failure
from .semantic import DEFAULT_SCORER, MAX_BATCH_REQUESTS, SemanticScorer, semantic_similarity
from .trees import FlatTree, ParseTree, parse_bracketed, parse_syntactic_form, syntactic_distance
from .lexical import WordBag, lexical_distance

QUANT_STEP = 5
QUANT_BINS = 20
QUANT_VALUES = tuple(range(0, QUANT_BINS * QUANT_STEP, QUANT_STEP))  # 0, 5, ..., 95


@dataclass(frozen=True)
class _Triple:
    """A point of the (sem, syn, lex) space; each value is admitted by the subclass's ``_check``."""

    sem: float
    syn: float
    lex: float

    def __post_init__(self):
        for name in ("sem", "syn", "lex"):
            object.__setattr__(self, name, self._check(name, getattr(self, name)))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.sem, self.syn, self.lex)


@dataclass(frozen=True)
class QualityVector(_Triple):
    """(semantic, syntactic, lexical) scores, each in [0, 100]."""

    @staticmethod
    def _check(name: str, value: float) -> float:
        value = float(value)
        if not math.isfinite(value):
            raise NonFiniteValue(f"{name} must be finite, got {value!r}")
        if not 0.0 <= value <= 100.0:
            raise ValueError(f"{name} must lie in [0, 100], got {value!r}")
        return value


@dataclass(frozen=True)
class ControlVector(_Triple):
    """Quantized control target; every component is an int in {0, 5, ..., 95}."""

    @staticmethod
    def _check(name: str, value: int) -> int:
        # a bool or 5.0 compares equal to a grid value, but only an int renders a decodable token
        if isinstance(value, bool) or value not in QUANT_VALUES:
            raise ValueError(f"{name}={value!r} is not an admissible quantized value")
        return int(value)


@dataclass(frozen=True)
class Offset(_Triple):
    """Displacement added to a reference point to form a control vector."""

    sem: float = 0.0
    syn: float = 0.0
    lex: float = 0.0

    @staticmethod
    def _check(name: str, value: float) -> float:
        value = float(value)
        if not math.isfinite(value):
            raise NonFiniteValue(f"offset {name} must be finite")
        return value


ZERO_OFFSET = Offset(0.0, 0.0, 0.0)


def quantize(v: float) -> int:
    """Map a value to the 20-bin grid: clamp to [0, 100], floor to a bin."""
    v = float(v)
    if not math.isfinite(v):
        raise NonFiniteValue(f"cannot quantize non-finite value {v!r}")
    v = min(max(v, 0.0), 100.0)
    return min(int(v // QUANT_STEP), QUANT_BINS - 1) * QUANT_STEP


def quantize_array(v: np.ndarray) -> np.ndarray:
    """:func:`quantize` of each value of a float64 array, as int64: the same clamp and floor."""
    finite = np.isfinite(v)
    if not finite.all():
        raise NonFiniteValue(f"cannot quantize non-finite value {float(v[~finite][0])!r}")
    bins = np.minimum(np.clip(v, 0.0, 100.0) // QUANT_STEP, QUANT_BINS - 1)
    return bins.astype(np.int64) * QUANT_STEP


def encode_control(c: ControlVector) -> str:
    return f"<sem_{c.sem}> <syn_{c.syn}> <lex_{c.lex}>"


def prepend_control(sentence: str, c: ControlVector) -> str:
    return f"{encode_control(c)} {sentence}"


_CONTROL_RE = re.compile(r"^<sem_(\d{1,2})> <syn_(\d{1,2})> <lex_(\d{1,2})>(?: (.*))?$", re.DOTALL)


def decode_control(text: str) -> tuple[ControlVector, str]:
    """Parse a control prefix back into the vector and remaining sentence."""
    m = _CONTROL_RE.match(text)
    if not m:
        raise MalformedControlPrefix(f"text does not start with control tokens: {text[:60]!r}")
    values = tuple(int(g) for g in m.group(1, 2, 3))
    if any(v not in QUANT_VALUES for v in values):
        raise MalformedControlPrefix(f"control values {values} are not on the quantized grid")
    return ControlVector(*values), m.group(4) or ""


def apply_offset(r: QualityVector, o: Offset) -> ControlVector:
    """Quantized control for reference point ``r`` displaced by ``o``."""
    return ControlVector(
        quantize(r.sem + o.sem),
        quantize(r.syn + o.syn),
        quantize(r.lex + o.lex),
    )


def quality_vector(
    s: str,
    t: str,
    tree_s: ParseTree | FlatTree,
    tree_t: ParseTree | FlatTree,
    scorer: SemanticScorer = DEFAULT_SCORER,
    raw: float | None = None,
    syn: float | None = None,
    lex: float | None = None,
) -> QualityVector:
    """Measure the full 3-D quality of ``t`` as a paraphrase of ``s``.

    A tree may also be given as its syntactic form, from
    :func:`~qcpg_kit.trees.parse_syntactic_form`. ``raw``, when given, is
    the pair's raw semantic score, already computed, and ``scorer`` is
    not asked; ``syn`` and ``lex``, when given, are the pair's syntactic
    and lexical distances, already computed.
    """
    return QualityVector(
        semantic_similarity(scorer.raw_batch([(s, t)])[0] if raw is None else raw),
        syntactic_distance(tree_s, tree_t) if syn is None else syn,
        lexical_distance(s, t) if lex is None else lex,
    )


# (source, target, source tree, target tree); trees are bracketed strings, or None without one
PairKey = tuple[str, str, str | None, str | None]


class QualityComputer:
    """Memoizing, batching front end for pair qualities.

    Grid search evaluates the same (sentence, candidate) pairs at every
    offset; caching by the pair's text makes those lookups free. Tree
    arguments are bracketed strings so the cache key is hashable and the
    syntactic form is built from the text once per tree string, with no
    parse tree in between. Equal forms are interned to one object.
    Work is reused where its value is known not to change:

    * syn is computed once per distinct *unordered* (form, form) pair:
      pruned and token-stripped, many sentences share one template, and
      unit-cost tree edit distance over the larger tree's size is
      symmetric;
    * lex is computed once per distinct unordered sentence pair, from
      each sentence's bag of words, tokenized once: the transposed
      integer cost matrix has the same least assignment cost;
    * sem stays keyed by the *ordered* pair, since an external scorer
      need not be symmetric. The pairs a batch misses go to the scorer
      in ``raw_batch`` calls of at most ``MAX_BATCH_REQUESTS`` pairs, so
      an external scorer starts one process per such slice, not per pair.
      Each call is handed the slice's syn and lex as its ``meanwhile``:
      they are computed after the scorer's process has started and before
      it is fed the slice, so its start-up overlaps them.
    """

    def __init__(self, scorer: SemanticScorer = DEFAULT_SCORER):
        self.scorer = scorer
        self._forms: dict[str, FlatTree] = {}
        self._bags: dict[str, WordBag] = {}
        # postorder labels and leftmost leaves fix a form exactly
        self._interned: dict[tuple[tuple[str, ...], tuple[int, ...]], FlatTree] = {}
        # unordered pairs: the forms in id order, the sentences in text order
        self._syn: dict[tuple[FlatTree, FlatTree], float] = {}
        self._lex: dict[tuple[str, str], float] = {}
        self._pairs: dict[PairKey, QualityVector] = {}

    def tree(self, text: str) -> ParseTree:
        """Parse a tree string; the qualities are computed without it, from ``_form``."""
        return parse_bracketed(text)

    def _form(self, text: str) -> FlatTree:
        """The tree's syntactic form, the same object for every tree of that form."""
        cached = self._forms.get(text)
        if cached is None:
            form = parse_syntactic_form(text)
            cached = self._interned.setdefault((tuple(form.labels), tuple(form.lml)), form)
            self._forms[text] = cached
        return cached

    def _bag(self, text: str) -> WordBag:
        """The sentence's bag of words, tokenized once."""
        bag = self._bags.get(text)
        if bag is None:
            bag = self._bags[text] = lexical.tokenize(text)
        return bag

    def pair_quality(self, s: str, t: str, tree_s: str, tree_t: str) -> QualityVector:
        """One pair's quality: a batch of one, whose failure is raised."""
        return raise_first_failure(self.pair_qualities([(s, t, tree_s, tree_t)]))[0]

    def pair_qualities(self, keys: list[PairKey]) -> list[QualityVector | QcpgError]:
        """One quality, or the failure it met, per ``(s, t, tree_s, tree_t)`` key, in order.

        The distinct keys that miss the cache are scored in slices of at
        most ``MAX_BATCH_REQUESTS``, one ``scorer.raw_batch`` call each
        (none when every key hits); a call's failure fails every key of its
        slice, a malformed tree or a non-finite score only its own key. A
        key without both trees is ``MissingTree`` and never reaches the
        scorer. Those four are the only failures: once a key's two forms
        are built, its syn and lex raise none. Failures are not cached.
        """
        results: dict[PairKey, QualityVector | QcpgError] = {}
        misses: list[tuple[PairKey, FlatTree, FlatTree]] = []
        for key in dict.fromkeys(keys):
            cached = self._pairs.get(key)
            if cached is not None:
                results[key] = cached
            elif key[2] is None or key[3] is None:
                results[key] = MissingTree(f"no parse available for {key[1][:60]!r} or its source {key[0][:60]!r}")
            else:
                try:
                    misses.append((key, self._form(key[2]), self._form(key[3])))
                except QcpgError as exc:
                    results[key] = exc
        for start in range(0, len(misses), MAX_BATCH_REQUESTS):
            batch = misses[start:start + MAX_BATCH_REQUESTS]
            distances: list[tuple[float, float]] = []

            def kernels():
                # runs while an external scorer starts up; needs nothing from it
                for key, form_s, form_t in batch:
                    distances.append((self._syn_of(form_s, form_t), self._lex_of(*key[:2])))

            try:
                raws = self.scorer.raw_batch([key[:2] for key, _, _ in batch], meanwhile=kernels)
            except QcpgError as exc:
                results.update(dict.fromkeys((key for key, _, _ in batch), exc))
                continue
            for (key, form_s, form_t), raw, (syn, lex) in zip(batch, raws, distances):
                try:
                    q = quality_vector(key[0], key[1], form_s, form_t, raw=raw, syn=syn, lex=lex)
                    results[key] = self._pairs[key] = q
                except QcpgError as exc:
                    results[key] = exc
        return [results[key] for key in keys]

    def _syn_of(self, form_s: FlatTree, form_t: FlatTree) -> float:
        """The forms' syntactic distance, memoized by the unordered pair."""
        syn_key = (form_s, form_t) if id(form_s) <= id(form_t) else (form_t, form_s)
        syn = self._syn.get(syn_key)
        if syn is None:
            syn = self._syn[syn_key] = syntactic_distance(form_s, form_t)
        return syn

    def _lex_of(self, s: str, t: str) -> float:
        """The sentences' lexical distance, memoized by the unordered pair."""
        lex_key = (s, t) if s <= t else (t, s)
        lex = self._lex.get(lex_key)
        if lex is None:
            lex = self._lex[lex_key] = lexical_distance(self._bag(s), self._bag(t))
        return lex
