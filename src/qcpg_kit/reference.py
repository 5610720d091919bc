"""Per-sentence reference predictor.

Predicts the typical quality vector of paraphrases of a sentence from
cheap surface features, via closed-form ridge regression (features are
z-scored with training statistics; the bias is unregularized). The
module boundary admits a neural drop-in: anything that maps a sentence
to a quality triple can replace it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DegenerateDesign, EmptyEvalSet, ModelFormatError
from .lexical import _is_punct
from .quality import QualityVector
from .util import is_json_number, read_text, write_text

FEATURE_NAMES = (
    "token_count",
    "char_count",
    "mean_token_length",
    "digit_chars",
    "uppercase_initial_tokens",
    "punctuation_chars",
    "type_token_ratio",
    "question_mark",
)

MODEL_FORMAT = "qcpg-kit.reference-model.v1"


def featurize(s: str) -> np.ndarray:
    """Fixed-order surface features of a sentence (see FEATURE_NAMES)."""
    tokens = s.split()
    n = len(tokens)
    return np.array(
        [
            n,
            len(s),
            (sum(map(len, tokens)) / n) if n else 0.0,
            sum(map(str.isdigit, s)),
            sum(map(str.isupper, map(itemgetter(0), tokens))),
            sum(map(_is_punct, s)),
            (len(set(tokens)) / n) if n else 1.0,
            1.0 if "?" in s else 0.0,
        ],
        dtype=np.float64,
    )


def _features(sentences) -> np.ndarray:
    """``featurize`` of each sentence, as the rows of an ``(n, d)`` array."""
    return np.array([featurize(s) for s in sentences], dtype=np.float64).reshape(-1, len(FEATURE_NAMES))


@dataclass
class ReferenceModel:
    """Trained ridge model over ``FEATURE_NAMES``: standardization stats plus weights and bias."""

    mean: np.ndarray   # (d,)
    scale: np.ndarray  # (d,); 1.0 where the training feature was constant
    weights: np.ndarray  # (3, d), rows in (sem, syn, lex) order
    bias: np.ndarray   # (3,)
    lam: float

    def __post_init__(self):
        d = len(FEATURE_NAMES)
        arrays = (self.mean, self.scale, self.weights, self.bias)
        if [a.shape for a in arrays] != [(d,), (d,), (3, d), (3,)]:
            raise ValueError(f"mean and scale need {d} values, weights 3x{d}, bias 3")
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("mean, scale, weights and bias must be finite")
        if not (self.scale > 0).all():
            raise ValueError("every scale value must be positive")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")


def fit(samples: list[tuple[str, QualityVector]], lam: float = 1.0) -> ReferenceModel:
    """Closed-form ridge fit of quality targets on sentence features.

    Minimizes ||Y - Zw - b||^2 + lam * ||w||^2 per output dimension,
    with Z the z-scored design matrix. Deterministic; no RNG. Features
    are computed once per distinct sentence; each sample's row of the
    design matrix is a copy of its sentence's row.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if len(samples) < 2:
        raise DegenerateDesign(f"need at least 2 samples, got {len(samples)}")
    rows = {s: i for i, s in enumerate(dict.fromkeys(s for s, _ in samples))}
    X = _features(rows)[[rows[s] for s, _ in samples]]
    Y = np.array([q.as_tuple() for _, q in samples], dtype=np.float64)
    if not np.isfinite(X).all():
        raise DegenerateDesign("non-finite feature encountered")

    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    Z = (X - mean) / scale

    d = Z.shape[1]
    A = np.hstack([Z, np.ones((Z.shape[0], 1))])
    penalty = np.diag(np.append(np.full(d, lam), 0.0))  # bias unregularized
    try:
        W = np.linalg.solve(A.T @ A + penalty, A.T @ Y)  # (d+1, 3)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesign(f"normal equations are singular: {exc}") from exc
    return ReferenceModel(
        mean=mean,
        scale=scale,
        weights=W[:d].T.copy(),
        bias=W[d].copy(),
        lam=float(lam),
    )


def predict_array(model: ReferenceModel, sentences) -> np.ndarray:
    """Predicted typical quality of paraphrases of each sentence, clamped to [0, 100], as an ``(n, 3)`` array.

    The features of all sentences are z-scored at once; the weights are
    applied to each row by its own matrix-vector product, as for one
    sentence, since one matrix product over all rows can round
    differently. A NaN prediction raises ``QualityVector``'s error.
    """
    Z = (_features(sentences) - model.mean) / model.scale
    y = np.clip(np.array([model.weights @ z for z in Z]).reshape(-1, 3) + model.bias, 0.0, 100.0)
    nan = np.flatnonzero(np.isnan(y).any(axis=1))
    if len(nan):
        QualityVector(*y[nan[0]])  # raises the NonFiniteValue of the first such sentence's prediction
    return y


def predict(model: ReferenceModel, s: str) -> QualityVector:
    """Predicted typical quality of paraphrases of ``s``: ``predict_array`` of one sentence."""
    return QualityVector(*predict_array(model, [s])[0])


def evaluate_mse(
    model: ReferenceModel, samples: list[tuple[str, QualityVector]]
) -> tuple[float, float, float]:
    """Per-dimension mean squared error on held-out samples; one prediction per distinct sentence."""
    if not samples:
        raise EmptyEvalSet("cannot evaluate on an empty sample list")
    rows = {s: i for i, s in enumerate(dict.fromkeys(s for s, _ in samples))}
    predicted = predict_array(model, rows)[[rows[s] for s, _ in samples]]
    errors = predicted - np.array([q.as_tuple() for _, q in samples])
    mse = (errors ** 2).mean(axis=0)
    return tuple(float(v) for v in mse)


def save_model(model: ReferenceModel, path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "feature_names": list(FEATURE_NAMES),
        "mean": model.mean.tolist(),
        "scale": model.scale.tolist(),
        "weights": model.weights.tolist(),
        "bias": model.bias.tolist(),
        "lambda": model.lam,
    }
    write_text(path, json.dumps(payload, indent=2) + "\n")


def _field(payload: dict, key: str):
    """Field ``key`` of a model file, once known to hold only JSON numbers in float64's range, in lists."""
    for value in np.array(payload[key], dtype=object).flat:  # a ragged list's rows are values, and fail
        if not is_json_number(value) or abs(value) > sys.float_info.max:
            raise ValueError(f"{key} holds {value!r:.40}, which is no float64 number")
    return payload[key]


def load_model(path) -> ReferenceModel:
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc.msg}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError(
            f"expected format tag {MODEL_FORMAT!r}, got {payload.get('format')!r}"
            if isinstance(payload, dict)
            else "model file is not a JSON object"
        )
    try:
        if payload["feature_names"] != list(FEATURE_NAMES):
            raise ValueError(f"feature_names must be {list(FEATURE_NAMES)}, got {payload['feature_names']!r}")
        return ReferenceModel(
            mean=np.array(_field(payload, "mean"), dtype=np.float64),
            scale=np.array(_field(payload, "scale"), dtype=np.float64),
            weights=np.array(_field(payload, "weights"), dtype=np.float64),
            bias=np.array(_field(payload, "bias"), dtype=np.float64),
            lam=float(_field(payload, "lambda")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file is missing or corrupts a field: {exc}") from exc
