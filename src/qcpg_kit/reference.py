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
import unicodedata
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesign, EmptyEvalSet, ModelFormatError
from .quality import QualityVector

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

_OUTPUT_DIMS = ("sem", "syn", "lex")


def featurize(s: str) -> np.ndarray:
    """Fixed-order surface features of a sentence (see FEATURE_NAMES)."""
    tokens = s.split()
    n = len(tokens)
    return np.array(
        [
            n,
            len(s),
            (sum(len(t) for t in tokens) / n) if n else 0.0,
            sum(ch.isdigit() for ch in s),
            sum(t[0].isupper() for t in tokens),
            sum(unicodedata.category(ch).startswith("P") for ch in s),
            (len(set(tokens)) / n) if n else 1.0,
            1.0 if "?" in s else 0.0,
        ],
        dtype=np.float64,
    )


@dataclass
class ReferenceModel:
    """Trained ridge model: standardization stats plus weights and bias."""

    feature_names: tuple[str, ...]
    mean: np.ndarray   # (d,)
    scale: np.ndarray  # (d,); 1.0 where the training feature was constant
    weights: np.ndarray  # (3, d), rows in (sem, syn, lex) order
    bias: np.ndarray   # (3,)
    lam: float

    def __post_init__(self):
        d = len(self.feature_names)
        if self.weights.shape != (3, d) or self.bias.shape != (3,):
            raise ValueError("weight shapes inconsistent with feature names")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")


def fit(samples: list[tuple[str, QualityVector]], lam: float = 1.0) -> ReferenceModel:
    """Closed-form ridge fit of quality targets on sentence features.

    Minimizes ||Y - Zw - b||^2 + lam * ||w||^2 per output dimension,
    with Z the z-scored design matrix. Deterministic; no RNG.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if len(samples) < 2:
        raise DegenerateDesign(f"need at least 2 samples, got {len(samples)}")
    X = np.stack([featurize(s) for s, _ in samples])
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
        feature_names=FEATURE_NAMES,
        mean=mean,
        scale=scale,
        weights=W[:d].T.copy(),
        bias=W[d].copy(),
        lam=float(lam),
    )


def predict(model: ReferenceModel, s: str) -> QualityVector:
    """Predicted typical quality of paraphrases of ``s``, clamped to [0, 100]."""
    z = (featurize(s) - model.mean) / model.scale
    y = model.weights @ z + model.bias
    y = np.clip(y, 0.0, 100.0)
    return QualityVector(*y)


def evaluate_mse(
    model: ReferenceModel, samples: list[tuple[str, QualityVector]]
) -> tuple[float, float, float]:
    """Per-dimension mean squared error on held-out samples."""
    if not samples:
        raise EmptyEvalSet("cannot evaluate on an empty sample list")
    errors = np.array(
        [
            np.array(predict(model, s).as_tuple()) - np.array(q.as_tuple())
            for s, q in samples
        ]
    )
    mse = (errors ** 2).mean(axis=0)
    return tuple(float(v) for v in mse)


def save_model(model: ReferenceModel, path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "feature_names": list(model.feature_names),
        "mean": model.mean.tolist(),
        "scale": model.scale.tolist(),
        "weights": model.weights.tolist(),
        "bias": model.bias.tolist(),
        "lambda": model.lam,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path) -> ReferenceModel:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"model file is not valid JSON: {exc.msg}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError(
            f"expected format tag {MODEL_FORMAT!r}, got {payload.get('format')!r}"
            if isinstance(payload, dict)
            else "model file is not a JSON object"
        )
    try:
        model = ReferenceModel(
            feature_names=tuple(payload["feature_names"]),
            mean=np.array(payload["mean"], dtype=np.float64),
            scale=np.array(payload["scale"], dtype=np.float64),
            weights=np.array(payload["weights"], dtype=np.float64),
            bias=np.array(payload["bias"], dtype=np.float64),
            lam=float(payload["lambda"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file is missing or corrupts a field: {exc}") from exc
    if model.feature_names != FEATURE_NAMES:
        raise ModelFormatError(f"feature_names must be {list(FEATURE_NAMES)}, got {list(model.feature_names)}")
    d = len(FEATURE_NAMES)
    if [a.shape for a in (model.mean, model.scale, model.weights, model.bias)] != [(d,), (d,), (3, d), (3,)]:
        raise ModelFormatError(f"mean and scale need {d} values, weights 3x{d}, bias 3")
    if not math.isfinite(model.lam):
        raise ModelFormatError("lambda must be finite")
    return model
