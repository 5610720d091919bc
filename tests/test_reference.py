import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcpg_kit.reference
from qcpg_kit import (
    ALL_UNORDERED,
    FEATURE_NAMES,
    QualityVector,
    evaluate_mse,
    featurize,
    fit,
    load_model,
    paraphrase_corpus,
    predict,
    quality_samples,
    save_model,
)
from qcpg_kit.errors import DegenerateDesign, EmptyEvalSet, ModelFormatError, NonFiniteValue
from qcpg_kit.reference import ReferenceModel, predict_array

from helpers import (
    BAD_MODEL_NUMBERS,
    NOT_MODEL_NUMBERS,
    featurize_reference,
    predict_reference,
    with_bad_number,
)


def ridge_oracle(X, Y, lam):
    """Stacked least-squares solve of the same objective, independent route."""
    mean, std = X.mean(axis=0), X.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    Z = (X - mean) / std
    n, d = Z.shape
    A = np.hstack([Z, np.ones((n, 1))])
    S = np.hstack([np.sqrt(lam) * np.eye(d), np.zeros((d, 1))])
    stacked = np.vstack([A, S])
    target = np.vstack([Y, np.zeros((d, Y.shape[1]))])
    W, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    return W  # (d+1, 3)


def synthetic_linear_samples(rng, n, noise=0.0):
    """Targets exactly linear in the defined features (plus optional noise)."""
    words = ["how", "big", "is", "it", "cat", "dog", "ran", "Bob", "12", "x?"]
    sentences = [
        " ".join(rng.choice(words, size=rng.integers(1, 9))) for _ in range(n)
    ]
    X = np.stack([featurize(s) for s in sentences])
    true_w = np.array(
        [
            [2.0, 0.5, 1.0, 0.0, 3.0, 1.0, 4.0, 5.0],
            [1.0, -0.2, 0.0, 2.0, 0.0, 1.5, 2.0, 0.0],
            [0.5, 0.3, 2.0, 1.0, 1.0, 0.0, 0.0, 3.0],
        ]
    )
    true_b = np.array([30.0, 40.0, 35.0])
    Y = X @ true_w.T + true_b
    if noise:
        Y = Y + rng.normal(0.0, noise, size=Y.shape)
    Y = np.clip(Y, 0.0, 100.0)
    samples = [
        (s, QualityVector(*y)) for s, y in zip(sentences, Y)
    ]
    return samples, X, Y


class TestFeaturize:
    def test_empty(self):
        assert featurize("").tolist() == [0, 0, 0, 0, 0, 0, 1.0, 0]

    def test_question(self):
        f = dict(zip(FEATURE_NAMES, featurize("How big is it?")))
        assert f["token_count"] == 4
        assert f["question_mark"] == 1.0
        assert f["uppercase_initial_tokens"] == 1
        assert f["punctuation_chars"] == 1

    def test_type_token_ratio(self):
        f = dict(zip(FEATURE_NAMES, featurize("abc abc")))
        assert f["type_token_ratio"] == 0.5

    def test_digit_count(self):
        f = dict(zip(FEATURE_NAMES, featurize("room 404 found")))
        assert f["digit_chars"] == 3

    def test_mean_token_length(self):
        f = dict(zip(FEATURE_NAMES, featurize("ab cdef")))
        assert f["mean_token_length"] == 3.0


def fit_row_by_row(samples, lam):
    """The ridge fit of ``fit``, step by step, with one featurize call per sample."""
    X = np.stack([featurize(s) for s, _ in samples])
    Y = np.array([q.as_tuple() for _, q in samples], dtype=np.float64)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    Z = (X - mean) / scale
    d = Z.shape[1]
    A = np.hstack([Z, np.ones((Z.shape[0], 1))])
    penalty = np.diag(np.append(np.full(d, lam), 0.0))
    W = np.linalg.solve(A.T @ A + penalty, A.T @ Y)
    return ReferenceModel(mean=mean, scale=scale, weights=W[:d].T.copy(), bias=W[d].copy(), lam=float(lam))


def mse_row_by_row(model, samples):
    """``evaluate_mse``, step by step, with one prediction per sample."""
    errors = np.array(
        [np.array(predict(model, s).as_tuple()) - np.array(q.as_tuple()) for s, q in samples]
    )
    return tuple(float(v) for v in (errors ** 2).mean(axis=0))


class TestPerSentenceFeatures:
    @staticmethod
    def repeated_samples():
        # each sentence is the source of several samples, as in a scored pairs file
        rng = np.random.default_rng(101)
        samples, _, _ = synthetic_linear_samples(rng, 30, noise=3.0)
        return [(s, QualityVector(*(np.array(q.as_tuple()) * w))) for s, q in samples for w in (1.0, 0.5, 0.25)]

    def counting(self, monkeypatch, name):
        original = getattr(qcpg_kit.reference, name)
        calls = Counter()

        def counting(*args):
            calls[args[-1]] += 1
            return original(*args)

        monkeypatch.setattr(qcpg_kit.reference, name, counting)
        return calls

    def test_fit_featurizes_each_distinct_sentence_once(self, monkeypatch):
        samples = self.repeated_samples()
        expected = fit_row_by_row(samples, lam=2.0)
        calls = self.counting(monkeypatch, "featurize")
        model = fit(samples, lam=2.0)
        assert calls == Counter({s: 1 for s, _ in samples})
        assert len(calls) < len(samples)
        for field in ("mean", "scale", "weights", "bias"):
            assert np.array_equal(getattr(model, field), getattr(expected, field))

    def test_evaluate_mse_predicts_each_distinct_sentence_once(self, monkeypatch):
        samples = self.repeated_samples()
        model = fit(samples[::2])
        expected = mse_row_by_row(model, samples)
        calls = self.counting(monkeypatch, "featurize")
        assert evaluate_mse(model, samples) == expected
        assert calls == Counter({s: 1 for s, _ in samples})


class TestFit:
    def test_recovers_linear_targets(self):
        rng = np.random.default_rng(67)
        samples, X, Y = synthetic_linear_samples(rng, 200)
        model = fit(samples, lam=1e-8)
        for s, q in samples[:50]:
            pred = predict(model, s)
            assert np.allclose(pred.as_tuple(), q.as_tuple(), atol=1e-6)

    def test_matches_independent_solver(self):
        rng = np.random.default_rng(71)
        samples, X, Y = synthetic_linear_samples(rng, 80, noise=3.0)
        lam = 2.5
        model = fit(samples, lam=lam)
        W = ridge_oracle(X, Y, lam)
        assert np.allclose(model.weights, W[:-1].T, atol=1e-8)
        assert np.allclose(model.bias, W[-1], atol=1e-8)

    def test_constant_targets(self):
        samples = [(s, QualityVector(40, 50, 60)) for s in ("a", "bb c", "dd ee ff", "g?")]
        model = fit(samples, lam=1.0)
        assert np.allclose(model.weights, 0.0, atol=1e-9)
        assert np.allclose(model.bias, [40, 50, 60], atol=1e-9)

    def test_duplicated_samples_keep_solution(self):
        rng = np.random.default_rng(73)
        samples, X, Y = synthetic_linear_samples(rng, 40, noise=2.0)
        lam = 1.0
        model_once = fit(samples, lam=lam)
        # duplicating every sample doubles both loss terms' data part; the
        # penalty stays fixed, so solutions agree only via the oracle route
        X2, Y2 = np.vstack([X, X]), np.vstack([Y, Y])
        W = ridge_oracle(X2, Y2, lam)
        model_twice = fit(samples + samples, lam=lam)
        assert np.allclose(model_twice.weights, W[:-1].T, atol=1e-8)
        assert np.allclose(model_twice.bias, W[-1], atol=1e-8)
        # and doubling weakens the penalty's pull relative to the data
        assert not np.allclose(model_once.weights, model_twice.weights, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(79)
        samples, _, _ = synthetic_linear_samples(rng, 30, noise=1.0)
        m1, m2 = fit(samples), fit(samples)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_too_few_samples(self):
        with pytest.raises(DegenerateDesign):
            fit([("a", QualityVector(1, 2, 3))])

    def test_bad_lambda(self):
        samples = [("a", QualityVector(1, 2, 3)), ("b", QualityVector(4, 5, 6))]
        with pytest.raises(ValueError):
            fit(samples, lam=0.0)


class TestPredict:
    def test_clamps_to_range(self):
        model = ReferenceModel(
            mean=np.zeros(8),
            scale=np.ones(8),
            weights=np.full((3, 8), 100.0),
            bias=np.array([0.0, -500.0, 50.0]),
            lam=1.0,
        )
        pred = predict(model, "many words here now")
        assert 0.0 <= min(pred.as_tuple()) and max(pred.as_tuple()) <= 100.0

    def test_constant_model(self):
        samples = [(s, QualityVector(10, 20, 30)) for s in ("a", "b c", "ddd e")]
        model = fit(samples)
        assert predict(model, "anything at all").as_tuple() == pytest.approx((10, 20, 30), abs=1e-6)


# text that exercises every branch of featurize: ASCII, non-ASCII digits, capitals and titlecase letters,
# every punctuation category, symbols, and Unicode whitespace that str.split splits at
SENTENCE_TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(codec="ascii")),
    st.text(
        alphabet=st.characters(
            categories=["Nd", "Lu", "Lt", "Ll", "Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po", "Sm", "Zs"]
        )
        | st.sampled_from(" \t\n\x0b\x0c\r\x1c\x85\u2028?")
    ),
    st.sampled_from(["", " ", "\t\n", "\u3000\u2028", "?", "\u0663\u00bf\u00c9"]),
)


def _fitted_models() -> dict[str, ReferenceModel]:
    rng = np.random.default_rng(131)
    noisy, _, _ = synthetic_linear_samples(rng, 60, noise=3.0)
    exact, _, _ = synthetic_linear_samples(rng, 60)
    return {
        "noisy": fit(noisy),
        "near_interpolating": fit(exact, lam=1e-8),
        "heavily_regularized": fit(noisy, lam=1e4),
        # every sentence has the same features, so every weight is 0: the grid benchmark's model
        "constant": fit(quality_samples(paraphrase_corpus(40, 6, seed=0)[:20], mode=ALL_UNORDERED)),
    }


FITTED_MODELS = _fitted_models()


class TestArrayPrediction:
    """``featurize`` and ``predict_array`` equal the row-by-row reference bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(s=SENTENCE_TEXT)
    @example(s="Hello, World! Is 42 \u0663 a \u01c5ungla\u2014ok?")
    def test_featurize_equals_reference(self, s):
        got, want = featurize(s), featurize_reference(s)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_constant_model_has_zero_weights(self):
        assert not FITTED_MODELS["constant"].weights.any()

    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(FITTED_MODELS)), sentences=st.lists(SENTENCE_TEXT, max_size=12))
    def test_rows_equal_per_sentence_prediction(self, name, sentences):
        model = FITTED_MODELS[name]
        got = predict_array(model, sentences)
        assert got.shape == (len(sentences), 3)
        for row, s in zip(got, sentences):
            assert row.tobytes() == predict_reference(model, s).tobytes()
            assert predict(model, s).as_tuple() == tuple(row.tolist())

    def test_many_rows_equal_per_row_products(self):
        rng = np.random.default_rng(7)
        sentences = [" ".join(rng.choice(["how", "Big", "is", "it", "12", "x?"], size=9)) for _ in range(200)]
        model = ReferenceModel(
            mean=rng.normal(size=8) * 10, scale=rng.uniform(0.1, 10, size=8),
            weights=rng.normal(size=(3, 8)) * 30, bias=rng.uniform(20, 80, size=3), lam=1.0,
        )
        rows = np.array([predict_reference(model, s) for s in sentences])
        assert predict_array(model, sentences).tobytes() == rows.tobytes()

    def test_a_nan_prediction_raises_as_predict_did(self):
        # a subnormal scale overflows z to inf for any sentence with tokens, and weights of both signs make inf - inf
        model = ReferenceModel(
            mean=np.zeros(8), scale=np.array([5e-324, 5e-324, 1, 1, 1, 1, 1, 1]), weights=np.tile([1.0, -1.0, 0, 0, 0, 0, 0, 0], (3, 1)),
            bias=np.zeros(3), lam=1.0,
        )
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteValue) as reference:
                QualityVector(*predict_reference(model, "a b c"))
            with pytest.raises(NonFiniteValue) as info:
                predict_array(model, ["", "a b c", "x"])
        assert str(info.value) == str(reference.value)
        assert predict_array(model, [""]).tolist() == [[0.0, 0.0, 0.0]]


class TestEvaluateMse:
    def test_perfect_model(self):
        rng = np.random.default_rng(83)
        samples, _, _ = synthetic_linear_samples(rng, 100)
        model = fit(samples, lam=1e-8)
        assert evaluate_mse(model, samples) == pytest.approx((0, 0, 0), abs=1e-8)

    def test_mean_predictor_mse_is_variance(self):
        rng = np.random.default_rng(89)
        samples, _, Y = synthetic_linear_samples(rng, 60, noise=4.0)
        means = Y.mean(axis=0)
        model = ReferenceModel(
            mean=np.zeros(8),
            scale=np.ones(8),
            weights=np.zeros((3, 8)),
            bias=means,
            lam=1.0,
        )
        assert evaluate_mse(model, samples) == pytest.approx(tuple(Y.var(axis=0)))

    def test_fit_beats_mean_predictor_on_train(self):
        rng = np.random.default_rng(97)
        samples, _, Y = synthetic_linear_samples(rng, 120, noise=2.0)
        model = fit(samples, lam=1.0)
        fit_mse = evaluate_mse(model, samples)
        assert all(m <= v + 1e-9 for m, v in zip(fit_mse, Y.var(axis=0)))

    def test_empty_eval_set(self):
        samples = [("a", QualityVector(1, 2, 3)), ("b", QualityVector(4, 5, 6))]
        with pytest.raises(EmptyEvalSet):
            evaluate_mse(fit(samples), [])


class TestModelIo:
    def test_round_trip_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(101)
        samples, _, _ = synthetic_linear_samples(rng, 50, noise=1.0)
        model = fit(samples)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for s, _ in samples:
            assert predict(model, s) == predict(loaded, s)

    def test_leading_bom_dropped(self, tmp_path):
        samples, _, _ = synthetic_linear_samples(np.random.default_rng(7), 20, noise=1.0)
        model = fit(samples)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded = load_model(path)
        assert [predict(loaded, s) for s, _ in samples] == [predict(model, s) for s, _ in samples]

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else", "weights": []}', encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "keys, keep",
        [
            (("feature_names", "mean", "scale", "weights"), slice(None, None, -1)),
            (("feature_names", "mean", "scale", "weights"), slice(0, 7)),
            (("mean",), slice(0, 7)),
        ],
        ids=["reversed_names", "seven_features", "seven_means"],
    )
    def test_other_features_rejected(self, tmp_path, keys, keep):
        rng = np.random.default_rng(102)
        samples, _, _ = synthetic_linear_samples(rng, 30, noise=1.0)
        path = tmp_path / "model.json"
        save_model(fit(samples), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        for key in keys:
            payload[key] = [row[keep] for row in payload[key]] if key == "weights" else payload[key][keep]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("key, value", BAD_MODEL_NUMBERS.values(), ids=BAD_MODEL_NUMBERS.keys())
    def test_bad_number_rejected(self, tmp_path, key, value):
        samples = [("a", QualityVector(1, 2, 3)), ("b c", QualityVector(4, 5, 6))]
        model = fit(samples)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = with_bad_number(json.loads(path.read_text(encoding="utf-8")), key, value)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)
        field = "lam" if key == "lambda" else key
        changed = value if key == "lambda" else np.array(payload[key], dtype=np.float64)
        with pytest.raises(ValueError):
            dataclasses.replace(model, **{field: changed})

    @pytest.mark.parametrize("key, value", NOT_MODEL_NUMBERS.values(), ids=NOT_MODEL_NUMBERS.keys())
    def test_value_that_is_no_float64_number_rejected(self, tmp_path, key, value):
        samples = [("a", QualityVector(1, 2, 3)), ("b c", QualityVector(4, 5, 6))]
        path = tmp_path / "model.json"
        save_model(fit(samples), path)
        payload = with_bad_number(json.loads(path.read_text(encoding="utf-8")), key, value)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=key):
            load_model(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "qcpg-kit.reference-model.v1"}', encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)
