"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
lines and timings. Tolerances and time limits are asserted inside the
tests themselves.
"""

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

from qcpg_kit import (
    Cluster,
    ControlVector,
    GeneratorSpec,
    GridResult,
    Offset,
    OperationPoint,
    QualityVector,
    SelectionConstraint,
    WordBag,
    bag_assignment_cost,
    decode_control,
    default_grid,
    dev_items,
    dev_quality_std,
    diversity_of,
    encode_control,
    evaluate_mse,
    evaluate_systems,
    export_heatmap_csv,
    featurize,
    fit,
    grid_search,
    kendall_tau,
    paraphrase_corpus,
    quality_samples,
    quantize,
    responsiveness,
    select_operation_point,
    split_clusters,
    tree_edit_distance,
)
from qcpg_kit.errors import AllTied, NoFeasibleOffset
from qcpg_kit.quality import QUANT_VALUES

from helpers import (
    all_trees,
    canonical_pair_key,
    labeled_trees,
    matching_bruteforce,
    ted_bruteforce,
    tree_from_shape,
    tree_shapes,
    shape_size,
)


def report(name: str, started: float):
    print(f"\nACCEPTANCE PASS: {name} ({time.monotonic() - started:.1f}s)")


def test_criterion_01_ted_oracle_equivalence():
    """Zhang-Shasha equals the brute-force mapping minimum, exhaustively.

    The full cross product of all labeled trees with up to 6 nodes over a
    3-label alphabet is ~34k x 34k pairs, beyond any 60 s budget, so the
    exhaustive family is the complete cross product at sizes the budget
    allows, plus complete structural coverage at sizes 5-6:
      (a) every ordered pair of labeled trees with <= 4 nodes (471^2);
      (b) every ordered pair of 5/6-node shapes, two seeded labelings;
      (c) every 5-node labeled tree against every 1-node tree, both orders.
    """
    t0 = time.monotonic()
    alphabet = "ABC"
    oracle_cache: dict[str, int] = {}

    def oracle(a, b) -> int:
        key = canonical_pair_key(a, b)
        value = oracle_cache.get(key)
        if value is None:
            value = oracle_cache[key] = ted_bruteforce(a, b)
        return value

    checked = 0

    small = all_trees(4, alphabet)
    assert len(small) == 471
    for a in small:
        for b in small:
            assert tree_edit_distance(a, b) == oracle(a, b)
            checked += 1

    shapes = tree_shapes(5) + tree_shapes(6)
    assert len(shapes) == 14 + 42
    rng = np.random.default_rng(20240917)
    for sa in shapes:
        for sb in shapes:
            for _ in range(2):
                a = tree_from_shape(sa, [str(x) for x in rng.choice(list(alphabet), shape_size(sa))])
                b = tree_from_shape(sb, [str(x) for x in rng.choice(list(alphabet), shape_size(sb))])
                assert tree_edit_distance(a, b) == ted_bruteforce(a, b)
                checked += 1

    singles = all_trees(1, alphabet)
    for shape in tree_shapes(5):
        for a in labeled_trees(shape, alphabet):
            for b in singles:
                assert tree_edit_distance(a, b) == oracle(a, b)
                assert tree_edit_distance(b, a) == oracle(b, a)
                checked += 2

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion requires < 60 s, took {elapsed:.1f}"
    report(f"1 TED oracle equivalence ({checked} pairs)", t0)


def test_criterion_02_assignment_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(995)
    letters = list("abcdef")
    for case in range(200):
        a = tuple(
            "".join(rng.choice(letters, size=rng.integers(1, 7)))
            for _ in range(rng.integers(0, 7))
        )
        b = tuple(
            "".join(rng.choice(letters, size=rng.integers(1, 7)))
            for _ in range(rng.integers(0, 7))
        )
        got = bag_assignment_cost(WordBag.from_words(a), WordBag.from_words(b))
        assert got == matching_bruteforce(a, b), (case, a, b)
    report("2 assignment oracle equivalence (200 randomized bag pairs)", t0)


def test_criterion_03_quantization_bijection():
    t0 = time.monotonic()
    seen = set()
    for sem, syn, lex in itertools.product(QUANT_VALUES, repeat=3):
        c = ControlVector(sem, syn, lex)
        decoded, rest = decode_control(encode_control(c))
        assert decoded == c and rest == ""
        seen.add(encode_control(c))
    assert len(seen) == 8000

    grid = np.arange(0.0, 100.0 + 1e-9, 0.1)
    quantized = [quantize(v) for v in grid]
    assert all(quantize(q) == q for q in quantized)
    assert all(a <= b for a, b in zip(quantized, quantized[1:]))
    report("3 quantization bijection over 8000 vectors + idempotent/monotone", t0)


def test_criterion_04_leak_freeness():
    t0 = time.monotonic()

    def serialize(split) -> bytes:
        chunks = []
        for pairs in (split.train, split.dev, split.test):
            for p in pairs:
                chunks.append(f"{p.source}\t{p.target}\t{p.cluster_id}\n")
            chunks.append("--\n")
        return "".join(chunks).encode()

    for run in range(1000):
        seed = 7919 * run + 13
        rng = np.random.default_rng(seed)
        n_clusters = int(rng.integers(10, 201))
        clusters = [
            Cluster(f"c{i}", [f"r{run}_c{i}_s{j}" for j in range(int(rng.integers(2, 6)))])
            for i in range(n_clusters)
        ]
        total = sum(len(c.sentences) * (len(c.sentences) - 1) // 2 for c in clusters)
        sizes = (int(total * 0.4), int(total * 0.1), int(total * 0.1))
        split = split_clusters(clusters, sizes, seed=seed)
        ids = {
            name: {p.cluster_id for p in pairs}
            for name, pairs in (("train", split.train), ("dev", split.dev), ("test", split.test))
        }
        assert not ids["train"] & ids["dev"]
        assert not ids["train"] & ids["test"]
        assert not ids["dev"] & ids["test"]
        rerun = split_clusters(clusters, sizes, seed=seed)
        assert serialize(rerun) == serialize(split)
    report("4 leak-freeness over 1000 randomized split runs", t0)


def test_criterion_05_responsiveness_definition():
    t0 = time.monotonic()
    corpus = paraphrase_corpus(n_clusters=10, cluster_size=5, seed=77)
    qp = fit(quality_samples(corpus))
    dev = dev_items(corpus, per_cluster=1)

    oracle_result = grid_search(
        GeneratorSpec(kind="retrieval_oracle"), qp, dev, grid=default_grid(0, 10, 30)
    )
    assert responsiveness(oracle_result, Offset(0, 0, 0)) == (0.0, 0.0, 0.0)

    identity_result = grid_search(
        GeneratorSpec(kind="identity"), qp, dev, grid=default_grid(0, 10, 50)
    )
    assert all(r == (0.0, 0.0, 0.0) for r in identity_result.responsiveness)
    report("5 responsiveness definition (zero point exact, identity flat)", t0)


def _sweep_is_monotone(values, tolerance=0.5):
    """Non-decreasing up to one inversion of magnitude below tolerance."""
    inversions = [a - b for a, b in zip(values, values[1:]) if b < a]
    return len(inversions) <= 1 and all(v < tolerance for v in inversions)


def test_criterion_06_qualitative_monotonicity():
    t0 = time.monotonic()
    corpus = paraphrase_corpus(n_clusters=50, cluster_size=6, seed=2718)
    qp = fit(quality_samples(corpus))
    dev = dev_items(corpus, per_cluster=1)

    std = dev_quality_std(dev)
    steps = [0.0, 0.5, 1.0, 1.5, 2.0]
    lex_offsets = [Offset(0, 0, k * std[2]) for k in steps]
    syn_offsets = [Offset(0, k * std[1], 0) for k in steps]
    grid = {o.as_tuple() for o in lex_offsets + syn_offsets}
    result = grid_search(
        GeneratorSpec(kind="retrieval_oracle"), qp, dev, grid=[Offset(*g) for g in grid]
    )

    lex_curve = [responsiveness(result, o)[2] for o in lex_offsets]
    syn_curve = [responsiveness(result, o)[1] for o in syn_offsets]
    assert _sweep_is_monotone(lex_curve), lex_curve
    assert _sweep_is_monotone(syn_curve), syn_curve
    assert lex_curve[-1] > 0.0 and syn_curve[-1] > 0.0

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion requires < 2 min, took {elapsed:.1f}"
    report(
        f"6 qualitative monotonicity (lex {lex_curve[-1]:.1f} pts, syn {syn_curve[-1]:.1f} pts)",
        t0,
    )


def _selection_oracle(result, constraint):
    feasible = [
        (o, q)
        for o, q in zip(result.offsets, result.q_tilde)
        if q.sem >= constraint.baseline_sem + constraint.min_sem_advantage
    ]
    if not feasible:
        return None
    o, q = min(
        feasible,
        key=lambda item: (
            -diversity_of(item[1]),
            -item[1].sem,
            sum(abs(v) for v in item[0].as_tuple()),
            item[0].as_tuple(),
        ),
    )
    return OperationPoint(offset=o, expected=q, diversity=diversity_of(q))


def test_criterion_07_selection_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(4242)
    infeasible_seen = 0
    for _ in range(100):
        offsets = []
        qs = []
        seen = set()
        for _ in range(int(rng.integers(1, 60))):
            o = tuple(float(v) for v in rng.choice(range(0, 55, 5), size=3))
            if o in seen:
                continue
            seen.add(o)
            offsets.append(Offset(*o))
            # coarse grids force diversity/sem ties so tie-breaks are exercised
            qs.append(
                QualityVector(
                    float(rng.choice(range(20, 95, 5))),
                    float(rng.choice(range(0, 80, 20))),
                    float(rng.choice(range(0, 80, 20))),
                )
            )
        zero = qs[0]
        result = GridResult(
            offsets=offsets,
            q_tilde=qs,
            responsiveness=[
                tuple(a - b for a, b in zip(q.as_tuple(), zero.as_tuple())) for q in qs
            ],
            n=[5] * len(offsets),
        )
        constraint = SelectionConstraint(
            baseline_sem=float(rng.choice(range(10, 100, 10))), min_sem_advantage=5.0
        )
        expected = _selection_oracle(result, constraint)
        if expected is None:
            infeasible_seen += 1
            with pytest.raises(NoFeasibleOffset):
                select_operation_point(result, constraint)
        else:
            assert select_operation_point(result, constraint) == expected
    assert infeasible_seen > 0, "randomized suite must include infeasible cases"
    report(f"7 operation-point selection ({infeasible_seen} infeasible cases included)", t0)


def test_criterion_08_self_bleu_extremes():
    t0 = time.monotonic()
    corpus = paraphrase_corpus(n_clusters=10, cluster_size=4, seed=31)
    sources, trees = [], []
    for c in corpus:
        sources.extend(c.sentences)
        trees.extend(c.trees)

    identity_report = evaluate_systems([("copy", list(zip(sources, sources, trees, trees)))])
    assert identity_report.rows[0].self_bleu == 100.0
    assert f"{identity_report.rows[0].self_bleu:.2f}" == "100.00"

    disjoint_outputs = [f"q{i} z{i} w{i}" for i in range(len(sources))]
    disjoint_trees = [f"(S (T q{i}) (T z{i}) (T w{i}))" for i in range(len(sources))]
    disjoint_report = evaluate_systems(
        [("disjoint", list(zip(sources, disjoint_outputs, trees, disjoint_trees)))]
    )
    assert disjoint_report.rows[0].self_bleu == 0.0
    assert f"{disjoint_report.rows[0].self_bleu:.2f}" == "0.00"
    report("8 Self-BLEU extremes (identity 100.00, disjoint 0.00)", t0)


def test_criterion_09_reference_predictor_sanity():
    t0 = time.monotonic()
    rng = np.random.default_rng(6021)
    words = ["how", "big", "is", "it", "cat", "dog", "ran", "Bob", "12", "x?", "far", "blue"]
    sentences = [" ".join(rng.choice(words, size=rng.integers(1, 9))) for _ in range(400)]
    X = np.stack([featurize(s) for s in sentences])
    true_w = np.array(
        [
            [2.0, 0.4, 1.0, 0.0, 2.0, 1.0, 4.0, 5.0],
            [1.5, -0.2, 0.0, 2.0, 0.0, 1.5, 2.0, 0.0],
            [0.5, 0.3, 2.0, 1.0, 1.0, 0.0, 0.0, 3.0],
        ]
    )
    true_b = np.array([25.0, 35.0, 30.0])
    Y = np.clip(X @ true_w.T + true_b + rng.normal(0.0, 2.0, size=(400, 3)), 0.0, 100.0)
    samples = [(s, QualityVector(*y)) for s, y in zip(sentences, Y)]
    train, dev = samples[:300], samples[300:]

    model = fit(train, lam=1.0)
    model_again = fit(train, lam=1.0)
    assert np.array_equal(model.weights, model_again.weights)
    assert np.array_equal(model.bias, model_again.bias)

    fitted_mse = np.array(evaluate_mse(model, dev))
    train_means = np.array([q.as_tuple() for _, q in train]).mean(axis=0)
    dev_targets = np.array([q.as_tuple() for _, q in dev])
    mean_predictor_mse = ((dev_targets - train_means) ** 2).mean(axis=0)
    assert np.all(fitted_mse <= 0.5 * mean_predictor_mse), (fitted_mse, mean_predictor_mse)
    report(
        "9 reference-predictor sanity (dev MSE "
        + np.array2string(fitted_mse, precision=2)
        + " vs mean-predictor "
        + np.array2string(mean_predictor_mse, precision=2)
        + ")",
        t0,
    )


def test_criterion_10_end_to_end_grid():
    t0 = time.monotonic()
    corpus = paraphrase_corpus(n_clusters=40, cluster_size=5, seed=1618)
    dev = dev_items(corpus)
    assert len(dev) == 200
    qp = fit(quality_samples(corpus))
    result = grid_search(GeneratorSpec(kind="retrieval_oracle"), qp, dev, grid=default_grid())
    assert len(result.offsets) == 1331
    assert all(n == 200 for n in result.n)

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "heatmap.csv"
        export_heatmap_csv(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1332
        for line in lines[1:]:
            fields = line.split(",")
            q_syn, q_lex, diversity = float(fields[4]), float(fields[5]), float(fields[9])
            assert abs(diversity - (q_syn + q_lex) / 2.0) <= 1e-4 + 1e-12

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion requires < 5 min, took {elapsed:.1f}"
    report(f"10 end-to-end 1331-offset grid over 200 sentences in {elapsed:.1f}s", t0)


def _tau_oracle(x, y):
    n = len(x)
    n0 = n * (n - 1) // 2
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            prod = (x[i] - x[j]) * (y[i] - y[j])
            if prod > 0:
                concordant += 1
            elif prod < 0:
                discordant += 1
    n1 = sum(c * (c - 1) // 2 for c in Counter(x).values())
    n2 = sum(c * (c - 1) // 2 for c in Counter(y).values())
    if n0 == n1 or n0 == n2:
        return None
    return (concordant - discordant) / math.sqrt((n0 - n1) * (n0 - n2))


def test_criterion_11_kendall_tau_exhaustive():
    t0 = time.monotonic()
    checked = 0
    for n in range(2, 7):
        x = list(range(1, n + 1))
        for perm in itertools.permutations(x):
            y = list(perm)
            assert kendall_tau(x, y) == pytest.approx(_tau_oracle(x, y), abs=1e-12)
            checked += 1
            # injected ties: halve the resolution of both rankings
            xt = [v // 2 for v in x]
            yt = [v // 2 for v in y]
            expected = _tau_oracle(xt, yt)
            if expected is None:
                with pytest.raises(AllTied):
                    kendall_tau(xt, yt)
            else:
                assert kendall_tau(xt, yt) == pytest.approx(expected, abs=1e-12)
            checked += 1
    report(f"11 Kendall tau-b exhaustive permutations ({checked} cases)", t0)
