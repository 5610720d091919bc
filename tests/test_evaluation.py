import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from qcpg_kit import (
    QualityComputer,
    bleu,
    evaluate_systems,
    kendall_tau,
    self_bleu,
)
from qcpg_kit.errors import AllTied, LengthMismatch, MissingTree

IDENTITY_SEM = 100.0 / (1.0 + math.exp(-2.0))


def manual_precisions(candidate, reference, n):
    cand = candidate.split()
    ref = reference.split()
    cg = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
    rg = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
    total = sum(cg.values())
    matched = sum(min(c, rg[g]) for g, c in cg.items())
    return matched, total


class TestBleu:
    def test_identity_is_100(self):
        for s in ("hi", "the cat sat", "a b c d e f g"):
            assert bleu(s, [s]) == 100.0

    def test_unigram_disjoint_is_0(self):
        assert bleu("aa bb cc", ["xx yy zz"]) == 0.0

    def test_hand_computed_case(self):
        candidate, reference = "the cat sat", "the cat sat down"
        # all candidate n-grams up to trigrams appear in the reference
        for n in (1, 2, 3):
            matched, total = manual_precisions(candidate, reference, n)
            assert matched == total == 4 - n
        # no 4-grams in the candidate: order skipped; BP = exp(1 - 4/3)
        expected = 100.0 * math.exp(1.0 - 4.0 / 3.0)
        assert bleu(candidate, [reference]) == pytest.approx(expected)
        assert bleu(candidate, [reference]) == pytest.approx(71.65313, abs=1e-4)

    def test_empty_candidate_convention(self):
        assert bleu("", ["something"]) == 0.0

    def test_requires_reference(self):
        with pytest.raises(ValueError):
            bleu("something", [])

    def test_smoothing_only_above_unigram(self):
        # shared unigrams, no shared bigrams: p2 = 1/(total+1), score > 0
        score = bleu("b a", ["a b c"])
        matched, total = manual_precisions("b a", "a b c", 2)
        assert matched == 0 and total == 1
        p1 = 2 / 2
        p2 = 1 / (total + 1)
        expected = 100.0 * math.exp(1.0 - 3.0 / 2.0) * math.exp((math.log(p1) + math.log(p2)) / 2)
        assert score == pytest.approx(expected)

    def test_brevity_penalty_uses_closest_reference(self):
        cand = "a b c"
        # closest reference length is 3 -> no penalty even though another is 6
        assert bleu(cand, ["a b c", "a b c d e f"]) == 100.0

    def test_shuffled_candidate_scores_strictly_less(self):
        source = "a b c d"
        shuffled = "b a d c"  # same unigrams, no shared bigram
        assert bleu(shuffled, [source]) < bleu(source, [source])


class TestSelfBleu:
    def test_identity_100(self):
        assert self_bleu("the cat sat", "the cat sat") == 100.0

    def test_disjoint_0(self):
        assert self_bleu("xx yy", "aa bb") == 0.0

    def test_corpus_mean_is_arithmetic(self):
        a = self_bleu("the cat", "the cat")
        b = self_bleu("a dog", "the cat")
        assert (a + b) / 2 == pytest.approx(np.mean([a, b]))


def tau_b_oracle(x, y):
    """Independent tau-b via the n0/n1/n2 formulation over explicit pairs."""
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


class TestKendallTau:
    def test_identical_ranking(self):
        assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0

    def test_reversed_ranking(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_hand_enumerated_case(self):
        # pairs: 5 concordant, 1 discordant -> 4/6
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6)

    def test_matches_oracle_and_scipy_with_ties(self):
        rng = np.random.default_rng(127)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            x = [float(v) for v in rng.integers(0, 5, size=n)]
            y = [float(v) for v in rng.integers(0, 5, size=n)]
            expected = tau_b_oracle(x, y)
            if expected is None:
                with pytest.raises(AllTied):
                    kendall_tau(x, y)
                continue
            mine = kendall_tau(x, y)
            assert mine == pytest.approx(expected, abs=1e-12)
            assert mine == pytest.approx(stats.kendalltau(x, y).statistic, abs=1e-12)

    def test_antisymmetric_under_reversal(self):
        rng = np.random.default_rng(131)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            x = list(rng.permutation(n).astype(float))
            y = list(rng.permutation(n).astype(float))
            assert kendall_tau(x, [-v for v in y]) == pytest.approx(-kendall_tau(x, y))

    def test_all_tied(self):
        with pytest.raises(AllTied):
            kendall_tau([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            kendall_tau([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            kendall_tau([1], [1])


TREE_A = "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"
TREE_B = "(S (NP (DT a) (NN dog)) (VP (VBD ran) (PP (IN off))))"


class TestEvaluateSystems:
    def test_identity_system_row(self):
        sources = ["the cat sat", "a dog ran"]
        trees = [TREE_A, TREE_B]
        report = evaluate_systems([("copy", list(sources))], sources, trees)
        row = report.rows[0]
        assert row.name == "copy"
        assert row.n == 2
        assert row.quality.sem == pytest.approx(IDENTITY_SEM)
        assert row.quality.syn == 0.0 and row.quality.lex == 0.0
        assert row.self_bleu == 100.0
        assert row.bleu is None

    def test_empty_systems(self):
        assert evaluate_systems([], ["a"], ["(A)"]).rows == []

    def test_identical_systems_identical_rows(self):
        sources = ["the cat sat"]
        systems = [("s1", list(sources)), ("s2", list(sources))]
        report = evaluate_systems(systems, sources, [TREE_A])
        r1, r2 = report.rows
        assert (r1.quality, r1.self_bleu, r1.bleu, r1.n) == (
            r2.quality,
            r2.self_bleu,
            r2.bleu,
            r2.n,
        )

    def test_means_equal_bruteforce_recomputation(self):
        sources = ["the cat sat", "a dog ran"]
        trees = [TREE_A, TREE_B]
        outputs = ["a dog ran", "the cat sat"]
        out_trees = [TREE_B, TREE_A]
        report = evaluate_systems(
            [("swap", outputs, out_trees)], sources, trees, references=sources
        )
        row = report.rows[0]
        computer = QualityComputer()
        qs = [
            computer.pair_quality(s, o, ts, to).as_tuple()
            for s, o, ts, to in zip(sources, outputs, trees, out_trees)
        ]
        expected = np.array(qs).mean(axis=0)
        assert row.quality.as_tuple() == pytest.approx(tuple(expected))
        assert row.self_bleu == pytest.approx(
            np.mean([self_bleu(o, s) for o, s in zip(outputs, sources)])
        )
        assert row.bleu == pytest.approx(
            np.mean([bleu(o, [r]) for o, r in zip(outputs, sources)])
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate_systems([("x", ["a", "b"])], ["a"], ["(A)"])
        with pytest.raises(LengthMismatch):
            evaluate_systems([("x", ["a"])], ["a"], ["(A)", "(B)"])

    def test_non_identity_output_requires_tree(self):
        with pytest.raises(MissingTree):
            evaluate_systems([("x", ["changed text"])], ["the cat sat"], [TREE_A])

    @pytest.mark.parametrize(
        "system, source_tree",
        [
            (("x", ["the cat sat"], [None]), TREE_A),
            (("x", ["the cat sat"]), None),
            (("x", ["the cat sat"], [TREE_A]), None),
        ],
        ids=["output_tree", "identity_source_tree", "source_tree"],
    )
    def test_a_missing_tree_is_missing_tree(self, system, source_tree):
        with pytest.raises(MissingTree):
            evaluate_systems([system], ["the cat sat"], [source_tree])

    def test_tsv_format(self):
        sources = ["the cat sat"]
        report = evaluate_systems([("copy", list(sources))], sources, [TREE_A])
        lines = report.to_tsv().splitlines()
        assert lines[0] == "system\tsem\tsyn\tlex\tself_bleu\tbleu\tn"
        fields = lines[1].split("\t")
        assert fields[0] == "copy"
        assert fields[1] == f"{IDENTITY_SEM:.2f}"
        assert fields[4] == "100.00"
        assert fields[5] == "-"
        assert fields[6] == "1"
