import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import qcpg_kit.quality
from qcpg_kit import (
    ALL_ORDERED,
    ControlVector,
    Offset,
    QUANT_VALUES,
    QualityComputer,
    QualityVector,
    SemanticScorer,
    apply_offset,
    builtin_trigram_raw,
    decode_control,
    encode_control,
    extract_pairs,
    lexical_distance,
    paraphrase_corpus,
    parse_bracketed,
    prepend_control,
    prune_to_level,
    quality_vector,
    quantize,
    semantic_similarity,
    strip_tokens,
    syntactic_distance,
    tokenize,
    tree_edit_distance,
)
from qcpg_kit.errors import MalformedControlPrefix, NonFiniteValue

from helpers import levenshtein_oracle


class TestTypes:
    def test_quality_vector_validation(self):
        with pytest.raises(ValueError):
            QualityVector(-1, 0, 0)
        with pytest.raises(ValueError):
            QualityVector(0, 101, 0)
        with pytest.raises(NonFiniteValue):
            QualityVector(float("nan"), 0, 0)

    def test_control_vector_validation(self):
        ControlVector(0, 50, 95)
        with pytest.raises(ValueError):
            ControlVector(0, 50, 100)
        with pytest.raises(ValueError):
            ControlVector(3, 0, 0)

    def test_offset_finite(self):
        with pytest.raises(NonFiniteValue):
            Offset(float("inf"), 0, 0)


class TestQuantize:
    def test_examples(self):
        assert quantize(37.4) == 35
        assert quantize(100) == 95
        assert quantize(-3) == 0
        assert quantize(0) == 0
        assert quantize(99.99) == 95

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            quantize(float("nan"))

    @given(st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=300, deadline=None)
    def test_in_grid_and_close(self, v):
        q = quantize(v)
        assert q in QUANT_VALUES
        # floor binning lands strictly within 5 below, except the clamped
        # top bin where the gap reaches exactly 5
        assert q <= v
        if q == QUANT_VALUES[-1]:
            assert v - q <= 5.0
        else:
            assert v - q < 5.0

    def test_idempotent_and_monotone(self):
        grid = np.arange(0.0, 100.0001, 0.1)
        quantized = [quantize(v) for v in grid]
        assert all(quantize(q) == q for q in quantized)
        assert all(a <= b for a, b in zip(quantized, quantized[1:]))


class TestControlEncoding:
    def test_encode_example(self):
        assert encode_control(ControlVector(35, 50, 5)) == "<sem_35> <syn_50> <lex_5>"

    def test_prepend(self):
        assert prepend_control("a cat", ControlVector(0, 0, 0)) == "<sem_0> <syn_0> <lex_0> a cat"

    def test_decode_example(self):
        assert decode_control("<sem_95> <syn_0> <lex_20> hi") == (ControlVector(95, 0, 20), "hi")

    def test_decode_rejects_plain_text(self):
        with pytest.raises(MalformedControlPrefix):
            decode_control("hi there")

    def test_decode_rejects_off_grid_values(self):
        with pytest.raises(MalformedControlPrefix):
            decode_control("<sem_3> <syn_0> <lex_0> hi")

    def test_round_trip_sampled(self):
        for sem, syn, lex in itertools.product((0, 5, 45, 95), repeat=3):
            c = ControlVector(sem, syn, lex)
            assert decode_control(prepend_control("some text", c)) == (c, "some text")

    def test_empty_sentence_round_trip(self):
        c = ControlVector(10, 15, 20)
        assert decode_control(encode_control(c)) == (c, "")


class TestApplyOffset:
    def test_zero_offset_on_grid(self):
        r = QualityVector(50, 20, 30)
        assert apply_offset(r, Offset(0, 0, 0)) == ControlVector(50, 20, 30)

    def test_clamp_then_quantize(self):
        r = QualityVector(88, 10, 10)
        assert apply_offset(r, Offset(50, 0, 0)) == ControlVector(95, 10, 10)

    def test_fractional_reference(self):
        r = QualityVector(33.3, 0, 0)
        assert apply_offset(r, Offset(5, 0, 0)) == ControlVector(35, 0, 0)

    def test_negative_offsets_clamp(self):
        r = QualityVector(2, 2, 2)
        assert apply_offset(r, Offset(-10, -10, -10)) == ControlVector(0, 0, 0)


IDENTITY_SEM = 100.0 / (1.0 + math.exp(-2.0))


class TestQualityVectorOp:
    def test_identity_pair(self):
        tree = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        q = quality_vector("The cat sat.", "The cat sat.", tree, tree)
        assert q.sem == pytest.approx(IDENTITY_SEM)
        assert q.syn == 0.0
        assert q.lex == 0.0

    def test_empty_pair_with_trivial_trees(self):
        tree = parse_bracketed("(A)")
        q = quality_vector("", "", tree, tree)
        assert q.sem == pytest.approx(IDENTITY_SEM)
        assert q.syn == 0.0
        assert q.lex == 0.0

    def test_disjoint_pair_composes_module_scores(self):
        s, t = "aaaa bbbb", "xxxx yyyy zzzz"
        tree_s = parse_bracketed("(S (NP (DT aaaa) (NN bbbb)))")
        tree_t = parse_bracketed("(S (VP (VB xxxx) (NP (DT yyyy) (NN zzzz))))")
        scorer = SemanticScorer()
        q = quality_vector(s, t, tree_s, tree_t, scorer)
        assert q.sem == pytest.approx(semantic_similarity(scorer.raw(s, t)))
        assert q.syn == pytest.approx(syntactic_distance(tree_s, tree_t))
        assert q.lex == pytest.approx(lexical_distance(s, t))
        assert q.sem < 15.0 and q.lex == 100.0 and q.syn > 0.0


class TestQualityComputer:
    def test_cache_consistency(self):
        computer = QualityComputer()
        tree_a = "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"
        tree_b = "(S (NP (DT a) (NN dog)) (VP (VBD ran)))"
        q1 = computer.pair_quality("the cat sat", "a dog ran", tree_a, tree_b)
        q2 = computer.pair_quality("the cat sat", "a dog ran", tree_a, tree_b)
        assert q1 is q2
        direct = quality_vector(
            "the cat sat", "a dog ran", parse_bracketed(tree_a), parse_bracketed(tree_b)
        )
        assert q1 == direct

    def test_tree_cache_shares_objects(self):
        computer = QualityComputer()
        assert computer.tree("(A (B))") is computer.tree("(A (B))")


_levenshtein = lru_cache(maxsize=None)(levenshtein_oracle)


def _clamped_percent(num, denom) -> float:
    return 100.0 * min(max(num / denom, 0.0), 1.0) if denom else 0.0


def reference_quality(s: str, t: str, tree_s: str, tree_t: str) -> QualityVector:
    """Pair quality from the textbook kernels, with no cancellation or caching.

    lex: full-matrix Levenshtein between every pair of words of the two
    padded bags, then an optimal assignment; syn: Zhang-Shasha on the
    pruned, token-stripped parses.
    """
    bag_s, bag_t = tokenize(s), tokenize(t)
    k = max(len(bag_s.words), len(bag_t.words))
    a = bag_s.words + ("",) * (k - len(bag_s.words))
    b = bag_t.words + ("",) * (k - len(bag_t.words))
    cost = np.array([[_levenshtein(wa, wb) for wb in b] for wa in a], dtype=np.int64)
    rows, cols = linear_sum_assignment(cost)
    lex = _clamped_percent(int(cost[rows, cols].sum()), max(bag_s.total_chars, bag_t.total_chars))
    pa, pb = (strip_tokens(prune_to_level(parse_bracketed(tree), 3)) for tree in (tree_s, tree_t))
    syn = _clamped_percent(tree_edit_distance(pa, pb), max(pa.node_count(), pb.node_count()))
    return QualityVector(semantic_similarity(builtin_trigram_raw(s, t)), syn, lex)


class TestQualityComputerRegression:
    def test_every_corpus_pair_matches_textbook_kernels(self, monkeypatch):
        syntactic_form = qcpg_kit.quality.syntactic_form
        built = Counter()

        def counting_form(tree, *args):
            built[tree.render()] += 1
            return syntactic_form(tree, *args)

        monkeypatch.setattr(qcpg_kit.quality, "syntactic_form", counting_form)
        computer = QualityComputer()
        pairs = extract_pairs(paraphrase_corpus(20, 6, seed=3, length_jitter=8), ALL_ORDERED)
        assert len(pairs) == 600
        for p in pairs:
            expected = reference_quality(p.source, p.target, p.source_tree, p.target_tree)
            assert computer.pair_quality(p.source, p.target, p.source_tree, p.target_tree) == expected
        # one syntactic form per distinct tree string, however many pairs use it
        trees = {p.source_tree for p in pairs} | {p.target_tree for p in pairs}
        assert list(built.values()) == [1] * len(trees)
