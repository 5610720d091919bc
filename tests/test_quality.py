import itertools
import math
import signal
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from qcpg_kit.errors import MalformedControlPrefix, MissingTree, NonFiniteValue, ProtocolError, TreeSyntaxError
from qcpg_kit.quality import quantize_array

from helpers import flatten_reference, levenshtein_oracle
from stub_counting_scorer import raw_score as stub_raw

COUNTING_SCORER = Path(__file__).with_name("stub_counting_scorer.py")


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
        with pytest.raises(ValueError):
            ControlVector(False, 0, 0)  # False == 0, but a bool is no grid value
        # 5.0 == 5 is admitted as the int 5, so its tokens decode back to the same vector
        c = ControlVector(5.0, 0, np.int64(95))
        assert [type(v) for v in c.as_tuple()] == [int, int, int]
        assert encode_control(c) == "<sem_5> <syn_0> <lex_95>"
        assert decode_control(prepend_control("x", c)) == (c, "x")

    def test_offset_finite(self):
        with pytest.raises(NonFiniteValue):
            Offset(float("inf"), 0, 0)

    def test_triples_stay_distinct_types(self):
        triples = [QualityVector(5, 5, 5), ControlVector(5, 5, 5), Offset(5, 5, 5)]
        for a, b in itertools.combinations(triples, 2):
            assert a != b and a.as_tuple() == b.as_tuple()
        assert len(set(triples)) == 3
        for t in triples:
            assert t == type(t)(5, 5, 5)
            assert repr(t).startswith(f"{type(t).__name__}(sem=5")
        assert Offset() == Offset(0, 0, 0)


# each bin edge and the values one ulp either side, signed zeros, the extremes and subnormals
QUANT_EDGES = [
    x
    for edge in range(0, 101, 5)
    for x in (np.nextafter(float(edge), -math.inf), float(edge), np.nextafter(float(edge), math.inf))
] + [-0.0, 1e308, -1e308, sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324, 1e-310, -1e-310]
FINITE_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(QUANT_EDGES))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


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

    @given(st.lists(FINITE_FLOATS, max_size=40))
    @example(QUANT_EDGES)
    @example([])
    @settings(max_examples=300, deadline=None)
    def test_array_equals_scalar(self, values):
        quantized = quantize_array(np.array(values, dtype=np.float64))
        assert quantized.dtype == np.int64
        assert quantized.tolist() == [quantize(v) for v in values]

    @given(st.lists(FINITE_FLOATS, max_size=10), st.lists(NON_FINITE, min_size=1, max_size=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_array_refuses_non_finite_as_scalar(self, values, bad, data):
        for x in bad:
            values.insert(data.draw(st.integers(0, len(values))), x)
        first = next(x for x in values if not math.isfinite(x))
        with pytest.raises(NonFiniteValue) as scalar:
            quantize(first)
        with pytest.raises(NonFiniteValue) as array:
            quantize_array(np.array(values, dtype=np.float64))
        assert str(array.value) == str(scalar.value)


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
        assert q.sem == pytest.approx(semantic_similarity(scorer.raw_batch([(s, t)])[0]))
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

    def test_each_sentence_is_tokenized_once(self, monkeypatch):
        keys = _keys(extract_pairs(paraphrase_corpus(8, 5, seed=3), ALL_ORDERED))
        expected = [reference_quality(*key) for key in keys]
        tokenize = qcpg_kit.lexical.tokenize
        calls = Counter()

        def counting(text):
            calls[text] += 1
            return tokenize(text)

        monkeypatch.setattr(qcpg_kit.lexical, "tokenize", counting)
        computer = QualityComputer()
        computer.pair_qualities(keys[::2])
        assert computer.pair_qualities(keys) == expected  # the second batch's misses reuse the first's bags
        sentences = {s for s, _, _, _ in keys} | {t for _, t, _, _ in keys}
        assert calls == Counter(dict.fromkeys(sentences, 1))


class TestSyntacticMemo:
    PAIRS = extract_pairs(paraphrase_corpus(20, 6, seed=3, length_jitter=8), ALL_ORDERED)

    @staticmethod
    def counting_distance(monkeypatch):
        syntactic_distance = qcpg_kit.quality.syntactic_distance
        calls = Counter()

        def counting(a, b, *args):
            calls[a, b] += 1
            return syntactic_distance(a, b, *args)

        monkeypatch.setattr(qcpg_kit.quality, "syntactic_distance", counting)
        return calls

    def test_equal_forms_are_one_object(self):
        computer = QualityComputer()
        cat = computer._form("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        dog = computer._form("(S (NP (DT a) (NN dog)) (VP (VBD ran)))")
        assert cat is dog
        assert computer._form("(S (NP (DT a) (NN dog)) (VP (VBD ran) (RB away)))") is not cat

    def test_forms_are_interned_by_pruned_stripped_tree(self):
        computer = QualityComputer()
        trees = sorted({p.source_tree for p in self.PAIRS})
        shapes = {tree: strip_tokens(prune_to_level(parse_bracketed(tree), 3)) for tree in trees}
        for a, b in itertools.combinations(trees, 2):
            assert (computer._form(a) is computer._form(b)) == (shapes[a] == shapes[b])
        assert len({id(computer._form(tree)) for tree in trees}) == len(set(shapes.values())) < len(trees)

    def test_one_distance_per_distinct_form_pair(self, monkeypatch):
        calls = self.counting_distance(monkeypatch)
        computer = QualityComputer()
        keys = _keys(self.PAIRS)
        qualities = computer.pair_qualities(keys)
        ordered = {(computer._form(ts), computer._form(tt)) for _, _, ts, tt in keys}
        form_pairs = {frozenset(pair) for pair in ordered}
        unordered_calls = Counter(frozenset(pair) for pair in calls.elements())
        assert set(unordered_calls) == form_pairs
        assert list(unordered_calls.values()) == [1] * len(form_pairs)
        assert len(form_pairs) < len(ordered) < len(keys)  # both orders occur, and both share one call
        assert qualities == [reference_quality(*key) for key in keys]

    def test_computers_share_no_memo(self, monkeypatch):
        calls = self.counting_distance(monkeypatch)
        keys = _keys(self.PAIRS[:40])
        first, second = QualityComputer(), QualityComputer()
        first.pair_qualities(keys)
        n = sum(calls.values())
        assert second.pair_qualities(keys) == first.pair_qualities(keys)
        assert sum(calls.values()) == 2 * n
        assert first._form(keys[0][2]) is not second._form(keys[0][2])


def _keys(pairs):
    return [(p.source, p.target, p.source_tree, p.target_tree) for p in pairs]


class TestUnorderedMemos:
    # one order of every pair of distinct members; the swapped keys are the other order
    KEYS = [key for key in _keys(TestSyntacticMemo.PAIRS) if key[0] < key[1]]

    @staticmethod
    def swapped(keys):
        return [(t, s, tt, ts) for s, t, ts, tt in keys]

    def test_swapped_keys_keep_syn_and_lex(self):
        keys = self.KEYS[::3]
        computer = QualityComputer()
        forward = computer.pair_qualities(keys)
        backward = computer.pair_qualities(self.swapped(keys))  # syn and lex are memo hits
        assert backward == [reference_quality(*key) for key in self.swapped(keys)]
        for f, b in zip(forward, backward):
            assert (b.syn, b.lex) == (f.syn, f.lex)
        # the hits equal a computer that meets the swapped order first
        assert QualityComputer().pair_qualities(self.swapped(keys)) == backward

    def test_one_lexical_distance_per_distinct_unordered_sentence_pair(self, monkeypatch):
        lexical_distance = qcpg_kit.quality.lexical_distance
        calls = Counter()

        def counting(a, b):
            calls[frozenset((id(a), id(b)))] += 1
            return lexical_distance(a, b)

        monkeypatch.setattr(qcpg_kit.quality, "lexical_distance", counting)
        computer = QualityComputer()
        keys = self.KEYS + self.swapped(self.KEYS)
        computer.pair_qualities(keys[::2])
        computer.pair_qualities(keys)
        sentence_pairs = {frozenset((id(computer._bag(s)), id(computer._bag(t)))) for s, t, _, _ in keys}
        assert len(sentence_pairs) == len(self.KEYS)
        assert set(calls) == sentence_pairs
        assert list(calls.values()) == [1] * len(sentence_pairs)


def _starts(count: Path) -> int:
    return len(count.read_text(encoding="utf-8").splitlines()) if count.exists() else 0


class TestPairQualities:
    KEYS = _keys(extract_pairs(paraphrase_corpus(3, 4, seed=5), ALL_ORDERED))

    def counting(self, tmp_path, *options):
        count = tmp_path / "starts"
        command = " ".join([sys.executable, str(COUNTING_SCORER), str(count), *options])
        return count, QualityComputer(SemanticScorer(kind="external_command", command=command))

    def test_equals_per_pair_quality_vector(self):
        computer = QualityComputer()
        for key in self.KEYS[:5]:
            computer.pair_quality(*key)  # prior cache hits
        keys = self.KEYS + self.KEYS[::-3]  # duplicates, hits and misses interleaved
        expected = [
            quality_vector(s, t, parse_bracketed(ts), parse_bracketed(tt)) for s, t, ts, tt in keys
        ]
        assert computer.pair_qualities(keys) == expected
        assert computer.pair_qualities([]) == []

    def test_one_scorer_process_per_batch_of_misses(self, tmp_path):
        count, computer = self.counting(tmp_path)
        computer.pair_quality(*self.KEYS[0])
        assert _starts(count) == 1
        keys = self.KEYS + self.KEYS
        qualities = computer.pair_qualities(keys)
        assert _starts(count) == 2
        expected = [
            quality_vector(s, t, parse_bracketed(ts), parse_bracketed(tt), raw=stub_raw(s, t))
            for s, t, ts, tt in keys
        ]
        assert qualities == expected
        computer.pair_qualities(keys)  # every key hits: no process
        assert _starts(count) == 2

    def test_non_finite_score_fails_only_its_key_and_is_not_cached(self, tmp_path):
        word = self.KEYS[0][0].split()[-1]
        bad = [key for key in self.KEYS if word in key[0].split() and word in key[1].split()]
        count, computer = self.counting(tmp_path, "--nan-on", word)
        qualities = computer.pair_qualities(self.KEYS)
        assert _starts(count) == 1
        assert 0 < len(bad) < len(self.KEYS)
        assert [isinstance(q, NonFiniteValue) for q in qualities] == [key in bad for key in self.KEYS]
        retried = computer.pair_qualities(self.KEYS)
        assert _starts(count) == 2  # the failed keys are scored again
        assert [isinstance(q, NonFiniteValue) for q in retried] == [key in bad for key in self.KEYS]
        with pytest.raises(NonFiniteValue):
            computer.pair_quality(*bad[0])

    def test_misses_go_to_the_scorer_in_slices_of_the_bound(self, tmp_path, monkeypatch):
        word = self.KEYS[-1][0].split()[0]
        monkeypatch.setattr(qcpg_kit.quality, "MAX_BATCH_REQUESTS", 7)
        keys = self.KEYS + self.KEYS[::-2]
        count, computer = self.counting(tmp_path)
        expected = [
            quality_vector(s, t, parse_bracketed(ts), parse_bracketed(tt), raw=stub_raw(s, t))
            for s, t, ts, tt in keys
        ]
        assert computer.pair_qualities(keys) == expected
        assert _starts(count) == -(-len(self.KEYS) // 7) > 1
        # a slice that fails fails only its own keys
        (tmp_path / "exit").mkdir()
        count, computer = self.counting(tmp_path / "exit", "--exit-on", word)
        qualities = computer.pair_qualities(self.KEYS)
        slices = [self.KEYS[i:i + 7] for i in range(0, len(self.KEYS), 7)]
        failed = {key for chunk in slices if any(word in key[0].split() + key[1].split() for key in chunk) for key in chunk}
        assert 0 < len(failed) < len(self.KEYS)
        assert [isinstance(q, ProtocolError) for q in qualities] == [key in failed for key in self.KEYS]
        assert _starts(count) == len(slices)

    def test_process_failure_fails_every_miss(self, tmp_path):
        word = self.KEYS[-1][0].split()[0]
        count, computer = self.counting(tmp_path, "--exit-on", word)
        hit = next(key for key in self.KEYS if word not in key[0].split() + key[1].split())
        computer.pair_quality(*hit)
        qualities = computer.pair_qualities(self.KEYS)
        assert _starts(count) == 2
        assert [isinstance(q, ProtocolError) for q in qualities] == [key != hit for key in self.KEYS]
        assert len({id(q) for q in qualities if isinstance(q, ProtocolError)}) == 1

    def test_malformed_tree_fails_its_key_before_scoring(self, tmp_path):
        count, computer = self.counting(tmp_path)
        s, t, ts, tt = self.KEYS[0]
        bad = (s, t, ts, "(S (T a")
        assert isinstance(computer.pair_qualities([bad])[0], TreeSyntaxError)
        assert _starts(count) == 0
        qualities = computer.pair_qualities([bad, self.KEYS[0]])
        assert isinstance(qualities[0], TreeSyntaxError)
        assert qualities[1] == quality_vector(s, t, parse_bracketed(ts), parse_bracketed(tt), raw=stub_raw(s, t))
        assert _starts(count) == 1

    def test_a_key_without_both_trees_is_missing_tree_and_never_scored(self, tmp_path):
        [missing] = QualityComputer().pair_qualities([("a b", "b c", None, "(S (T a))")])
        assert isinstance(missing, MissingTree)
        # the word is only in the tree-less keys: a batch that sent one would fail every key
        word = "zebra"
        assert not any(word in key[0].split() + key[1].split() for key in self.KEYS)
        s, t, ts, tt = self.KEYS[0]
        treeless = [(f"{word} {s}", t, None, tt), (s, f"{t} {word}", ts, None), (word, word, None, None)]
        keys = [self.KEYS[1], treeless[0], *self.KEYS[2:6], treeless[1], self.KEYS[1], treeless[2]]
        count, computer = self.counting(tmp_path, "--exit-on", word)
        qualities = computer.pair_qualities(keys)
        assert _starts(count) == 1
        for key, q in zip(keys, qualities):
            if key in treeless:
                assert isinstance(q, MissingTree)
            else:
                assert q == QualityComputer(computer.scorer).pair_quality(*key)
        with pytest.raises(MissingTree):
            computer.pair_quality(*treeless[0])

    def test_each_failing_key_repeated_fails_at_every_position(self, tmp_path, monkeypatch):
        # one of each failure before the scorer: no tree, a malformed tree; and a key whose slice fails
        word = "zebra"
        s, t, ts, tt = self.KEYS[0]
        missing, malformed, failing = (s, t, None, tt), (s, t, ts, "(S (T a"), (f"{word} {s}", t, ts, tt)
        good = self.KEYS[1:4]
        assert not any(word in key[0].split() + key[1].split() for key in good)
        keys = [missing, malformed, failing, good[0], missing, malformed, failing, *good[1:]]
        # the misses, in order: failing and good[0] make the first slice, good[1:] the second
        monkeypatch.setattr(qcpg_kit.quality, "MAX_BATCH_REQUESTS", 2)
        count, computer = self.counting(tmp_path, "--exit-on", word)
        qualities = computer.pair_qualities(keys)
        assert _starts(count) == 2
        for i, j in ((0, 4), (1, 5), (2, 6)):
            assert qualities[i] is qualities[j]
        assert isinstance(qualities[0], MissingTree)
        assert isinstance(qualities[1], TreeSyntaxError)
        assert isinstance(qualities[2], ProtocolError) and qualities[3] is qualities[2]
        assert qualities[7:] == [QualityComputer(computer.scorer).pair_quality(*key) for key in good[1:]]


class TestScorerOverlap:
    """An external scorer's process starts before its slice's syn and lex and is fed its pairs after them."""

    # every key is a distinct unordered sentence pair, so each slice computes lex
    KEYS = [key for key in TestPairQualities.KEYS if key[0] < key[1]]

    @staticmethod
    def record(monkeypatch):
        """Events ("spawn", proc), ("kernel", proc, proc.poll()) and ("communicate", proc), in order."""
        events = []

        class Recording(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                events.append(("spawn", self))

            def communicate(self, *args, **kwargs):
                events.append(("communicate", self))
                return super().communicate(*args, **kwargs)

        def spied(kernel):
            def spy(*args):
                proc = next((e[1] for e in reversed(events) if e[0] == "spawn"), None)
                events.append(("kernel", proc, proc and proc.poll()))
                return kernel(*args)
            return spy

        monkeypatch.setattr(subprocess, "Popen", Recording)
        for name in ("syntactic_distance", "lexical_distance"):
            monkeypatch.setattr(qcpg_kit.quality, name, spied(getattr(qcpg_kit.quality, name)))
        return events

    counting = TestPairQualities.counting

    @staticmethod
    def expected(keys):
        return [quality_vector(s, t, parse_bracketed(ts), parse_bracketed(tt), raw=stub_raw(s, t)) for s, t, ts, tt in keys]

    def slices(self, events):
        """Per process: its events from its spawn to its communicate; each must be that order, kernels inside."""
        slices = []
        for event in events:
            if event[0] == "spawn":
                slices.append([event])
            else:
                assert slices and event[1] is slices[-1][0][1], event
                slices[-1].append(event)
        for chunk in slices:
            kinds = [e[0] for e in chunk]
            assert kinds == ["spawn"] + ["kernel"] * (len(kinds) - 2) + ["communicate"]
            assert len(kinds) > 2  # each slice computes syn or lex
            # the process had started and had not exited when each kernel ran
            assert all(poll is None for _, _, poll in chunk[1:-1])
        return slices

    def test_kernels_run_while_the_scorer_process_is_alive(self, tmp_path, monkeypatch):
        expected = self.expected(self.KEYS)
        events = self.record(monkeypatch)
        count, computer = self.counting(tmp_path)
        assert computer.pair_qualities(self.KEYS) == expected
        [chunk] = self.slices(events)
        assert chunk[0][1].returncode == 0  # reaped when pair_qualities returns
        assert _starts(count) == 1

    def test_each_slice_kernels_run_between_its_spawn_and_its_communicate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(qcpg_kit.quality, "MAX_BATCH_REQUESTS", 7)
        expected = self.expected(self.KEYS)
        events = self.record(monkeypatch)
        count, computer = self.counting(tmp_path)
        assert computer.pair_qualities(self.KEYS) == expected
        slices = self.slices(events)
        assert len(slices) == _starts(count) == -(-len(self.KEYS) // 7) > 1
        assert all(chunk[0][1].returncode == 0 for chunk in slices)

    def test_a_kernel_error_propagates_and_leaves_no_child_running(self, tmp_path, monkeypatch):
        events = self.record(monkeypatch)

        def failing(a, b):
            raise RuntimeError("lexical kernel failed")

        monkeypatch.setattr(qcpg_kit.quality, "lexical_distance", failing)
        _, computer = self.counting(tmp_path)
        with pytest.raises(RuntimeError, match="lexical kernel failed"):
            computer.pair_qualities(self.KEYS)
        [proc] = [e[1] for e in events if e[0] == "spawn"]
        assert proc.returncode == -signal.SIGKILL  # killed while it waited for its stdin, and reaped
        assert ("communicate", proc) not in events


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
    syn = _clamped_percent(tree_edit_distance(pa, pb), max(len(flatten_reference(t)[0]) for t in (pa, pb)))
    return QualityVector(semantic_similarity(builtin_trigram_raw(s, t)), syn, lex)


class TestQualityComputerRegression:
    def test_every_corpus_pair_matches_textbook_kernels(self, monkeypatch):
        parse_syntactic_form = qcpg_kit.quality.parse_syntactic_form
        built = Counter()

        def counting_form(text, *args):
            built[text] += 1
            return parse_syntactic_form(text, *args)

        monkeypatch.setattr(qcpg_kit.quality, "parse_syntactic_form", counting_form)
        computer = QualityComputer()
        pairs = extract_pairs(paraphrase_corpus(20, 6, seed=3, length_jitter=8), ALL_ORDERED)
        assert len(pairs) == 600
        for p in pairs:
            expected = reference_quality(p.source, p.target, p.source_tree, p.target_tree)
            assert computer.pair_quality(p.source, p.target, p.source_tree, p.target_tree) == expected
        # one syntactic form per distinct tree string, however many pairs use it
        trees = {p.source_tree for p in pairs} | {p.target_tree for p in pairs}
        assert list(built.values()) == [1] * len(trees)
