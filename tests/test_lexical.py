from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_assignment

from qcpg_kit import WordBag, bag_assignment_cost, char_edit_distance, lexical_distance, tokenize
from qcpg_kit.lexical import linear_sum_assignment

from helpers import levenshtein_oracle, matching_bruteforce


class TestTokenize:
    def test_basic(self):
        assert tokenize("The cat sat.").words == ("the", "cat", "sat")

    def test_empty(self):
        bag = tokenize("")
        assert bag.words == ()
        assert bag.total_chars == 0

    def test_casefold_strip_keep_duplicates(self):
        assert tokenize("A a A!").words == ("a", "a", "a")

    def test_punctuation_only_token_dropped(self):
        assert tokenize("hi -- there").words == ("hi", "there")

    def test_unicode_punctuation(self):
        assert tokenize("«hola» mundo…").words == ("hola", "mundo")

    def test_total_chars(self):
        bag = tokenize("ab cde f")
        assert bag.total_chars == 6

    def test_inner_punctuation_kept(self):
        assert tokenize("don't stop").words == ("don't", "stop")


class TestCharEditDistance:
    def test_equal(self):
        assert char_edit_distance("cat", "cat") == 0

    def test_substitution(self):
        assert char_edit_distance("cat", "bat") == 1

    def test_kitten_sitting(self):
        assert levenshtein_oracle("kitten", "sitting") == 3
        assert char_edit_distance("kitten", "sitting") == 3

    def test_empty_sides(self):
        assert char_edit_distance("", "abc") == 3
        assert char_edit_distance("abc", "") == 3
        assert char_edit_distance("", "") == 0

    def test_matches_oracle_on_random_strings(self):
        rng = np.random.default_rng(41)
        letters = list("abcde")
        for _ in range(300):
            w1 = "".join(rng.choice(letters, size=rng.integers(0, 9)))
            w2 = "".join(rng.choice(letters, size=rng.integers(0, 9)))
            assert char_edit_distance(w1, w2) == levenshtein_oracle(w1, w2)

    def test_unicode_scalars(self):
        assert char_edit_distance("café", "cafe") == 1

    # Latin, BMP and astral-plane scalars; a word over 64 characters needs
    # more than one machine word of bit-vector
    _SCALARS = st.sampled_from("ab\u00e9\u4e2d\U0001F600\U00010348")

    @given(st.text(_SCALARS, max_size=90), st.text(_SCALARS, max_size=90))
    @example("", "")
    @example("", "\U0001F600" * 70)
    @example("ab" * 40, "ba" * 33 + "\U00010348")
    @example("a" * 65, "a" * 64)
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_on_unicode_and_long_words(self, w1, w2):
        assert char_edit_distance(w1, w2) == levenshtein_oracle(w1, w2)


def _square(values):
    return st.integers(1, 6).flatmap(lambda k: st.lists(st.lists(values, min_size=k, max_size=k), min_size=k, max_size=k))


class TestLinearSumAssignment:
    # small value ranges make ties, which decide the search order, common
    @given(st.one_of(_square(st.integers(0, 1)), _square(st.integers(0, 3)), _square(st.integers(0, 100))))
    @example([[7]])
    @example([[4] * 5] * 5)
    @example([[0] * 6] * 6)
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force(self, cost):
        best = min(sum(row[j] for row, j in zip(cost, p)) for p in permutations(range(len(cost))))
        assert linear_sum_assignment(cost) == best

    def test_matches_scipy_up_to_k_40(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            k = int(rng.integers(1, 41))
            cost = rng.integers(0, int(rng.choice([2, 4, 101, 10**6])), size=(k, k))
            rows, cols = scipy_assignment(cost)
            got = linear_sum_assignment(cost.tolist())
            assert type(got) is int
            assert got == int(cost[rows, cols].sum())


class TestBagAssignmentCost:
    def test_identical(self):
        bag = tokenize("the quick fox")
        assert bag_assignment_cost(bag, bag) == 0

    def test_the_vs_a(self):
        assert bag_assignment_cost(tokenize("the cat"), tokenize("a cat")) == 3

    def test_unmatched_costs_length(self):
        assert bag_assignment_cost(tokenize(""), tokenize("abc")) == 3

    def test_matches_bruteforce_random_bags(self):
        rng = np.random.default_rng(43)
        letters = list("abcd")
        for _ in range(150):
            a = tuple(
                "".join(rng.choice(letters, size=rng.integers(1, 6)))
                for _ in range(rng.integers(0, 6))
            )
            b = tuple(
                "".join(rng.choice(letters, size=rng.integers(1, 6)))
                for _ in range(rng.integers(0, 6))
            )
            assert bag_assignment_cost(
                WordBag.from_words(a), WordBag.from_words(b)
            ) == matching_bruteforce(a, b)


    @given(
        st.lists(st.text("abc", min_size=1, max_size=4), min_size=3, max_size=4, unique=True).flatmap(
            lambda vocab: st.tuples(
                st.lists(st.sampled_from(vocab), max_size=7),
                st.lists(st.sampled_from(vocab), max_size=7),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_words_cancel_exactly(self, bags):
        # a 3-4 word vocabulary makes shared and repeated words common
        a, b = (tuple(words) for words in bags)
        assert bag_assignment_cost(WordBag.from_words(a), WordBag.from_words(b)) == matching_bruteforce(a, b)


# Column words are packed in lanes of the smallest power of two >= 8 that
# is longer than the longest column word: 7/8, 15/16, ... sit on either
# side of a lane-width step, and at 255/256 a lane's count no longer fits
# in one byte.
_LANE_EDGES = (7, 8, 15, 16, 63, 64, 127, 128, 255, 256)
_WIDE_SCALARS = "ab\u00e9\U0001F600\U00010348"  # Latin, BMP and astral-plane scalars


def _word(rng, n: int) -> str:
    return "".join(rng.choice(list(_WIDE_SCALARS), size=n))


def _both_orders_equal(a: tuple[str, ...], b: tuple[str, ...], expected: int) -> None:
    for x, y in ((a, b), (b, a)):
        got = bag_assignment_cost(WordBag.from_words(x), WordBag.from_words(y))
        assert type(got) is int
        assert got == expected


class TestLaneEdges:
    @pytest.mark.parametrize("n", _LANE_EDGES)
    def test_char_edit_distance(self, n):
        rng = np.random.default_rng(n)
        word = _word(rng, n)
        edited = word[:n // 3] + "\U0001F600" + word[n // 3 + 1:-1]
        for other in ("", "a", edited, _word(rng, n), _word(rng, n + 1), _word(rng, n // 2)):
            expected = levenshtein_oracle(word, other)
            for got in (char_edit_distance(word, other), char_edit_distance(other, word)):
                assert type(got) is int
                assert got == expected

    @pytest.mark.parametrize("n", _LANE_EDGES)
    def test_bag_assignment_cost(self, n):
        rng = np.random.default_rng(1000 + n)
        long_a, long_b = _word(rng, n), _word(rng, n)
        short = ("ab", "\U00010348b", "\u00e9")
        cases = [
            ((long_a, *short), (long_b, "b")),  # fewer columns: empty column padding
            (short[:2], (long_a, long_b)),  # rows shorter than the columns
            ((long_a, long_b, "a"), short),  # rows longer than the columns
            ((long_a, "ab"), (long_a[1:], "ab", "\U0001F600")),  # a shared word cancels
        ]
        for a, b in cases:
            _both_orders_equal(a, b, matching_bruteforce(a, b))

    def test_a_word_of_a_thousand_characters(self):
        rng = np.random.default_rng(1000)
        word = _word(rng, 1000)
        # one substitution, one insertion, the empty word: the distances are known
        substituted = word[:500] + ("a" if word[500] != "a" else "b") + word[501:]
        for other, expected in ((substituted, 1), (word + "\U0001F600", 1), ("", 1000)):
            assert char_edit_distance(word, other) == expected
            assert char_edit_distance(other, word) == expected
        other = _word(rng, 200)
        expected = levenshtein_oracle(word, other)
        assert char_edit_distance(word, other) == char_edit_distance(other, word) == expected
        _both_orders_equal((word, "ab"), (other,), matching_bruteforce((word, "ab"), (other,)))
        # the substitution, "ab" to "b" and an unmatched "a"
        _both_orders_equal((word, "ab"), (substituted, "b", "a"), 3)


class TestWorkloadSizedBags:
    def test_matches_reference_assignment(self):
        # The reference pads the smaller bag with empty words and solves the
        # whole square matrix, with no shared-word cancellation.
        distance = lru_cache(maxsize=None)(levenshtein_oracle)
        rng = np.random.default_rng(61)
        letters = list("abcdef\U0001F600")
        largest_k = 0
        for _ in range(100):
            vocab_size = int(rng.choice([12, 40, 400]))  # few to almost no shared words
            vocab = ["".join(rng.choice(letters, size=int(rng.choice([1, 3, 5, 7, 8, 12, 16, 23]))))
                     for _ in range(vocab_size)]
            a = tuple(map(str, rng.choice(vocab, size=int(rng.integers(10, 26)))))
            b = tuple(map(str, rng.choice(vocab, size=int(rng.integers(10, 26)))))
            k = max(len(a), len(b))
            rows, cols = a + ("",) * (k - len(a)), b + ("",) * (k - len(b))
            cost = np.array([[distance(x, y) for y in cols] for x in rows])
            r, c = scipy_assignment(cost)
            got = bag_assignment_cost(WordBag.from_words(a), WordBag.from_words(b))
            assert type(got) is int
            assert got == int(cost[r, c].sum())
            unshared = list(a)
            for word in b:
                if word in unshared:
                    unshared.remove(word)
            largest_k = max(largest_k, k - (len(a) - len(unshared)))
        assert largest_k >= 20  # as many unshared words as score-cold's bag pairs reach


class TestLexicalDistance:
    def test_self_is_zero(self):
        assert lexical_distance("A big dog!", "A big dog!") == 0.0

    def test_half_distance(self):
        assert lexical_distance("the cat", "a cat") == pytest.approx(50.0)

    def test_empty_pair(self):
        assert lexical_distance("", "") == 0.0

    def test_clamped_to_100(self):
        # substitution sums can exceed the larger bag; the score must not
        assert lexical_distance("aaa b", "xx yy") <= 100.0

    @given(st.text(alphabet="abc ", max_size=30), st.text(alphabet="abc ", max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, s1, s2):
        assert lexical_distance(s1, s2) == pytest.approx(lexical_distance(s2, s1))

    @given(
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=5), max_size=6),
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=5), max_size=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_word_order_invariance(self, words1, words2, rnd):
        s1, s2 = " ".join(words1), " ".join(words2)
        shuffled1, shuffled2 = list(words1), list(words2)
        rnd.shuffle(shuffled1)
        rnd.shuffle(shuffled2)
        assert lexical_distance(s1, s2) == pytest.approx(
            lexical_distance(" ".join(shuffled1), " ".join(shuffled2))
        )

    def test_monotone_in_disjointness(self):
        # swapping a shared word for an unrelated same-length word never
        # lowers the score
        rng = np.random.default_rng(47)
        shared_letters, other_letters = list("abcdef"), list("uvwxyz")
        for _ in range(100):
            shared = "".join(rng.choice(shared_letters, size=4))
            extra1 = ["".join(rng.choice(shared_letters, size=rng.integers(1, 5)))
                      for _ in range(rng.integers(0, 4))]
            extra2 = ["".join(rng.choice(shared_letters, size=rng.integers(1, 5)))
                      for _ in range(rng.integers(0, 4))]
            unrelated = "".join(rng.choice(other_letters, size=4))
            s1 = " ".join([shared] + extra1)
            s2_shared = " ".join([shared] + extra2)
            s2_replaced = " ".join([unrelated] + extra2)
            assert lexical_distance(s1, s2_replaced) >= lexical_distance(s1, s2_shared)

    def test_bounds(self):
        rng = np.random.default_rng(53)
        letters = list("abcdef ")
        for _ in range(100):
            s1 = "".join(rng.choice(letters, size=rng.integers(0, 25)))
            s2 = "".join(rng.choice(letters, size=rng.integers(0, 25)))
            assert 0.0 <= lexical_distance(s1, s2) <= 100.0
