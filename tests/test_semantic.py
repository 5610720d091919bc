import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcpg_kit.semantic
from qcpg_kit import SemanticScorer, builtin_trigram_raw, external_raw, semantic_similarity
from qcpg_kit.errors import NonFiniteValue, ProtocolError, SpawnFailure
from qcpg_kit.semantic import run_line_protocol

ECHO_LINES = f"{sys.executable} {Path(__file__).with_name('stub_echo_lines.py')}"


def trigram_cosine_oracle(s1: str, s2: str) -> float:
    """Independent trigram counting and cosine, for cross-checking."""
    a = Counter(s1.lower()[i:i + 3] for i in range(len(s1) - 2))
    b = Counter(s2.lower()[i:i + 3] for i in range(len(s2) - 2))
    dot = sum(a[g] * b[g] for g in set(a) | set(b))
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    return dot / (na * nb)


def pairwise_trigram_raw(s1: str, s2: str) -> float:
    """The per-pair trigram formula, step by step: both sentences counted for every pair."""
    a, b = s1.lower(), s2.lower()
    if a == b:
        return 2.0
    ca = Counter(a[i:i + 3] for i in range(len(a) - 2))
    cb = Counter(b[i:i + 3] for i in range(len(b) - 2))
    if not ca or not cb:
        return -2.0
    dot = sum(count * cb[gram] for gram, count in ca.items())
    norm_sq = sum(c * c for c in ca.values()) * sum(c * c for c in cb.values())
    cosine = dot / math.sqrt(norm_sq)
    return 4.0 * (cosine - 0.5)


@st.composite
def trigram_batches(draw):
    """A batch over a small pool of sentences, and the same batch permuted.

    The pool holds sentences equal only after lowercasing, sentences too
    short for trigrams (the empty one too), ``(s, s)`` pairs and one
    sentence repeated across many pairs.
    """
    pool = draw(st.lists(st.text(alphabet="aAbB c", max_size=14), min_size=1, max_size=5))
    pool += [s.swapcase() for s in pool] + ["", "ab"]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=30))
    pairs += [(s, s) for s in pool[:2]] + [(pool[0], s) for s in pool]
    pairs = draw(st.permutations(pairs))
    return pairs, draw(st.permutations(pairs))


class TestBuiltinRawBatch:
    @settings(max_examples=300, deadline=None)
    @given(trigram_batches())
    def test_equals_pairwise_formula_exactly(self, batch):
        scorer = SemanticScorer()
        for pairs in batch:
            assert scorer.raw_batch(pairs) == [pairwise_trigram_raw(s1, s2) for s1, s2 in pairs]
        assert [builtin_trigram_raw(s1, s2) for s1, s2 in batch[0]] == scorer.raw_batch(batch[0])

    def test_counts_each_distinct_sentence_once_per_batch(self, monkeypatch):
        trigram_profile = qcpg_kit.semantic._trigram_profile
        calls = Counter()

        def counting(text):
            calls[text] += 1
            return trigram_profile(text)

        monkeypatch.setattr(qcpg_kit.semantic, "_trigram_profile", counting)
        sentences = ["the cat sat", "The Cat sat", "a dog ran off", "ab", "", "the cat sat down"]
        pairs = [(a, b) for a in sentences for b in sentences]
        scorer = SemanticScorer()
        assert scorer.raw_batch(pairs) == [pairwise_trigram_raw(a, b) for a, b in pairs]
        assert sum(calls.values()) == len(sentences)
        assert set(calls) == set(sentences)
        scorer.raw_batch(pairs[::-1])  # nothing is kept from one batch to the next
        assert sum(calls.values()) == 2 * len(sentences)


class TestBuiltinTrigramRaw:
    def test_identical_nonempty_is_exactly_two(self):
        assert builtin_trigram_raw("some sentence here", "some sentence here") == 2.0
        assert builtin_trigram_raw("ab", "ab") == 2.0

    def test_disjoint_is_minus_two(self):
        assert builtin_trigram_raw("aaaa", "bbbb") == -2.0

    def test_hand_computed_overlap(self):
        # abcd -> {abc, bcd}; bcde -> {bcd, cde}; cosine = 1/2 -> raw = 0
        assert trigram_cosine_oracle("abcd", "bcde") == pytest.approx(0.5)
        assert builtin_trigram_raw("abcd", "bcde") == pytest.approx(0.0)

    def test_matches_cosine_oracle(self):
        rng = np.random.default_rng(59)
        letters = list("abcdef ")
        for _ in range(100):
            s1 = "".join(rng.choice(letters, size=rng.integers(3, 30)))
            s2 = "".join(rng.choice(letters, size=rng.integers(3, 30)))
            if s1.lower() == s2.lower():
                continue
            expected = 4.0 * (trigram_cosine_oracle(s1, s2) - 0.5)
            assert builtin_trigram_raw(s1, s2) == pytest.approx(expected)

    def test_symmetry(self):
        rng = np.random.default_rng(61)
        letters = list("abc ")
        for _ in range(100):
            s1 = "".join(rng.choice(letters, size=rng.integers(0, 15)))
            s2 = "".join(rng.choice(letters, size=rng.integers(0, 15)))
            assert builtin_trigram_raw(s1, s2) == builtin_trigram_raw(s2, s1)

    def test_empty_conventions(self):
        assert builtin_trigram_raw("", "") == 2.0  # cosine 1 by convention
        assert builtin_trigram_raw("", "hello there") == -2.0
        assert builtin_trigram_raw("ab", "cd") == -2.0  # too short for trigrams, unequal

    def test_case_insensitive(self):
        assert builtin_trigram_raw("The Cat", "the cat") == 2.0


class TestSemanticSimilarity:
    def test_zero_raw(self):
        assert semantic_similarity(0.0) == 50.0

    def test_independent_sigmoid(self):
        assert semantic_similarity(2.0) == pytest.approx(100.0 / (1.0 + math.exp(-2.0)))
        assert semantic_similarity(2.0) == pytest.approx(88.0797077978, abs=1e-6)

    def test_monotone_and_bounded(self):
        values = [semantic_similarity(x) for x in np.linspace(-30, 30, 401)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(0.0 < v < 100.0 for v in values)
        assert semantic_similarity(500.0) == pytest.approx(100.0)
        assert semantic_similarity(-500.0) == pytest.approx(0.0, abs=1e-6)

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(NonFiniteValue):
                semantic_similarity(bad)


def _stub(tmp_path, body: str) -> str:
    script = tmp_path / "scorer_stub.py"
    script.write_text(body, encoding="utf-8")
    return f"{sys.executable} {script}"


class TestExternalRaw:
    def test_constant_stub(self, tmp_path):
        cmd = _stub(tmp_path, "import sys\nfor _ in sys.stdin:\n    print(0.0)\n")
        assert external_raw(cmd, [("a", "b"), ("c", "d")]) == [0.0, 0.0]

    def test_single_value(self, tmp_path):
        cmd = _stub(tmp_path, "import sys\nfor _ in sys.stdin:\n    print(1.25)\n")
        assert external_raw(cmd, [("x", "y")]) == [1.25]

    def test_order_preserved(self, tmp_path):
        # score = length difference, computable on the test side too
        cmd = _stub(
            tmp_path,
            "import sys\n"
            "for line in sys.stdin:\n"
            "    a, b = line.rstrip('\\n').split('\\t')\n"
            "    print(len(a) - len(b))\n",
        )
        pairs = [("aaa", "b"), ("c", "dddd"), ("ee", "ff")]
        assert external_raw(cmd, pairs) == [2.0, -3.0, 0.0]

    def test_short_output_is_protocol_error(self, tmp_path):
        cmd = _stub(
            tmp_path,
            "import sys\nlines = sys.stdin.readlines()\nfor _ in lines[:-1]:\n    print(0.0)\n",
        )
        with pytest.raises(ProtocolError):
            external_raw(cmd, [("a", "b"), ("c", "d")])

    def test_non_numeric_line_numbered(self, tmp_path):
        cmd = _stub(
            tmp_path,
            "import sys\nlines = sys.stdin.readlines()\nprint(0.5)\nfor _ in lines[1:]:\n    print('oops')\n",
        )
        with pytest.raises(ProtocolError) as exc:
            external_raw(cmd, [("a", "b"), ("c", "d")])
        assert exc.value.line == 2

    def test_nonzero_exit_is_protocol_error(self, tmp_path):
        cmd = _stub(tmp_path, "import sys\nsys.exit(3)\n")
        with pytest.raises(ProtocolError):
            external_raw(cmd, [("a", "b")])

    def test_missing_binary_is_spawn_failure(self):
        with pytest.raises(SpawnFailure):
            external_raw("/nonexistent/binary-xyz", [("a", "b")])

    def test_tabs_in_sentences_sanitized(self, tmp_path):
        cmd = _stub(
            tmp_path,
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print(len(line.rstrip('\\n').split('\\t')))\n",
        )
        # embedded tab must not add protocol fields
        assert external_raw(cmd, [("a\tb", "c")]) == [2.0]


class TestRunLineProtocol:
    # every character str.splitlines() breaks on besides \n and \r
    SEPARATORS = "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"

    def test_unicode_line_breaks_are_data(self):
        mixed = "".join(f"{c}{s}" for c, s in zip("abcdefgh", self.SEPARATORS))
        lines = ["x\u2028y", mixed, "zß\U0001F600"]
        assert run_line_protocol(ECHO_LINES, lines, "generator") == lines

    def test_one_trailing_carriage_return_dropped(self):
        lines = ["plain", "ends in cr\r", "\r"]
        assert run_line_protocol(f"{ECHO_LINES} --crlf", lines, "generator") == lines

    def test_invalid_utf8_is_protocol_error(self, tmp_path):
        cmd = _stub(tmp_path, "import sys\nsys.stdin.read()\nsys.stdout.buffer.write(b'ok\\n\\xff\\n')\n")
        with pytest.raises(ProtocolError, match="invalid UTF-8"):
            run_line_protocol(cmd, ["a", "b"], "scorer")

    @pytest.mark.parametrize("command", [" ", "\t\n", '"abc', "a 'b"])
    def test_a_command_naming_no_program_is_spawn_failure(self, command):
        with pytest.raises(SpawnFailure, match="could not spawn scorer command"):
            run_line_protocol(command, ["a"], "scorer")

    def test_no_lines_start_no_process(self):
        assert run_line_protocol("/nonexistent/cmd", [], "scorer") == []
        calls = []
        assert run_line_protocol("/nonexistent/cmd", [], "scorer", meanwhile=lambda: calls.append(1)) == []
        assert calls == [1]

    def test_meanwhile_runs_once_before_the_lines_are_fed(self):
        calls = []
        lines = ["a", "b"]
        assert run_line_protocol(ECHO_LINES, lines, "generator", meanwhile=lambda: calls.append(1)) == lines
        assert calls == [1]

    def test_meanwhile_is_not_called_after_a_spawn_failure(self):
        calls = []
        with pytest.raises(SpawnFailure):
            run_line_protocol("/nonexistent/cmd", ["a"], "scorer", meanwhile=lambda: calls.append(1))
        assert calls == []

    def test_a_child_gone_before_its_stdin_is_written_is_protocol_error(self):
        # `false` exits at once; its stdin, far larger than a pipe buffer, is written after it is gone
        with pytest.raises(ProtocolError, match="exited with status 1"):
            run_line_protocol("false", ["x" * 20] * 10**5, "scorer", meanwhile=lambda: time.sleep(0.05))

    def test_builtin_scorer_calls_meanwhile_once(self):
        calls = []
        pairs = [("a cat", "a dog"), ("x", "x")]
        assert SemanticScorer().raw_batch(pairs, meanwhile=lambda: calls.append(1)) == [
            builtin_trigram_raw(*pair) for pair in pairs
        ]
        assert calls == [1]


class TestSemanticScorer:
    def test_builtin_roundtrip(self):
        scorer = SemanticScorer()
        assert scorer.raw_batch([("x y z", "x y z")])[0] == 2.0

    def test_batch_matches_single(self):
        scorer = SemanticScorer()
        pairs = [("a cat", "a dog"), ("x", "x")]
        assert scorer.raw_batch(pairs) == [scorer.raw_batch([p])[0] for p in pairs]

    def test_external_requires_command(self):
        for command in (None, "", " ", "\t\n"):
            with pytest.raises(ValueError):
                SemanticScorer(kind="external_command", command=command)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SemanticScorer(kind="bogus")
