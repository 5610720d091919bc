from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcpg_kit import (
    ParseTree,
    QualityComputer,
    paraphrase_corpus,
    parse_bracketed,
    prune_to_level,
    strip_tokens,
    syntactic_distance,
    tree_edit_distance,
)
from qcpg_kit.errors import EmptyLabel, TrailingInput, UnbalancedParens
from qcpg_kit.trees import FlatTree, parse_syntactic_form, syntactic_form

from helpers import (
    prune_reference,
    random_ordered_tree,
    random_parse_tree,
    strip_reference,
    ted_bruteforce,
    ted_forest_oracle,
)


class TestParsing:
    def test_minimal_tree(self):
        assert parse_bracketed("(A)") == ParseTree("A")

    def test_two_leaves(self):
        assert parse_bracketed("(A (B) (C))") == ParseTree(
            "A", (ParseTree("B"), ParseTree("C"))
        )

    def test_hand_counted_nodes(self):
        # hand count: S, NP, DT, the, VP, VB, runs
        tree = parse_bracketed("(S (NP (DT the)) (VP (VB runs)))")
        assert tree.node_count() == 7
        assert tree.children[0].children[0].children[0].label == "the"

    def test_bare_tokens_and_wrapped_leaves_are_equivalent(self):
        assert parse_bracketed("(NP (DT the))") == parse_bracketed("(NP (DT (the)))")

    def test_unbalanced_missing_close(self):
        with pytest.raises(UnbalancedParens) as exc:
            parse_bracketed("(A (B)")
        assert exc.value.offset == len("(A (B)".encode())

    def test_must_start_with_paren(self):
        with pytest.raises(UnbalancedParens) as exc:
            parse_bracketed("A")
        assert exc.value.offset == 0

    def test_empty_label(self):
        with pytest.raises(EmptyLabel):
            parse_bracketed("()")
        with pytest.raises(EmptyLabel):
            parse_bracketed("( (A))")

    def test_trailing_input(self):
        with pytest.raises(TrailingInput) as exc:
            parse_bracketed("(A) x")
        assert exc.value.offset == 4
        with pytest.raises(TrailingInput):
            parse_bracketed("(A))")

    def test_byte_offsets_count_utf8_bytes(self):
        # the 2-byte character before the error shifts the byte offset
        with pytest.raises(TrailingInput) as exc:
            parse_bracketed("(é) x")
        assert exc.value.offset == 5

    def test_label_validation(self):
        with pytest.raises(ValueError):
            ParseTree("has space")
        with pytest.raises(ValueError):
            ParseTree("")

    def test_render_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = random_ordered_tree(rng, int(rng.integers(1, 12)), "ABC")
            assert parse_bracketed(t.render()) == t

    def test_render_round_trip_parse_trees(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = random_parse_tree(rng)
            assert parse_bracketed(t.render()) == t

    def test_a_chain_deeper_than_the_recursion_limit(self):
        chain = parse_bracketed("(A " * 3000 + "(B)" + ")" * 3000)  # 3,001 nodes, one leaf
        assert chain.node_count() == 3001
        text = chain.render()
        assert text == "(A " * 3000 + "B" + ")" * 3000
        copy = parse_bracketed(text)
        assert copy == chain and copy is not chain
        assert hash(copy) == hash(chain)
        # the same chain but for its deepest leaf
        assert parse_bracketed("(A " * 3000 + "(C)" + ")" * 3000) != chain
        # a token leaf at the bottom: stripped, and its parent becomes the leaf
        token_chain = parse_bracketed("(A " * 3000 + "(b)" + ")" * 3000)
        try:
            pruned, deep, stripped = prune_to_level(chain, 5000), prune_to_level(chain, 3), strip_tokens(chain)
            tokens = strip_tokens(token_chain)
            recursed = False
        except RecursionError:
            recursed = True
        # failed outside the handler: reporting a traceback this deep, pytest compares the locals of
        # every pair of its frames, and each == renders a 3,001-node tree, which takes minutes
        assert not recursed, "a tree walk recursed once per level"
        assert pruned == chain and stripped == chain
        assert deep.render() == "(A (A A))"
        assert tokens.render() == "(A " * 2999 + "A" + ")" * 2999

    def test_equal_exactly_when_the_renders_are(self):
        rng = np.random.default_rng(23)
        pool = [random_parse_tree(rng, max_depth=2) for _ in range(20)]
        pool += [random_ordered_tree(rng, int(rng.integers(1, 5)), "AB") for _ in range(40)]
        pool += [parse_bracketed(t.render()) for t in pool[::3]]
        equal_pairs = 0
        for t, u in combinations(pool, 2):
            assert (t == u) == (t.render() == u.render())
            if t == u:
                equal_pairs += 1
                assert hash(t) == hash(u)
        assert equal_pairs > 20


class TestPrune:
    def test_chain(self):
        assert prune_to_level(parse_bracketed("(A (B (C (D))))"), 3) == parse_bracketed("(A (B (C)))")

    def test_level_one_is_root(self):
        t = parse_bracketed("(S (NP (DT the)) (VP (VB runs)))")
        assert prune_to_level(t, 1) == ParseTree("S")

    def test_level_two(self):
        t = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        assert prune_to_level(t, 2) == parse_bracketed("(S (NP) (VP))")

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            prune_to_level(ParseTree("A"), 0)


@pytest.mark.parametrize("level", range(1, 7))
def test_prune_and_strip_equal_their_recursive_definitions(level):
    rng = np.random.default_rng(60 + level)
    trees = [
        random_ordered_tree(rng, int(rng.integers(1, 16)), "ABab", shape)
        for shape in ("uniform", "deep", "wide")
        for _ in range(40)
    ]
    trees += [random_parse_tree(rng, max_depth=int(rng.integers(2, 6))) for _ in range(40)]
    for t in trees:
        pruned = prune_to_level(t, level)
        assert pruned == prune_reference(t, level)
        assert strip_tokens(pruned) == strip_reference(pruned)
        assert strip_tokens(t) == strip_reference(t)


class TestStripTokens:
    def test_removes_tokens_under_preterminals(self):
        assert strip_tokens(parse_bracketed("(NP (DT the) (NN cat))")) == parse_bracketed(
            "(NP (DT) (NN))"
        )

    def test_bare_root_is_structure(self):
        assert strip_tokens(parse_bracketed("(A)")) == parse_bracketed("(A)")

    def test_nested(self):
        assert strip_tokens(
            parse_bracketed("(S (NP (DT the)) (VP (VB runs)))")
        ) == parse_bracketed("(S (NP (DT)) (VP (VB)))")

    def test_structural_leaf_labels_survive(self):
        # leaf phrase/tag labels are not surface tokens even as only children
        assert strip_tokens(parse_bracketed("(A (B))")) == parse_bracketed("(A (B))")

    def test_multiword_preterminal_kept(self):
        # two leaves under one parent are not only-children, hence not tokens
        t = parse_bracketed("(X (a) (b))")
        assert strip_tokens(t) == t

    def test_prune_then_strip_idempotent_on_parse_trees(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            t = random_parse_tree(rng)
            once = strip_tokens(prune_to_level(t, 3))
            twice = strip_tokens(prune_to_level(once, 3))
            assert once == twice


class TestTreeEditDistance:
    def test_forced_deletion(self):
        assert tree_edit_distance(parse_bracketed("(A (B) (C))"), parse_bracketed("(A (B))")) == 1

    def test_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            t = random_ordered_tree(rng, int(rng.integers(1, 10)), "AB")
            assert tree_edit_distance(t, t) == 0
            # an equal copy is not the same object, so its distance comes from the tables
            copy = parse_bracketed(t.render())
            assert copy == t and copy is not t
            assert tree_edit_distance(t, copy) == 0

    def test_a_chain_deeper_than_the_recursion_limit(self):
        chain = parse_bracketed("(A " * 3000 + "(B)" + ")" * 3000)  # 3,001 nodes, one leaf
        assert FlatTree.of(chain).n == 3001
        assert tree_edit_distance(chain, ParseTree("A")) == 3000
        assert tree_edit_distance(ParseTree("C"), chain) == 3001

    def test_derived_six_node_case(self):
        a = parse_bracketed("(A (B (X) (Y)) (C))")
        b = parse_bracketed("(A (B (X)) (D (Y)))")
        expected = ted_bruteforce(a, b)  # frozen: 3
        assert expected == 3
        assert tree_edit_distance(a, b) == expected

    def test_matches_bruteforce_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            a = random_ordered_tree(rng, int(rng.integers(1, 7)), "ABC")
            b = random_ordered_tree(rng, int(rng.integers(1, 7)), "ABC")
            assert tree_edit_distance(a, b) == ted_bruteforce(a, b)

    def test_symmetry_unit_costs(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            a = random_ordered_tree(rng, int(rng.integers(1, 9)), "AB")
            b = random_ordered_tree(rng, int(rng.integers(1, 9)), "AB")
            assert tree_edit_distance(a, b) == tree_edit_distance(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            a, b, c = (
                random_ordered_tree(rng, int(rng.integers(1, 8)), "AB") for _ in range(3)
            )
            assert tree_edit_distance(a, c) <= tree_edit_distance(a, b) + tree_edit_distance(b, c)

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = random_ordered_tree(rng, int(rng.integers(1, 6)), "AB")
            b = random_ordered_tree(rng, int(rng.integers(1, 6)), "AB")
            assert (tree_edit_distance(a, b) == 0) == (a == b)

    def test_result_is_an_int_never_a_bool(self):
        # == cannot tell True from 1, so the type is checked
        for a, b in (("A", "A"), ("A", "B")):
            assert type(tree_edit_distance(ParseTree(a), ParseTree(b))) is int
        rng = np.random.default_rng(43)
        for _ in range(100):
            a = random_ordered_tree(rng, int(rng.integers(1, 9)), "AB")
            b = random_ordered_tree(rng, int(rng.integers(1, 9)), "AB")
            assert type(tree_edit_distance(a, b)) is int


def _labels(tree: ParseTree) -> set[str]:
    return {tree.label}.union(*map(_labels, tree.children))


_TREES = st.recursive(
    st.builds(ParseTree, st.sampled_from("ABC")),
    lambda kids: st.builds(ParseTree, st.sampled_from("ABC"), st.lists(kids, min_size=1, max_size=4).map(tuple)),
    max_leaves=24,
)


class TestTreeEditDistanceBeyondBruteForce:
    """Trees too large for ``ted_bruteforce``, against the textbook forest recursion."""

    @staticmethod
    def assert_both_orders(x, y, expected: int):
        for d in (tree_edit_distance(x, y), tree_edit_distance(y, x)):
            assert type(d) is int
            assert d == expected

    def test_random_wide_and_deep_trees_of_8_to_30_nodes(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            alphabet = str(rng.choice(["AB", "ABC"]))  # few labels: they repeat inside subtrees
            a, b = (
                random_ordered_tree(rng, int(rng.integers(8, 31)), alphabet, str(rng.choice(["uniform", "deep", "wide"])))
                for _ in range(2)
            )
            self.assert_both_orders(a, b, ted_forest_oracle(a, b))

    def test_every_distinct_form_pair_of_a_jittered_corpus(self):
        forms: dict[ParseTree, FlatTree] = {}
        for cluster in paraphrase_corpus(20, 6, seed=0, length_jitter=8):
            for text in cluster.trees:
                forms.setdefault(strip_tokens(prune_to_level(parse_bracketed(text))), parse_syntactic_form(text))
        assert len(forms) > 40
        for (ta, fa), (tb, fb) in combinations(forms.items(), 2):
            self.assert_both_orders(fa, fb, ted_forest_oracle(ta, tb))

    @given(st.sampled_from("ABCD"), _TREES)
    @settings(max_examples=200, deadline=None)
    def test_one_node_against_a_tree(self, label, tree):
        # the node maps onto a node of the tree with its label, or else is relabelled
        self.assert_both_orders(ParseTree(label), tree, tree.node_count() - (label in _labels(tree)))


class TestSyntacticDistance:
    def test_identical_trees(self):
        t = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        assert syntactic_distance(t, t) == 0.0

    def test_forced_deletion_normalized(self):
        d = syntactic_distance(parse_bracketed("(A (B) (C))"), parse_bracketed("(A (B))"))
        assert d == pytest.approx(100.0 / 3.0)

    def test_matches_composed_oracle_on_random_trees(self):
        rng = np.random.default_rng(31)
        for _ in range(120):
            a = random_ordered_tree(rng, int(rng.integers(1, 7)), "ABC")
            b = random_ordered_tree(rng, int(rng.integers(1, 7)), "ABC")
            pa = strip_tokens(prune_to_level(a, 3))
            pb = strip_tokens(prune_to_level(b, 3))
            expected = 100.0 * min(
                ted_bruteforce(pa, pb) / max(pa.node_count(), pb.node_count()), 1.0
            )
            assert syntactic_distance(a, b) == pytest.approx(expected)

    def test_bounds(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            a = random_parse_tree(rng)
            b = random_parse_tree(rng)
            assert 0.0 <= syntactic_distance(a, b) <= 100.0

    def test_syntactic_form_gives_same_distance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = random_parse_tree(rng)
            b = random_parse_tree(rng)
            fa, fb = syntactic_form(a), syntactic_form(b)
            assert syntactic_distance(fa, fb) == syntactic_distance(a, b)
            assert syntactic_distance(fa, b) == syntactic_distance(a, b)


def _composed_form(text: str) -> FlatTree:
    """The form by the three passes: parse, prune to level 3 then strip, flatten."""
    return FlatTree.of(strip_tokens(prune_to_level(parse_bracketed(text), 3)))


def _arrays(form: FlatTree):
    return form.labels, form.lml, form.keyroots, form.n


_WORDS = st.sampled_from(["S", "NP", "DT", "X1", "-LRB-", "$", "the", "a", "x1", "é", "ü字", "NÉ"])
_SPACES = st.sampled_from([" ", "  ", "\t", "\n ", "\u3000"])


def _node(children):
    """A bracketed node; its children are bare words or nodes, spaced by one whitespace run."""
    return st.builds(
        lambda label, kids, space: f"({space}{label}" + "".join(space + kid for kid in kids) + ")",
        _WORDS, st.lists(children, max_size=3), _SPACES,
    )


_BRACKETED = _node(st.recursive(_WORDS, _node, max_leaves=14))
_MALFORMED = [
    ("", UnbalancedParens, 0),
    (" \t\n", UnbalancedParens, 3),
    (")", UnbalancedParens, 0),
    ("(", EmptyLabel, 1),
    ("(A", UnbalancedParens, 2),
    ("(A ()", EmptyLabel, 4),
    ("( (A))", EmptyLabel, 2),
    ("(A) (B)", TrailingInput, 4),
    ("(A))", TrailingInput, 3),
    ("(é (ü", UnbalancedParens, 7),
]


class TestSyntacticFormFromText:
    @given(_BRACKETED)
    @settings(max_examples=300, deadline=None)
    @example("(S (NP (x (y z))))")  # x: at the prune level 3, children pruned away, not structural
    @example("(S (NP (X (y z))))")
    def test_matches_the_three_passes_on_bracket_strings(self, text):
        assert _arrays(parse_syntactic_form(text)) == _arrays(_composed_form(text))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_three_passes_on_parse_trees(self, seed, max_depth):
        text = random_parse_tree(np.random.default_rng(seed), max_depth).render()
        assert _arrays(parse_syntactic_form(text)) == _arrays(_composed_form(text))

    def test_strip_rule_reads_the_pruned_tree(self):
        # at level 3, x keeps no child: it is a leaf token of NP and goes; X is structure and stays
        assert _arrays(parse_syntactic_form("(S (NP (x (y z))))")) == (["NP", "S"], [0, 0], [1], 2)
        assert _arrays(parse_syntactic_form("(S (NP (X (y z))))")) == (["X", "NP", "S"], [0, 0, 0], [2], 3)
        # one level higher, x has the child y in the pruned tree, so y goes as its token and x stays
        assert parse_syntactic_form("(NP (x (y z)))").labels == ["x", "NP"]

    @pytest.mark.parametrize("text, error, offset", _MALFORMED)
    def test_malformed_text_raises_what_the_parser_raises(self, text, error, offset):
        for parse in (parse_bracketed, parse_syntactic_form):
            with pytest.raises(error) as exc:
                parse(text)
            assert type(exc.value) is error
            assert exc.value.offset == offset

    @pytest.mark.parametrize("text, error, offset", _MALFORMED)
    def test_malformed_tree_fails_only_its_key(self, text, error, offset):
        good = "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"
        keys = [("the cat sat", "a cat sat", good, good), ("the cat sat", "a cat sat", good, text)]
        ok, failed = QualityComputer().pair_qualities(keys)
        assert ok == QualityComputer().pair_quality(*keys[0])
        assert type(failed) is error
        assert failed.offset == offset
