import json

import pytest

from qcpg_kit import (
    ALL_ORDERED,
    ALL_UNORDERED,
    STAR_FIRST,
    Cluster,
    SentencePair,
    dev_items,
    extract_pairs,
    load_clusters,
    pair_count,
    read_pairs_tsv,
    read_tree_sidecar,
    split_clusters,
    write_pairs_tsv,
)
from qcpg_kit.dataset import PAIR_MODES
from qcpg_kit.errors import InsufficientData, MalformedRecord, TreeLengthMismatch


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def make_clusters(n, size=3):
    return [
        Cluster(f"c{i}", [f"s{i}_{j}" for j in range(size)]) for i in range(n)
    ]


class TestLoadClusters:
    def test_order_preserved(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [
                {"cluster_id": "a", "sentences": ["x", "y"]},
                {"cluster_id": "b", "sentences": ["z"], "trees": ["(A)"]},
            ],
        )
        clusters = load_clusters(path)
        assert [c.cluster_id for c in clusters] == ["a", "b"]
        assert clusters[1].trees == ["(A)"]

    def test_tree_length_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [
                {"cluster_id": "a", "sentences": ["x"]},
                {"cluster_id": "b", "sentences": ["x", "y"], "trees": ["(A)"]},
            ],
        )
        with pytest.raises(TreeLengthMismatch) as exc:
            load_clusters(path)
        assert exc.value.line == 2

    def test_tree_length_mismatch_is_a_malformed_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"cluster_id": "a", "sentences": ["x", "y"], "trees": ["(S x)"]}])
        with pytest.raises(MalformedRecord) as exc:
            load_clusters(path)
        assert type(exc.value) is TreeLengthMismatch and exc.value.exit_code == 4

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_clusters(path) == []

    def test_leading_bom_dropped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('\ufeff{"cluster_id": "a", "sentences": ["x"]}\n', encoding="utf-8")
        assert [(c.cluster_id, c.sentences) for c in load_clusters(path)] == [("a", ["x"])]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('\n{"cluster_id": "a", "sentences": ["x"]}\n\n', encoding="utf-8")
        assert len(load_clusters(path)) == 1

    def test_only_newline_ends_a_record(self, tmp_path):
        # a lone \r is JSON whitespace inside a record; \r\n ends one
        path = tmp_path / "c.jsonl"
        path.write_bytes(
            b'{"cluster_id": "a",\r"sentences": ["x"]}\r\n'
            b'\r\n'
            b'{"cluster_id": "b", "sentences": ["y\xe2\x80\xa8z"]}\n'
            b'{"cluster_id": "c",\r"sentences": [1]}\n'
        )
        with pytest.raises(MalformedRecord) as exc:
            load_clusters(path)
        assert exc.value.line == 4
        path.write_bytes(path.read_bytes().rsplit(b"\n", 2)[0] + b"\n")
        clusters = load_clusters(path)
        assert [(c.cluster_id, c.sentences) for c in clusters] == [("a", ["x"]), ("b", ["y\u2028z"])]

    @pytest.mark.parametrize(
        "record",
        [
            {"cluster_id": "b", "sentences": ["x\ty z", "y z x"]},
            {"cluster_id": "b", "sentences": ["x y", "y\nx"]},
            {"cluster_id": "b", "sentences": ["x y", "y x"], "trees": ["(S (A x) (B y))", "(S\t(B y) (A x))"]},
            {"cluster_id": "b\tc", "sentences": ["x y"]},
        ],
        ids=["tab_in_sentence", "newline_in_sentence", "tab_in_tree", "tab_in_cluster_id"],
    )
    def test_tab_or_newline_in_a_field_reports_line(self, tmp_path, record):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"cluster_id": "a", "sentences": ["a\rb", "c\u2028d"]}, record])
        with pytest.raises(MalformedRecord) as exc:
            load_clusters(path)
        assert exc.value.line == 2
        write_jsonl(path, [{"cluster_id": "a", "sentences": ["a\rb", "c\u2028d"]}])
        assert load_clusters(path)[0].sentences == ["a\rb", "c\u2028d"]

    @pytest.mark.parametrize(
        "record",
        [
            {"cluster_id": "b\r", "sentences": ["x y"]},
            {"cluster_id": "b", "sentences": ["x y", "y x"], "trees": ["(S (A x) (B y))", "(S (B y) (A x))\r"]},
            {"cluster_id": "b", "sentences": ["x y", "y x"], "trees": ["(S (A x) (B y))\r", "(S (B y) (A x))"]},
        ],
        ids=["cluster_id", "last_tree", "first_tree"],
    )
    def test_id_or_tree_ending_in_carriage_return_reports_line(self, tmp_path, record):
        # a pairs TSV line can end in a cluster id or a tree, and reading drops its \r
        path = tmp_path / "c.jsonl"
        ok = {"cluster_id": "a\rb", "sentences": ["x\r", "y\r"], "trees": ["(A\r(x))", "(B (y))"]}
        write_jsonl(path, [ok, record])
        with pytest.raises(MalformedRecord) as exc:
            load_clusters(path)
        assert exc.value.line == 2 and exc.value.exit_code == 4
        write_jsonl(path, [ok])
        [cluster] = load_clusters(path)
        assert (cluster.cluster_id, cluster.sentences, cluster.trees) == ("a\rb", ok["sentences"], ok["trees"])

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"cluster_id": "a"\n', encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            load_clusters(path)
        assert exc.value.line == 1

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"sentences": ["x"]}\n', encoding="utf-8")
        with pytest.raises(MalformedRecord):
            load_clusters(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_clusters(tmp_path / "nope.jsonl")


class TestClusterLookups:
    # "b" appears twice: lookups take the first member's tree
    cluster = Cluster("c", ["a", "b", "c", "b"], trees=["(A)", "(B1)", "(C)", "(B2)"])

    def test_tree_of_first_equal_member(self):
        assert [self.cluster.tree_of(s) for s in ("a", "b", "c")] == ["(A)", "(B1)", "(C)"]

    def test_tree_of_without_trees_or_membership(self):
        assert self.cluster.tree_of("z") is None
        assert Cluster("bare", ["a", "b"]).tree_of("a") is None

    def test_pair_keys_in_member_order(self):
        assert self.cluster.pair_keys("b") == [("b", "a", "(B1)", "(A)"), ("b", "c", "(B1)", "(C)")]
        assert self.cluster.pair_keys("c") == [
            ("c", "a", "(C)", "(A)"), ("c", "b", "(C)", "(B1)"), ("c", "b", "(C)", "(B1)"),
        ]

    def test_dev_items_take_the_first_tree(self):
        # an item is (sentence, cluster); its tree is the cluster's tree_of
        items = dev_items([self.cluster])
        assert all(len(item) == 2 and item[1] is self.cluster for item in items)
        assert [(s, cluster.tree_of(s)) for s, cluster in items] == [
            ("a", "(A)"), ("b", "(B1)"), ("c", "(C)"), ("b", "(B1)"),
        ]

    def test_dev_items_bounds_may_be_zero(self):
        assert dev_items([self.cluster], per_cluster=0) == []
        assert dev_items([self.cluster], limit=0) == []
        assert [s for s, _ in dev_items([self.cluster, self.cluster], per_cluster=1, limit=1)] == ["a"]

    @pytest.mark.parametrize("bound", ["per_cluster", "limit"])
    def test_dev_items_refuse_a_negative_bound(self, bound):
        with pytest.raises(ValueError, match=f"{bound} .*-1"):
            dev_items([self.cluster], **{bound: -1})

    @pytest.mark.parametrize("mode", PAIR_MODES)
    def test_extract_pairs_and_split_take_the_first_tree(self, mode):
        # every mode pairs the repeated member "b" (index 3), as a source or a target
        tree_of = self.cluster.tree_of
        split = split_clusters([self.cluster], (pair_count(self.cluster, mode), 0, 0), seed=0, mode=mode)
        for pairs in (extract_pairs([self.cluster], mode), split.train):
            assert [(p.source_tree, p.target_tree) for p in pairs] == [
                (tree_of(p.source), tree_of(p.target)) for p in pairs
            ]

    def test_pair_keys_empty_without_a_source_tree(self):
        assert self.cluster.pair_keys("z") == []
        assert Cluster("bare", ["a", "b"]).pair_keys("a") == []
        assert Cluster("solo", ["a"], trees=["(A)"]).pair_keys("a") == []


class TestExtractPairs:
    def test_ordered_counts(self):
        cluster = Cluster("c", ["a", "b", "c"])
        assert len(extract_pairs([cluster], ALL_ORDERED)) == 6

    def test_unordered_counts(self):
        cluster = Cluster("c", ["a", "b", "c"])
        pairs = extract_pairs([cluster], ALL_UNORDERED)
        assert len(pairs) == 3
        assert {(p.source, p.target) for p in pairs} == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_star_first(self):
        cluster = Cluster("c", ["a", "b", "c"])
        pairs = extract_pairs([cluster], STAR_FIRST)
        assert [(p.source, p.target) for p in pairs] == [("a", "b"), ("a", "c")]

    def test_singleton_yields_nothing(self):
        assert extract_pairs([Cluster("c", ["a"])], ALL_ORDERED) == []

    def test_trees_propagate(self):
        cluster = Cluster("c", ["a", "b"], trees=["(A)", "(B)"])
        pair = extract_pairs([cluster], ALL_UNORDERED)[0]
        assert (pair.source_tree, pair.target_tree) == ("(A)", "(B)")

    def test_pair_count_matches(self):
        cluster = Cluster("c", list("abcde"))
        for mode in (ALL_ORDERED, ALL_UNORDERED, STAR_FIRST):
            assert pair_count(cluster, mode) == len(extract_pairs([cluster], mode))


class TestSplitClusters:
    def test_exact_quota_fill(self):
        clusters = make_clusters(10, size=3)  # 3 unordered pairs each
        split = split_clusters(clusters, (18, 6, 6), seed=7)
        assert len(split.train) == 18 and len(split.dev) == 6 and len(split.test) == 6
        ids = lambda pairs: {p.cluster_id for p in pairs}
        assert len(ids(split.train)) == 6 and len(ids(split.dev)) == 2 and len(ids(split.test)) == 2
        assert not ids(split.train) & ids(split.dev)
        assert not ids(split.train) & ids(split.test)
        assert not ids(split.dev) & ids(split.test)

    def test_zero_sizes(self):
        split = split_clusters(make_clusters(4), (0, 0, 0), seed=1)
        assert split.train == [] and split.dev == [] and split.test == []

    def test_deterministic(self):
        clusters = make_clusters(12)
        a = split_clusters(clusters, (9, 3, 3), seed=5)
        b = split_clusters(clusters, (9, 3, 3), seed=5)
        assert a.train == b.train and a.dev == b.dev and a.test == b.test

    def test_different_seeds_differ(self):
        clusters = make_clusters(30)
        a = split_clusters(clusters, (30, 9, 9), seed=1)
        b = split_clusters(clusters, (30, 9, 9), seed=2)
        assert a.train != b.train or a.dev != b.dev or a.test != b.test

    def test_quota_overshoot_bounded(self):
        clusters = make_clusters(20, size=4)  # 6 unordered pairs each
        split = split_clusters(clusters, (20, 7, 7), seed=3)
        for pairs, quota in ((split.train, 20), (split.dev, 7), (split.test, 7)):
            assert quota <= len(pairs) < quota + 6

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData) as exc:
            split_clusters(make_clusters(2, size=2), (5, 1, 1), seed=1)
        assert len(exc.value.achievable) == 3

    def test_insufficient_data_reports_the_pairs_taken(self):
        # test takes the only cluster's pair, dev runs out, and train is never reached
        with pytest.raises(InsufficientData, match="filling the dev split") as exc:
            split_clusters([Cluster("c0", ["a b", "c d"])], (1, 5, 1), seed=1)
        assert exc.value.achievable == (0, 0, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_cluster_id_raises_before_drawing(self, seed):
        clusters = make_clusters(6)
        for i in range(4):
            clusters[i].cluster_id = "dup"
        with pytest.raises(ValueError, match="'dup'"):
            split_clusters(clusters, (3, 3, 3), seed=seed)

    def test_ordered_mode_quotas(self):
        clusters = make_clusters(6, size=3)  # 6 ordered pairs each
        split = split_clusters(clusters, (12, 6, 6), seed=11, mode=ALL_ORDERED)
        assert len(split.train) == 12 and len(split.dev) == 6 and len(split.test) == 6


class TestPairsTsv:
    def test_round_trip(self, tmp_path):
        cluster = Cluster("c9", ["a b", "c d"], trees=["(A (a) (b))", "(B (c) (d))"])
        pairs = extract_pairs([cluster], ALL_ORDERED)
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(pairs, path)
        assert read_pairs_tsv(path) == pairs

    def test_three_column_round_trip(self, tmp_path):
        pairs = extract_pairs([Cluster("k", ["x", "y"])], ALL_UNORDERED)
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(pairs, path)
        assert read_pairs_tsv(path) == pairs

    def test_line_breaks_inside_sentences_round_trip(self, tmp_path):
        # only \n ends a line: a lone \r, U+2028 and U+0085 are data
        cluster = Cluster("c1", ["a\rb c", "d\u2028e f", "g\x85h"], trees=["(A (a))", "(B (b))", "(C (c))"])
        pairs = extract_pairs([cluster], ALL_ORDERED)
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(pairs, path)
        assert read_pairs_tsv(path) == pairs

    def test_carriage_return_before_the_last_field_round_trips(self, tmp_path):
        pairs = [SentencePair("a\r", "b\r", "c\r", "(A)\r", "(B)"), SentencePair("a\r", "\rb", "c")]
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(pairs, path)
        assert read_pairs_tsv(path) == pairs

    @pytest.mark.parametrize(
        "pair",
        [
            SentencePair("a", "b", "c\r", "(A)", "(B)\r"),
            SentencePair("a", "b", "c\r"),
            SentencePair("a\tb", "c", "k"),
            SentencePair("a", "b\nc", "k"),
            SentencePair("a", "b", "k", "(A\t(a))", "(B)"),
            SentencePair("a", "b", "k", "(A)", "(B\n(b))"),
        ],
        ids=["cr_ends_target_tree", "cr_ends_cluster_id", "tab", "newline", "tab_in_tree", "newline_in_tree"],
    )
    def test_field_that_would_not_read_back_rejected(self, tmp_path, pair):
        path = tmp_path / "pairs.tsv"
        with pytest.raises(ValueError):
            write_pairs_tsv([SentencePair("x", "y", "k"), pair], path)
        assert not path.exists()

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("only\ttwo\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            read_pairs_tsv(path)


class TestTreeSidecar:
    def test_blank_lines_are_missing(self, tmp_path):
        path = tmp_path / "trees.txt"
        path.write_text("(A)\n\n(B (C))\n", encoding="utf-8")
        assert read_tree_sidecar(path) == ["(A)", None, "(B (C))"]

    def test_only_newline_ends_a_line(self, tmp_path):
        # U+2028, U+0085 and the ASCII separators are data inside a line;
        # one \r before the \n is dropped
        path = tmp_path / "trees.txt"
        path.write_bytes("(A a\u2028b)\r\n(B c\x85d\x0b\x0c\x1c\x1d\x1ee)\n".encode("utf-8"))
        assert read_tree_sidecar(path) == ["(A a\u2028b)", "(B c\x85d\x0b\x0c\x1c\x1d\x1ee)"]

    def test_tab_in_a_line_names_it(self, tmp_path):
        path = tmp_path / "trees.txt"
        path.write_text("(A)\n(S\t(A a) (B b))\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as info:
            read_tree_sidecar(path)
        assert info.value.line == 2
