import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qcpg_kit import (
    Cluster,
    GeneratorSpec,
    Offset,
    QualityComputer,
    SelectionConstraint,
    SemanticScorer,
    SentencePair,
    apply_offset,
    default_grid,
    dev_items,
    export_heatmap_csv,
    extract_pairs,
    fit,
    grid_search,
    load_model,
    paraphrase_corpus,
    parse_bracketed,
    predict,
    quality_samples,
    quality_vector,
    read_heatmap_csv,
    read_pairs_tsv,
    save_clusters,
    select_operation_point,
    write_pairs_tsv,
)
from qcpg_kit import errors
from qcpg_kit.cli import _build_parser, _exit_code_for, _generator_from, _read_scored_tsv, _scorer_from, main
from qcpg_kit.generators import build_generator

from stub_counting_scorer import raw_score as stub_raw

IDENTITY_SEM = 100.0 / (1.0 + math.exp(-2.0))


@pytest.fixture(scope="module")
def corpus():
    return paraphrase_corpus(n_clusters=6, cluster_size=4, seed=55)


@pytest.fixture()
def corpus_file(corpus, tmp_path):
    path = tmp_path / "clusters.jsonl"
    save_clusters(corpus, path)
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestScore:
    def test_identity_pair_values(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        tree = "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"
        pairs.write_text(f"the cat sat\tthe cat sat\tc0\t{tree}\t{tree}\n", encoding="utf-8")
        out = tmp_path / "scored.tsv"
        assert run(["score", "--pairs", pairs, "--out", out]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t")[-3:] == ["q_sem", "q_syn", "q_lex"]
        fields = lines[1].split("\t")
        assert fields[-3:] == [f"{IDENTITY_SEM:.2f}", "0.00", "0.00"]

    def test_empty_input_header_only(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("", encoding="utf-8")
        out = tmp_path / "scored.tsv"
        assert run(["score", "--pairs", pairs, "--out", out]) == 0
        assert out.read_text(encoding="utf-8") == "source\ttarget\tcluster_id\tq_sem\tq_syn\tq_lex\n"

    def test_sidecars_with_blank_line_skip(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a b\tb a\tc0\nx y\ty x\tc1\n", encoding="utf-8")
        (tmp_path / "src.trees").write_text("(S (T a) (T b))\n\n", encoding="utf-8")
        (tmp_path / "tgt.trees").write_text("(S (T b) (T a))\n(S (T y) (T x))\n", encoding="utf-8")
        out = tmp_path / "scored.tsv"
        assert run(
            [
                "score", "--pairs", pairs,
                "--source-trees", tmp_path / "src.trees",
                "--target-trees", tmp_path / "tgt.trees",
                "--out", out,
            ]
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2  # header + first pair; second skipped

    @pytest.mark.parametrize("trees", ["(S (T a) (T b))\n", "(S (T a) (T b))\n\n(S (T z))\n"], ids=["short", "long"])
    def test_misaligned_sidecar_exit_5(self, tmp_path, trees):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a b\tb a\tc0\nx y\ty x\tc1\n", encoding="utf-8")
        (tmp_path / "src.trees").write_text(trees, encoding="utf-8")
        (tmp_path / "tgt.trees").write_text("(S (T b) (T a))\n(S (T y) (T x))\n", encoding="utf-8")
        argv = ["score", "--pairs", pairs, "--source-trees", tmp_path / "src.trees"]
        assert run([*argv, "--target-trees", tmp_path / "tgt.trees", "--out", tmp_path / "scored.tsv"]) == 5
        assert not (tmp_path / "scored.tsv").exists()

    def test_tab_in_a_sidecar_tree_exit_4(self, tmp_path):
        # the tree would become two fields of the scored row
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a b\tb a\tc0\n", encoding="utf-8")
        (tmp_path / "src.trees").write_text("(S\t(A a) (B b))\n", encoding="utf-8")
        (tmp_path / "tgt.trees").write_text("(S (B b) (A a))\n", encoding="utf-8")
        argv = ["score", "--pairs", pairs, "--source-trees", tmp_path / "src.trees"]
        assert run([*argv, "--target-trees", tmp_path / "tgt.trees", "--out", tmp_path / "scored.tsv"]) == 4
        assert not (tmp_path / "scored.tsv").exists()

    def test_deterministic_rerun(self, corpus, tmp_path):
        # the README promises byte-identical reruns: score every ordered pair twice
        pairs = tmp_path / "pairs.tsv"
        write_pairs_tsv(extract_pairs(corpus), pairs)
        outs = [tmp_path / "s1.tsv", tmp_path / "s2.tsv"]
        for out in outs:
            assert run(["score", "--pairs", pairs, "--out", out]) == 0
        assert len(outs[0].read_bytes().splitlines()) == 1 + len(extract_pairs(corpus))
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_missing_file_exit_3(self, tmp_path):
        assert run(["score", "--pairs", tmp_path / "nope.tsv"]) == 3


class TestSplit:
    def test_split_files_and_leakage(self, corpus_file, tmp_path):
        out = tmp_path / "splits"
        assert run(
            ["split", "--clusters", corpus_file, "--sizes", "12,6,6", "--seed", "7", "--out", out]
        ) == 0
        ids = {}
        for name in ("train", "dev", "test"):
            pairs = read_pairs_tsv(out / f"{name}.tsv")
            ids[name] = {p.cluster_id for p in pairs}
        assert not ids["train"] & ids["dev"]
        assert not ids["train"] & ids["test"]
        assert not ids["dev"] & ids["test"]
        assert len(read_pairs_tsv(out / "dev.tsv")) >= 6

    def test_determinism(self, corpus_file, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run(
                ["split", "--clusters", corpus_file, "--sizes", "6,6,6", "--seed", "3", "--out", out]
            ) == 0
        for name in ("train", "dev", "test"):
            assert (outs[0] / f"{name}.tsv").read_bytes() == (outs[1] / f"{name}.tsv").read_bytes()

    def test_insufficient_data_exit_5(self, corpus_file, tmp_path):
        assert run(
            ["split", "--clusters", corpus_file, "--sizes", "100000,1,1", "--out", tmp_path / "x"]
        ) == 5

    def test_tab_in_a_sentence_exit_4(self, tmp_path):
        clusters = tmp_path / "tab.jsonl"
        save_clusters([Cluster("c0", ["x\ty z", "y z x"]), Cluster("c1", ["a b", "b a"])], clusters)
        assert run(["split", "--clusters", clusters, "--sizes", "1,1,0", "--out", tmp_path / "y"]) == 4
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("seed", range(5))
    def test_repeated_cluster_id_exit_5(self, corpus, tmp_path, seed):
        clusters = tmp_path / "dup.jsonl"
        renamed = [Cluster("dup" if i < 4 else c.cluster_id, c.sentences, c.trees) for i, c in enumerate(corpus)]
        save_clusters(renamed, clusters)
        out = tmp_path / "y"
        assert run(["split", "--clusters", clusters, "--sizes", "6,6,6", "--seed", seed, "--out", out]) == 5
        assert not out.exists()

    def test_malformed_clusters_exit_4(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert run(["split", "--clusters", bad, "--sizes", "1,1,1", "--out", tmp_path / "y"]) == 4


@pytest.fixture()
def scored_file(corpus_file, tmp_path):
    # score all ordered pairs of the corpus via split with generous quota
    out = tmp_path / "splits"
    assert run(["split", "--clusters", corpus_file, "--sizes", "20,6,6", "--seed", "1", "--out", out]) == 0
    scored = tmp_path / "scored.tsv"
    assert run(["score", "--pairs", out / "train.tsv", "--out", scored]) == 0
    return scored


class TestQpCommands:
    def test_train_and_predict_round_trip(self, scored_file, tmp_path, corpus):
        model_path = tmp_path / "model.json"
        assert run(["train-qp", "--pairs", scored_file, "--out", model_path]) == 0
        model = load_model(model_path)
        sentences_file = tmp_path / "sentences.txt"
        sentences = [c.sentences[0] for c in corpus[:3]]
        sentences_file.write_text("".join(s + "\n" for s in sentences), encoding="utf-8")
        out = tmp_path / "preds.tsv"
        assert run(["predict-qp", "--model", model_path, "--sentences", sentences_file, "--out", out]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sentence\tr_sem\tr_syn\tr_lex"
        for line, s in zip(lines[1:], sentences):
            fields = line.split("\t")
            expected = predict(model, s)
            assert fields[0] == s
            assert float(fields[1]) == pytest.approx(expected.sem, abs=1e-4)

    def test_unicode_line_breaks_inside_a_sentence(self, model_file, tmp_path):
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("the first\u2028sentence\nthe second\n", encoding="utf-8")
        out = tmp_path / "preds.tsv"
        assert run(["predict-qp", "--model", model_file, "--sentences", sentences, "--out", out]) == 0
        rows = out.read_text(encoding="utf-8").split("\n")[1:-1]
        assert [row.split("\t")[0] for row in rows] == ["the first\u2028sentence", "the second"]

    def test_short_scored_row_exit_4(self, scored_file, tmp_path):
        bad = tmp_path / "short.tsv"
        lines = scored_file.read_text(encoding="utf-8").split("\n")
        bad.write_text("\n".join([*lines[:2], "a\tb\tc0\t1.0", *lines[2:]]), encoding="utf-8")
        assert run(["train-qp", "--pairs", bad, "--out", tmp_path / "model.json"]) == 4

    def test_non_numeric_quality_exit_4(self, scored_file, tmp_path):
        bad = tmp_path / "nan.tsv"
        header, first, *rest = scored_file.read_text(encoding="utf-8").split("\n")
        q_sem = header.split("\t").index("q_sem")
        fields = first.split("\t")
        fields[q_sem] = "x"
        bad.write_text("\n".join([header, "\t".join(fields), *rest]), encoding="utf-8")
        assert run(["train-qp", "--pairs", bad, "--out", tmp_path / "model.json"]) == 4

    @pytest.mark.parametrize("value", ["150", "inf", "nan", "-1"])
    def test_out_of_range_quality_exit_4(self, scored_file, tmp_path, value):
        bad = tmp_path / "range.tsv"
        header, first, *rest = scored_file.read_text(encoding="utf-8").split("\n")
        fields = first.split("\t")
        fields[header.split("\t").index("q_sem")] = value
        bad.write_text("\n".join([header, "\t".join(fields), *rest]), encoding="utf-8")
        assert run(["train-qp", "--pairs", bad, "--out", tmp_path / "model.json"]) == 4
        with pytest.raises(errors.MalformedRecord) as info:
            _read_scored_tsv(bad)
        assert info.value.line == 2

    @pytest.mark.parametrize("keep", [slice(None, None, -1), slice(0, 7)], ids=["reversed", "seven_features"])
    def test_model_with_other_features_exit_4(self, model_file, tmp_path, keep):
        payload = json.loads(model_file.read_text(encoding="utf-8"))
        for key in ("feature_names", "mean", "scale"):
            payload[key] = payload[key][keep]
        payload["weights"] = [row[keep] for row in payload["weights"]]
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        sentences = tmp_path / "s.txt"
        sentences.write_text("hello there\n", encoding="utf-8")
        assert run(["predict-qp", "--model", bad, "--sentences", sentences, "--out", tmp_path / "p.tsv"]) == 4

    def test_malformed_model_exit_4(self, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text('{"format": "wrong"}', encoding="utf-8")
        sentences = tmp_path / "s.txt"
        sentences.write_text("hello\n", encoding="utf-8")
        assert run(["predict-qp", "--model", bad, "--sentences", sentences]) == 4


@pytest.fixture()
def model_file(corpus, tmp_path):
    model_path = tmp_path / "model.json"
    from qcpg_kit import save_model

    save_model(fit(quality_samples(corpus)), model_path)
    return model_path


class TestGridSelectGenerateEval:
    def test_grid_matches_library_byte_for_byte(self, corpus, corpus_file, model_file, tmp_path):
        out = tmp_path / "heat.csv"
        assert run(
            [
                "grid", "--clusters", corpus_file, "--model", model_file,
                "--generator", "retrieval_oracle", "--grid", "0:10:20", "--out", out,
            ]
        ) == 0
        result = grid_search(
            GeneratorSpec(kind="retrieval_oracle", seed=42),
            load_model(model_file),
            dev_items(corpus),
            grid=default_grid(0, 10, 20),
        )
        lib_out = tmp_path / "lib.csv"
        export_heatmap_csv(result, lib_out)
        assert out.read_bytes() == lib_out.read_bytes()

    def test_select_matches_library(self, corpus, corpus_file, model_file, tmp_path):
        heat = tmp_path / "heat.csv"
        assert run(
            [
                "grid", "--clusters", corpus_file, "--model", model_file,
                "--generator", "retrieval_oracle", "--grid", "0:10:20", "--out", heat,
            ]
        ) == 0
        op_path = tmp_path / "op.json"
        assert run(
            ["select", "--heatmap", heat, "--baseline-sem", "20", "--margin", "5", "--out", op_path]
        ) == 0
        payload = json.loads(op_path.read_text(encoding="utf-8"))
        expected = select_operation_point(
            read_heatmap_csv(heat), SelectionConstraint(baseline_sem=20.0, min_sem_advantage=5.0)
        )
        assert tuple(payload["offset"][k] for k in ("sem", "syn", "lex")) == expected.offset.as_tuple()

    def test_select_infeasible_exit_6(self, corpus, corpus_file, model_file, tmp_path):
        heat = tmp_path / "heat.csv"
        assert run(
            [
                "grid", "--clusters", corpus_file, "--model", model_file,
                "--generator", "retrieval_oracle", "--grid", "0:20:20", "--out", heat,
            ]
        ) == 0
        assert run(["select", "--heatmap", heat, "--baseline-sem", "99", "--margin", "5"]) == 6

    def test_generate_identity_and_eval(self, corpus, corpus_file, model_file, tmp_path):
        gen_id = tmp_path / "identity.tsv"
        assert run(
            [
                "generate", "--clusters", corpus_file, "--model", model_file,
                "--generator", "identity", "--offset", "0,0,0", "--out", gen_id,
            ]
        ) == 0
        pairs = read_pairs_tsv(gen_id)
        assert all(p.source == p.target for p in pairs)

        gen_oracle = tmp_path / "oracle.tsv"
        assert run(
            [
                "generate", "--clusters", corpus_file, "--model", model_file,
                "--generator", "retrieval_oracle", "--offset", "0,10,10", "--out", gen_oracle,
            ]
        ) == 0
        members = {c.cluster_id: set(c.sentences) for c in corpus}
        oracle_pairs = read_pairs_tsv(gen_oracle)
        assert all(p.target in members[p.cluster_id] for p in oracle_pairs)
        assert all(p.target != p.source for p in oracle_pairs)

        report = tmp_path / "report.tsv"
        assert run(
            [
                "eval", "--system", f"copy={gen_id}", "--system", f"oracle={gen_oracle}",
                "--out", report,
            ]
        ) == 0
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "system\tsem\tsyn\tlex\tself_bleu\tbleu\tn"
        copy_row = lines[1].split("\t")
        assert copy_row[0] == "copy"
        assert copy_row[4] == "100.00"
        oracle_row = lines[2].split("\t")
        assert float(oracle_row[4]) < 100.0

    def test_repeated_sentence_is_measured_with_its_first_tree(self, corpus, model_file, tmp_path):
        # the first member recurs as the last one, under the second member's tree
        base = corpus[0]
        assert base.trees[0] != base.trees[1]
        cluster = Cluster("repeat", [*base.sentences, base.sentences[0]], [*base.trees, base.trees[1]])
        clusters, out, report = tmp_path / "repeat.jsonl", tmp_path / "oracle.tsv", tmp_path / "report.tsv"
        save_clusters([cluster], clusters)
        assert run(
            [
                "generate", "--clusters", clusters, "--model", model_file,
                "--generator", "retrieval_oracle", "--offset", "0,10,10", "--out", out,
            ]
        ) == 0
        assert run(["eval", "--system", f"oracle={out}", "--out", report]) == 0
        pairs = read_pairs_tsv(out)
        assert [p.source for p in pairs] == cluster.sentences
        oracle, computer = build_generator(GeneratorSpec(kind="retrieval_oracle")), QualityComputer()
        own = []
        for p in pairs:
            assert (p.source_tree, p.target_tree) == (cluster.tree_of(p.source), cluster.tree_of(p.target))
            # each candidate carries the quality eval would measure were the oracle to return it
            table = oracle.candidate_qualities(p.source, cluster)
            assert [q for _, q in table] == [
                computer.pair_quality(p.source, t, p.source_tree, cluster.tree_of(t)) for t, _ in table
            ]
            own.append(dict(table)[p.target].as_tuple())
        row = report.read_text(encoding="utf-8").splitlines()[1].split("\t")
        assert row[1:4] == [f"{v:.2f}" for v in np.array(own).mean(axis=0)]

    def test_eval_matches_library(self, corpus, corpus_file, model_file, tmp_path):
        gen_id = tmp_path / "identity.tsv"
        assert run(
            [
                "generate", "--clusters", corpus_file, "--model", model_file,
                "--generator", "identity", "--offset", "0,0,0", "--out", gen_id,
            ]
        ) == 0
        report = tmp_path / "report.tsv"
        assert run(["eval", "--system", f"copy={gen_id}", "--out", report]) == 0
        from qcpg_kit import evaluate_systems

        pairs = read_pairs_tsv(gen_id)
        lib = evaluate_systems(
            [("copy", [p.target for p in pairs], [p.target_tree for p in pairs])],
            [p.source for p in pairs],
            [p.source_tree for p in pairs],
        )
        assert report.read_text(encoding="utf-8") == lib.to_tsv()

    def test_eval_refuses_systems_whose_source_trees_differ(self, tmp_path, caplog):
        tree = "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"
        files = {name: tmp_path / f"{name}.tsv" for name in ("a", "b")}
        for name, source_tree in (("a", tree), ("b", "(S (X y))")):
            write_pairs_tsv([SentencePair("the cat sat", "the cat sat", "c0", source_tree, tree)], files[name])
        # alone, b's identity output is measured against b's own source tree
        alone = tmp_path / "b-report.tsv"
        assert run(["eval", "--system", f"b={files['b']}", "--out", alone]) == 0
        assert float(alone.read_text(encoding="utf-8").splitlines()[1].split("\t")[2]) > 0
        report = tmp_path / "report.tsv"
        assert run(["eval", "--system", f"a={files['a']}", "--system", f"b={files['b']}", "--out", report]) == 5
        assert not report.exists()
        assert "LengthMismatch" in caplog.text and "system 'b'" in caplog.text


COUNTING_STUB = Path(__file__).with_name("stub_counting_generator.py")


class TestExternalBatching:
    GRID = "0:25:50"

    def stub(self, tmp_path, *options):
        count = tmp_path / "starts"
        return count, " ".join([sys.executable, str(COUNTING_STUB), str(count), *options])

    def grid(self, corpus_file, model_file, tmp_path, command):
        heat = tmp_path / "heat.csv"
        code = run(
            [
                "grid", "--clusters", corpus_file, "--model", model_file, "--grid", self.GRID,
                "--generator", "external", "--generator-command", command, "--out", heat,
            ]
        )
        return code, read_heatmap_csv(heat) if code == 0 else None

    def test_grid_spawns_one_process_per_dev_item(self, corpus, corpus_file, model_file, tmp_path):
        count, command = self.stub(tmp_path)
        code, result = self.grid(corpus_file, model_file, tmp_path, command)
        assert code == 0
        assert len(count.read_text(encoding="utf-8").splitlines()) == len(dev_items(corpus))
        assert all(n == len(dev_items(corpus)) for n in result.n)

    def test_generate_spawns_one_process(self, corpus, corpus_file, model_file, tmp_path):
        count, command = self.stub(tmp_path)
        out = tmp_path / "generated.tsv"
        assert run(
            [
                "generate", "--clusters", corpus_file, "--model", model_file, "--offset", "10,10,10",
                "--generator", "external", "--generator-command", command, "--out", out,
            ]
        ) == 0
        assert len(count.read_text(encoding="utf-8").splitlines()) == 1
        pairs = read_pairs_tsv(out)
        assert [p.source for p in pairs] == [s for c in corpus for s in c.sentences]
        assert all(p.target == p.source and p.target_tree == p.source_tree for p in pairs)

    def test_empty_line_fails_only_its_offsets(self, corpus, corpus_file, model_file, tmp_path):
        # one sentence's request comes back empty wherever its lex control is 95
        word = corpus[0].sentences[0].split()[0]
        count, command = self.stub(tmp_path, "--empty-on", f"<lex_95>,{word}")
        code, result = self.grid(corpus_file, model_file, tmp_path, command)
        assert code == 0
        model = load_model(model_file)
        items = dev_items(corpus)
        expected = [
            sum(not (apply_offset(predict(model, s), o).lex == 95 and word in s.split()) for s, _, _ in items)
            for o in result.offsets
        ]
        assert result.n == expected
        assert min(expected) < len(items) == max(expected)
        assert len(count.read_text(encoding="utf-8").splitlines()) == len(items)

    def test_tab_fails_only_its_sentence(self, corpus, corpus_file, model_file, tmp_path):
        word = corpus[0].sentences[0].split()[0]
        script = tmp_path / "tab_stub.py"
        script.write_text(
            "import sys\n"
            "for line in sys.stdin.read().split('\\n')[:-1]:\n"
            "    s = line.split(' ', 3)[3]\n"
            f"    print(s.replace(' ', '\\t', 1) if {word!r} in s.split() else s)\n",
            encoding="utf-8",
        )
        out = tmp_path / "generated.tsv"
        assert run(
            [
                "generate", "--clusters", corpus_file, "--model", model_file,
                "--generator", "external", "--generator-command", f"{sys.executable} {script}", "--out", out,
            ]
        ) == 0
        kept = [s for c in corpus for s in c.sentences if word not in s.split()]
        assert 0 < len(kept) < sum(len(c.sentences) for c in corpus)
        assert [p.target for p in read_pairs_tsv(out)] == kept
        assert run(["eval", "--system", f"stub={out}", "--out", tmp_path / "report.tsv"]) == 0

    def test_nonzero_exit_fails_the_items_batch(self, corpus, corpus_file, model_file, tmp_path):
        word = corpus[0].sentences[0].split()[0]
        count, command = self.stub(tmp_path, "--exit-on", word)
        code, result = self.grid(corpus_file, model_file, tmp_path, command)
        assert code == 0
        survivors = sum(word not in s.split() for s, _, _ in dev_items(corpus))
        assert 0 < survivors < len(dev_items(corpus))
        assert all(n == survivors for n in result.n)


COUNTING_SCORER = Path(__file__).with_name("stub_counting_scorer.py")


class TestExternalScorerBatching:
    def scorer(self, tmp_path, *options, name="scorer_starts"):
        count = tmp_path / name
        command = " ".join([sys.executable, str(COUNTING_SCORER), str(count), *options])
        return count, ["--scorer", "external", "--scorer-command", command]

    @staticmethod
    def starts(count):
        return len(count.read_text(encoding="utf-8").splitlines()) if count.exists() else 0

    def test_score_starts_one_process(self, corpus, tmp_path):
        pairs = extract_pairs(corpus)
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(pairs, path)
        count, scorer = self.scorer(tmp_path)
        out = tmp_path / "scored.tsv"
        assert run(["score", "--pairs", path, *scorer, "--out", out]) == 0
        assert self.starts(count) == 1
        rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert [row[:2] for row in rows] == [[p.source, p.target] for p in pairs]
        for row, p in zip(rows, pairs):
            q = quality_vector(
                p.source, p.target, parse_bracketed(p.source_tree), parse_bracketed(p.target_tree),
                raw=stub_raw(p.source, p.target),
            )
            assert row[-3:] == [f"{q.sem:.2f}", f"{q.syn:.2f}", f"{q.lex:.2f}"]

    def test_score_without_parses_starts_none(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a b\tb a\tc0\nx y\ty x\tc1\n", encoding="utf-8")
        count, scorer = self.scorer(tmp_path)
        out = tmp_path / "scored.tsv"
        assert run(["score", "--pairs", path, *scorer, "--out", out]) == 0
        assert self.starts(count) == 0
        assert out.read_text(encoding="utf-8") == "source\ttarget\tcluster_id\tq_sem\tq_syn\tq_lex\n"

    def test_score_nan_exit_5_and_crash_exit_4(self, corpus, tmp_path):
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(extract_pairs(corpus), path)
        word = corpus[0].sentences[0].split()[-1]  # shared by several members of the cluster
        count, scorer = self.scorer(tmp_path, "--nan-on", word)
        assert run(["score", "--pairs", path, *scorer, "--out", tmp_path / "nan.tsv"]) == 5
        assert self.starts(count) == 1
        count, scorer = self.scorer(tmp_path, "--exit-on", word, name="exit_starts")
        assert run(["score", "--pairs", path, *scorer, "--out", tmp_path / "exit.tsv"]) == 4
        assert self.starts(count) == 1

    def test_eval_starts_one_process(self, corpus, corpus_file, model_file, tmp_path):
        systems = []
        for kind in ("identity", "retrieval_oracle"):
            out = tmp_path / f"{kind}.tsv"
            assert run(
                [
                    "generate", "--clusters", corpus_file, "--model", model_file,
                    "--generator", kind, "--offset", "0,10,10", "--out", out,
                ]
            ) == 0
            systems += ["--system", f"{kind}={out}"]
        count, scorer = self.scorer(tmp_path)
        assert run(["eval", *systems, *scorer, "--out", tmp_path / "report.tsv"]) == 0
        assert self.starts(count) == 1

    @pytest.mark.parametrize("generator", ["retrieval_oracle", "noisy_oracle"])
    def test_oracle_generate_starts_one_process(self, corpus, corpus_file, model_file, tmp_path, generator):
        count, scorer = self.scorer(tmp_path)
        out = tmp_path / "generated.tsv"
        assert run(
            [
                "generate", "--clusters", corpus_file, "--model", model_file, "--generator", generator,
                "--noise-std", "10", "--offset", "0,10,10", *scorer, "--out", out,
            ]
        ) == 0
        assert self.starts(count) == 1
        # the same outputs as one generation (and one scorer batch) per sentence
        command = scorer[-1].replace(str(count), str(tmp_path / "per_sentence_starts"))
        spec = GeneratorSpec(kind=generator, noise_std=10.0)
        gen = build_generator(spec, quality=QualityComputer(SemanticScorer(kind="external_command", command=command)))
        model = load_model(model_file)
        expected = [
            gen.generate(s, apply_offset(predict(model, s), Offset(0, 10, 10)), cluster)
            for cluster in corpus for s in cluster.sentences
        ]
        assert [p.target for p in read_pairs_tsv(out)] == expected

    def grid(self, corpus_file, model_file, tmp_path, generator, scorer, *extra):
        heat = tmp_path / f"heat_{generator}_{len(extra)}.csv"
        code = run(
            [
                "grid", "--clusters", corpus_file, "--model", model_file, "--grid", "0:25:50",
                "--generator", generator, *scorer, *extra, "--out", heat,
            ]
        )
        return code, heat

    @pytest.mark.parametrize("generator", ["identity", "retrieval_oracle", "noisy_oracle"])
    def test_grid_starts_at_most_one_process_plus_one_per_dev_item(
        self, corpus, corpus_file, model_file, tmp_path, generator
    ):
        # the std-unit batch holds every oracle candidate, so an oracle's
        # batches all hit the pair cache; identity outputs are scored per item
        count, scorer = self.scorer(tmp_path)
        code, heat = self.grid(corpus_file, model_file, tmp_path, generator, scorer, "--noise-std", "10")
        assert code == 0
        assert self.starts(count) == (1 + len(dev_items(corpus)) if generator == "identity" else 1)
        assert read_heatmap_csv(heat).n == [len(dev_items(corpus))] * 27

    def test_grid_nan_lowers_n_only_for_its_pair(self, corpus, corpus_file, model_file, tmp_path):
        # the last dev sentence has only words of its own, so only its identity pair scores nan
        items = dev_items(corpus)
        word = items[-1][0].split()[0]
        assert [word in s.split() for c in corpus for s in c.sentences].count(True) == 1
        _, scorer = self.scorer(tmp_path, "--nan-on", word)
        code, heat = self.grid(corpus_file, model_file, tmp_path, "identity", scorer)
        assert code == 0
        assert read_heatmap_csv(heat).n == [len(items) - 1] * 27
        _, scorer = self.scorer(tmp_path)
        code, without = self.grid(
            corpus_file, model_file, tmp_path, "identity", scorer, "--max-dev-items", len(items) - 1
        )
        assert code == 0
        assert heat.read_bytes() == without.read_bytes()

    def test_grid_crash_drops_its_item_at_every_offset(self, corpus, model_file, tmp_path):
        # a singleton cluster has no ground-truth pair, so its word reaches the
        # scorer only in its own dev item's batch, which the crash fails whole
        lone = Cluster("lone", ["zebra quartz"], trees=["(S (NN zebra) (NN quartz))"])
        clusters = tmp_path / "with_lone.jsonl"
        save_clusters([*corpus, lone], clusters)
        n_dev = len(dev_items([*corpus, lone]))
        _, scorer = self.scorer(tmp_path)
        code, heat = self.grid(clusters, model_file, tmp_path, "identity", scorer)
        assert code == 0
        assert read_heatmap_csv(heat).n == [n_dev] * 27
        count, scorer = self.scorer(tmp_path, "--exit-on", "zebra", name="exit_starts")
        code, heat = self.grid(clusters, model_file, tmp_path, "identity", scorer)
        assert code == 0
        assert read_heatmap_csv(heat).n == [n_dev - 1] * 27
        assert self.starts(count) <= 1 + n_dev


class TestConfig:
    def test_config_supplies_defaults_flags_win(self, corpus_file, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"clusters={corpus_file}\nsizes=6,6,6\nseed=3\nout={tmp_path / 'cfg_out'}\n",
            encoding="utf-8",
        )
        assert run(["split", "--config", config]) == 0
        assert (tmp_path / "cfg_out" / "train.tsv").exists()
        # flag overrides the config's out directory
        assert run(["split", "--config", config, "--out", tmp_path / "flag_out"]) == 0
        assert (tmp_path / "flag_out" / "train.tsv").exists()

    def test_malformed_config_line(self, corpus_file, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("no equals sign here\n", encoding="utf-8")
        assert run(["split", "--config", config, "--sizes", "1,1,1"]) == 4

    def test_config_supplies_required_options(self, corpus_file, model_file, tmp_path):
        by_flags = tmp_path / "flags.tsv"
        assert run(
            [
                "generate", "--clusters", corpus_file, "--model", model_file,
                "--generator", "retrieval_oracle", "--offset", "0,10,10", "--out", by_flags,
            ]
        ) == 0
        config = tmp_path / "run.cfg"
        config.write_text(
            f"clusters={corpus_file}\nmodel={model_file}\ngenerator=retrieval_oracle\noffset=0,10,10\n",
            encoding="utf-8",
        )
        by_config = tmp_path / "config.tsv"
        assert run(["generate", "--config", config, "--out", by_config]) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()

    def test_config_keys_are_dests_converted_by_type(self, scored_file, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("lam=2.5\n", encoding="utf-8")
        assert run(["train-qp", "--config", config, "--pairs", scored_file, "--out", tmp_path / "m.json"]) == 0
        assert load_model(tmp_path / "m.json").lam == 2.5
        assert run(
            ["train-qp", "--config", config, "--pairs", scored_file, "--lambda", "4", "--out", tmp_path / "f.json"]
        ) == 0
        assert load_model(tmp_path / "f.json").lam == 4.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["split", "--clusters", "c.jsonl"],
            ["split", "--sizes", "1,1,1"],
            ["grid", "--clusters", "c.jsonl"],
            ["generate", "--model", "m.json"],
            ["predict-qp", "--sentences", "s.txt"],
            ["select", "--heatmap", "h.csv"],
        ],
    )
    def test_missing_required_option_exit_2(self, argv):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2

    def test_unconvertible_config_value_exit_5(self, corpus_file, tmp_path, caplog):
        config = tmp_path / "bad.cfg"
        config.write_text("seed=abc\n", encoding="utf-8")
        argv = ["split", "--config", config, "--clusters", corpus_file, "--sizes", "1,1,1", "--out", tmp_path / "z"]
        assert run(argv) == 5
        assert "seed='abc'" in caplog.text and str(config) in caplog.text

    @pytest.mark.parametrize("sizes", ["0,0,0", "1,1,1"])
    def test_config_value_outside_choices_exit_5(self, corpus_file, tmp_path, caplog, sizes):
        config = tmp_path / "bad.cfg"
        config.write_text("mode=bogus\n", encoding="utf-8")
        argv = ["split", "--config", config, "--clusters", corpus_file, "--sizes", sizes, "--out", tmp_path / "z"]
        assert run(argv) == 5
        assert not (tmp_path / "z").exists()
        assert "mode='bogus'" in caplog.text and str(config) in caplog.text
        assert all(mode in caplog.text for mode in ("all_ordered", "all_unordered", "star_first"))

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("builtin", "builtin_trigram"),
            ("builtin_trigram", "builtin_trigram"),
            ("external", "external_command"),
            ("external_command", "external_command"),
        ],
    )
    def test_scorer_spellings(self, name, kind):
        args = _build_parser().parse_args(["score", "--pairs", "p.tsv", "--scorer", name, "--scorer-command", "x"])
        assert _scorer_from(args).kind == kind

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("external", "external_command"),
            ("external_command", "external_command"),
            ("identity", "identity"),
            ("retrieval_oracle", "retrieval_oracle"),
            ("noisy_oracle", "noisy_oracle"),
        ],
    )
    def test_generator_spellings(self, name, kind):
        argv = ["grid", "--clusters", "c.jsonl", "--model", "m.json", "--generator", name]
        args = _build_parser().parse_args([*argv, "--generator-command", "x", "--noise-std", "1"])
        assert _generator_from(args).kind == kind

    def test_keys_of_options_a_command_lacks_are_ignored(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed=\nscorer=bogus\nmode=bogus\ngenerator=bogus\n", encoding="utf-8")
        heat = tmp_path / "heat.csv"
        heat.write_text(HEATMAP_HEADER + ZERO_ROW, encoding="utf-8")
        argv = ["select", "--config", config, "--heatmap", heat, "--baseline-sem", "20"]
        assert run([*argv, "--out", tmp_path / "op.json"]) == 0
        assert json.loads((tmp_path / "op.json").read_text(encoding="utf-8"))["offset"] == {"sem": 0, "syn": 0, "lex": 0}

    def test_system_stays_flag_only(self, corpus_file, model_file, tmp_path):
        gen_id = tmp_path / "identity.tsv"
        assert run(["generate", "--clusters", corpus_file, "--model", model_file, "--out", gen_id]) == 0
        config = tmp_path / "run.cfg"
        config.write_text(f"system=other={gen_id}\n", encoding="utf-8")
        report = tmp_path / "report.tsv"
        assert run(["eval", "--config", config, "--system", f"copy={gen_id}", "--out", report]) == 0
        assert [line.split("\t")[0] for line in report.read_text(encoding="utf-8").splitlines()] == ["system", "copy"]
        with pytest.raises(SystemExit) as info:
            run(["eval", "--config", config, "--out", report])
        assert info.value.code == 2


OPTION_DESTS = {
    "score": {"config", "out", "scorer", "scorer_command", "pairs", "source_trees", "target_trees"},
    "split": {"config", "out", "seed", "clusters", "sizes", "mode"},
    "train-qp": {"config", "out", "pairs", "dev", "lam"},
    "predict-qp": {"config", "out", "model", "sentences"},
    "grid": {
        "config", "out", "seed", "scorer", "scorer_command", "clusters", "model", "generator",
        "generator_command", "noise_std", "grid", "per_cluster", "max_dev_items",
    },
    "select": {"config", "out", "heatmap", "baseline_sem", "margin"},
    "generate": {
        "config", "out", "seed", "scorer", "scorer_command", "clusters", "model", "generator",
        "generator_command", "noise_std", "offset", "operation_point",
    },
    "eval": {"config", "out", "scorer", "scorer_command", "system", "references"},
}


class TestOptions:
    def test_each_command_declares_only_the_options_it_reads(self):
        [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {
            name: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
            for name, p in sub.choices.items()
        }
        assert dests == OPTION_DESTS
        assert sum(map(len, OPTION_DESTS.values())) == 58

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--heatmap", "h.csv", "--baseline-sem", "20", "--seed", "1"],
            ["select", "--heatmap", "h.csv", "--baseline-sem", "20", "--scorer", "external"],
            ["score", "--pairs", "p.tsv", "--seed", "1"],
            ["split", "--clusters", "c.jsonl", "--sizes", "1,1,1", "--scorer-command", "x"],
            ["train-qp", "--pairs", "s.tsv", "--seed", "1"],
            ["predict-qp", "--model", "m.json", "--sentences", "s.txt", "--scorer", "builtin"],
            ["eval", "--system", "a=b.tsv", "--seed", "1"],
        ],
    )
    def test_an_option_a_command_does_not_read_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2

    def test_system_without_a_name_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["eval", "--system", "foo", "--out", tmp_path / "report.tsv"])
        assert info.value.code == 2


EXIT_CODES = {
    "QcpgError": 5,
    "TreeSyntaxError": 4,
    "UnbalancedParens": 4,
    "EmptyLabel": 4,
    "TrailingInput": 4,
    "SpawnFailure": 3,
    "ProtocolError": 4,
    "NonFiniteValue": 5,
    "MalformedControlPrefix": 4,
    "MalformedRecord": 4,
    "TreeLengthMismatch": 4,
    "InsufficientData": 5,
    "DegenerateDesign": 5,
    "EmptyEvalSet": 5,
    "ModelFormatError": 4,
    "EmptyContext": 5,
    "MissingTree": 5,
    "AllGenerationsFailed": 5,
    "MissingZeroPoint": 5,
    "NoFeasibleOffset": 6,
    "LengthMismatch": 5,
    "AllTied": 5,
}


class TestExitCodes:
    @staticmethod
    def error_classes(cls=errors.QcpgError):
        yield cls
        for sub in cls.__subclasses__():
            yield from TestExitCodes.error_classes(sub)

    def test_every_error_class_declares_its_exit_code(self):
        found = [cls for cls in self.error_classes() if cls.__module__ == errors.__name__]
        assert {cls.__name__: cls.exit_code for cls in found} == EXIT_CODES
        for cls in found:
            assert _exit_code_for(cls.__new__(cls)) == EXIT_CODES[cls.__name__]

    def test_exceptions_outside_the_hierarchy(self):
        assert _exit_code_for(FileNotFoundError("x")) == 3
        assert _exit_code_for(UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad")) == 5
        assert _exit_code_for(KeyError("x")) == 1


HEATMAP_HEADER = "o_sem,o_syn,o_lex,q_sem,q_syn,q_lex,r_sem,r_syn,r_lex,diversity,n\n"
ZERO_ROW = "0.0000,0.0000,0.0000,50.0000,10.0000,10.0000,0.0000,0.0000,0.0000,10.0000,4\n"
OUT_OF_RANGE_HEATMAPS = [
    HEATMAP_HEADER + ZERO_ROW.replace("50.0000", "150.0000"),
    HEATMAP_HEADER + ZERO_ROW.replace("50.0000", "nan"),
    HEATMAP_HEADER + ZERO_ROW.replace("0.0000", "inf", 1),
    HEATMAP_HEADER + ZERO_ROW.replace(",10.0000,4", ",nan,4"),
]
OUT_OF_RANGE_IDS = ["quality_above_100", "nan_quality", "inf_offset", "nan_diversity"]


class TestMalformedInputs:
    def select(self, tmp_path, text):
        heat = tmp_path / "heat.csv"
        heat.write_text(text, encoding="utf-8")
        return run(["select", "--heatmap", heat, "--baseline-sem", "20"])

    def test_heatmap_is_well_formed(self, tmp_path):
        assert self.select(tmp_path, HEATMAP_HEADER + ZERO_ROW) == 0

    @pytest.mark.parametrize(
        "text",
        [
            "a,b,c\n" + ZERO_ROW,
            HEATMAP_HEADER + ZERO_ROW.rsplit(",", 1)[0] + "\n",
            HEATMAP_HEADER + ZERO_ROW.replace("50.0000", "high"),
            HEATMAP_HEADER + ZERO_ROW.replace(",4\n", ",four\n"),
            *OUT_OF_RANGE_HEATMAPS,
        ],
        ids=["bad_header", "row_without_n", "non_numeric_quality", "non_numeric_n", *OUT_OF_RANGE_IDS],
    )
    def test_malformed_heatmap_exit_4(self, tmp_path, text):
        assert self.select(tmp_path, text) == 4

    @pytest.mark.parametrize("text", OUT_OF_RANGE_HEATMAPS, ids=OUT_OF_RANGE_IDS)
    def test_out_of_range_heatmap_value_names_its_line(self, tmp_path, text):
        heat = tmp_path / "heat.csv"
        heat.write_text(text, encoding="utf-8")
        with pytest.raises(errors.MalformedRecord) as info:
            read_heatmap_csv(heat)
        assert info.value.line == 2

    def test_malformed_heatmap_names_its_line(self, tmp_path):
        heat = tmp_path / "heat.csv"
        heat.write_text(HEATMAP_HEADER + ZERO_ROW + "\n" + ZERO_ROW.replace("0.0000,", "x,", 1), encoding="utf-8")
        with pytest.raises(errors.MalformedRecord) as info:
            read_heatmap_csv(heat)
        assert info.value.line == 4

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            '{"expected": {"sem": 0, "syn": 0, "lex": 0}}',
            '{"offset": {"sem": 0, "syn": 0, "lex": 0, "extra": 1}}',
            '{"offset": {"sem": 0, "syn": 0}}',
            '{"offset": {"sem": "0", "syn": 0, "lex": 0}}',
            '[{"offset": {"sem": 0, "syn": 0, "lex": 0}}]',
            '{"offset": {"sem": NaN, "syn": 0, "lex": 0}}',
            '{"offset": {"sem": 0, "syn": Infinity, "lex": 0}}',
            '{"offset": {"sem": 0, "syn": 0, "lex": 1%s}}' % ("0" * 400),
        ],
        ids=[
            "not_json", "no_offset", "unknown_key", "missing_lex", "string_value", "not_an_object",
            "nan_value", "infinite_value", "overflowing_value",
        ],
    )
    def test_malformed_operation_point_exit_4(self, corpus_file, model_file, tmp_path, text):
        point = tmp_path / "op.json"
        point.write_text(text, encoding="utf-8")
        argv = ["generate", "--clusters", corpus_file, "--model", model_file, "--operation-point", point]
        assert run([*argv, "--out", tmp_path / "generated.tsv"]) == 4
        assert not (tmp_path / "generated.tsv").exists()

    @pytest.mark.parametrize("spec", ["0:5:inf", "nan:5:50", "0:inf:50"])
    def test_non_finite_grid_spec_exit_5(self, corpus_file, model_file, tmp_path, spec):
        heat = tmp_path / "heat.csv"
        argv = ["grid", "--clusters", corpus_file, "--model", model_file, "--grid", spec, "--out", heat]
        assert run(argv) == 5
        assert not heat.exists()

    def test_operation_point_from_select(self, corpus_file, model_file, tmp_path):
        point = tmp_path / "op.json"
        point.write_text('{"offset": {"sem": 0.0, "syn": 10.0, "lex": 10}, "diversity": 1}', encoding="utf-8")
        by_point, by_offset = tmp_path / "point.tsv", tmp_path / "offset.tsv"
        argv = ["generate", "--clusters", corpus_file, "--model", model_file, "--generator", "retrieval_oracle"]
        assert run([*argv, "--operation-point", point, "--out", by_point]) == 0
        assert run([*argv, "--offset", "0,10,10", "--out", by_offset]) == 0
        assert by_point.read_bytes() == by_offset.read_bytes()


class TestNonFiniteOptionValues:
    """A NaN or infinite option value exits 5 before any output is written."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--baseline-sem", "nan"],
            ["--baseline-sem=-inf"],
            ["--baseline-sem", "20", "--margin", "nan"],
            ["--baseline-sem", "99", "--margin", "nan"],
            ["--baseline-sem", "20", "--margin", "inf"],
        ],
    )
    def test_select(self, tmp_path, flags):
        heat, out = tmp_path / "heat.csv", tmp_path / "op.json"
        heat.write_text(HEATMAP_HEADER + ZERO_ROW, encoding="utf-8")
        assert run(["select", "--heatmap", heat, *flags, "--out", out]) == 5
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_grid_noise_std(self, corpus_file, model_file, tmp_path, value):
        heat = tmp_path / "heat.csv"
        argv = ["grid", "--clusters", corpus_file, "--model", model_file, "--generator", "noisy_oracle"]
        assert run([*argv, "--noise-std", value, "--grid", "0:50:50", "--out", heat]) == 5
        assert not heat.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_train_qp_lambda(self, scored_file, tmp_path, value):
        model = tmp_path / "model.json"
        assert run(["train-qp", "--pairs", scored_file, "--lambda", value, "--out", model]) == 5
        assert not model.exists()

    def test_config_value(self, tmp_path, caplog):
        heat, config, out = tmp_path / "heat.csv", tmp_path / "run.cfg", tmp_path / "op.json"
        heat.write_text(HEATMAP_HEADER + ZERO_ROW, encoding="utf-8")
        config.write_text("margin=nan\n", encoding="utf-8")
        assert run(["select", "--config", config, "--heatmap", heat, "--baseline-sem", "20", "--out", out]) == 5
        assert not out.exists() and "finite" in caplog.text
