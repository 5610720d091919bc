import argparse
import json
import logging
import math
import os
import shlex
import subprocess
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
    load_clusters,
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
from qcpg_kit import cli, errors, quality, selection
from qcpg_kit.cli import _build_parser, _exit_code_for, _generator_from, _read_scored_tsv, _scorer_from, main
from qcpg_kit.generators import build_generator

from helpers import BAD_MODEL_NUMBERS, NOT_MODEL_NUMBERS, with_bad_number
from test_readme import COMMANDS
from stub_counting_scorer import raw_score as stub_raw

IDENTITY_SEM = 100.0 / (1.0 + math.exp(-2.0))
SCORED_HEADER = "source\ttarget\tcluster_id\tsource_tree\ttarget_tree\tq_sem\tq_syn\tq_lex\n"


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


def package_env(**extra) -> dict[str, str]:
    """The environment for a Python subprocess that imports this package, plus ``extra``."""
    package_root = str(Path(errors.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


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
        assert out.read_text(encoding="utf-8") == SCORED_HEADER

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

    def test_a_split_that_cannot_be_written_writes_none(self, corpus_file, tmp_path, monkeypatch):
        # the third TSV fails to build: train.tsv and dev.tsv are not written either
        built, original = [], cli.pairs_tsv

        def pairs_tsv(pairs):
            built.append(pairs)
            if len(built) == 3:
                raise ValueError("a row that would not read back")
            return original(pairs)

        monkeypatch.setattr(cli, "pairs_tsv", pairs_tsv)
        out = tmp_path / "splits"
        assert run(["split", "--clusters", corpus_file, "--sizes", "6,6,6", "--out", out]) == 5
        assert len(built) == 3 and not out.exists()

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

    @pytest.mark.parametrize("existing", [True, False], ids=["existing_model", "no_model"])
    @pytest.mark.parametrize("dev, code", [("bad_quality", 4), ("header_only", 5)])
    def test_bad_dev_file_fails_before_the_model_is_written(self, scored_file, tmp_path, existing, dev, code):
        bad = tmp_path / "dev.tsv"
        header, first, *rest = scored_file.read_text(encoding="utf-8").split("\n")
        fields = first.split("\t")
        fields[header.split("\t").index("q_sem")] = "x"
        rows = ["\t".join(fields), *rest] if dev == "bad_quality" else []
        bad.write_text("\n".join([header, *rows]), encoding="utf-8")
        model = tmp_path / "qp.json"
        if existing:
            model.write_bytes(b"the model of an earlier run\n")
        before = sorted(os.listdir(tmp_path))
        assert run(["train-qp", "--pairs", scored_file, "--dev", bad, "--out", model]) == code
        assert sorted(os.listdir(tmp_path)) == before
        if existing:
            assert model.read_bytes() == b"the model of an earlier run\n"

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

    @pytest.mark.parametrize("key, value", [*BAD_MODEL_NUMBERS.values(), *NOT_MODEL_NUMBERS.values()],
                             ids=[*BAD_MODEL_NUMBERS, *NOT_MODEL_NUMBERS])
    def test_model_with_a_bad_number_exit_4(self, model_file, tmp_path, key, value):
        bad = tmp_path / "bad.json"
        payload = with_bad_number(json.loads(model_file.read_text(encoding="utf-8")), key, value)
        bad.write_text(json.dumps(payload), encoding="utf-8")
        sentences, out = tmp_path / "s.txt", tmp_path / "p.tsv"
        sentences.write_text("hello there\n", encoding="utf-8")
        assert run(["predict-qp", "--model", bad, "--sentences", sentences, "--out", out]) == 4
        assert not out.exists()

    def test_tab_in_a_sentence_exit_4(self, model_file, tmp_path, caplog):
        sentences, out = tmp_path / "s.txt", tmp_path / "p.tsv"
        sentences.write_text("fine\na\tb c\n", encoding="utf-8")
        assert run(["predict-qp", "--model", model_file, "--sentences", sentences, "--out", out]) == 4
        assert not out.exists() and "line 2" in caplog.text

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

    @pytest.mark.parametrize("kind", ["identity", "retrieval_oracle", "noisy_oracle"])
    def test_generate_matches_per_request_reference(self, corpus, model_file, tmp_path, kind):
        # the one-offset counterpart of the grid's per-request reference, over a cluster without trees too
        clusters = [*corpus, Cluster("bare", ["zebra quartz ran", "the quartz zebra ran"])]
        path, out, expected = tmp_path / "clusters.jsonl", tmp_path / "generated.tsv", tmp_path / "expected.tsv"
        save_clusters(clusters, path)
        assert run(
            [
                "generate", "--clusters", path, "--model", model_file, "--generator", kind,
                "--noise-std", "10", "--seed", "7", "--offset", "5,10,15", "--out", out,
            ]
        ) == 0
        generator = build_generator(GeneratorSpec(kind=kind, noise_std=10.0, seed=7), QualityComputer())
        model = load_model(model_file)
        rows = []
        for cluster in clusters:
            for s in cluster.sentences:
                try:
                    t = generator.generate(s, apply_offset(predict(model, s), Offset(5, 10, 15)), cluster)
                except errors.QcpgError:
                    continue
                rows.append(SentencePair(s, t, cluster.cluster_id, cluster.tree_of(s), cluster.tree_of(t)))
        write_pairs_tsv(rows, expected)
        assert out.read_bytes() == expected.read_bytes()
        # the identity copies the tree-less cluster's sentences without trees; the oracles skip them
        assert [row.cluster_id for row in rows].count("bare") == (2 if kind == "identity" else 0)

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
        lib = evaluate_systems([("copy", [(p.source, p.target, p.source_tree, p.target_tree) for p in pairs])])
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

    @pytest.mark.parametrize("name", ["a\tb", "a\nb"], ids=["tab", "newline"])
    def test_system_name_that_is_not_one_field_exit_5(self, tmp_path, name):
        tree = "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"
        system = tmp_path / "system.tsv"
        write_pairs_tsv([SentencePair("the cat sat", "the cat sat", "c0", tree, tree)], system)
        report = tmp_path / "report.tsv"
        starts = tmp_path / "scorer_starts"
        scorer = ["--scorer", "external", "--scorer-command", f"{sys.executable} {COUNTING_SCORER} {starts}"]
        assert run(["eval", "--system", f"ok={system}", *scorer, "--system", f"{name}={system}", "--out", report]) == 5
        assert not report.exists()
        assert not starts.exists()  # the name is checked before any scoring


COUNTING_STUB = Path(__file__).with_name("stub_counting_generator.py")
ECHO_LINES_STUB = Path(__file__).with_name("stub_echo_lines.py")


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

    def test_grid_spawns_one_process(self, corpus, corpus_file, model_file, tmp_path):
        # every dev item's distinct controls fit in one chunk
        assert len(dev_items(corpus)) * 27 <= selection.MAX_BATCH_REQUESTS
        count, command = self.stub(tmp_path)
        code, result = self.grid(corpus_file, model_file, tmp_path, command)
        assert code == 0
        assert len(count.read_text(encoding="utf-8").splitlines()) == 1
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

    @pytest.mark.parametrize("bound", [1, 2])
    def test_generate_sends_chunks_of_the_bound(self, corpus, corpus_file, model_file, tmp_path, monkeypatch, bound):
        argv = ["generate", "--clusters", corpus_file, "--model", model_file, "--offset", "10,10,10"]
        whole = tmp_path / "whole.tsv"
        assert run([*argv, "--generator", "identity", "--out", whole]) == 0
        monkeypatch.setattr(selection, "MAX_BATCH_REQUESTS", bound)
        count, command = self.stub(tmp_path)
        out = tmp_path / "generated.tsv"
        assert run([*argv, "--generator", "external", "--generator-command", command, "--out", out]) == 0
        sentences = sum(len(c.sentences) for c in corpus)
        assert len(count.read_text(encoding="utf-8").splitlines()) == -(-sentences // bound)
        # the echoing stub answers as the identity generator does
        assert out.read_bytes() == whole.read_bytes()

    def test_empty_line_fails_only_its_offsets(self, corpus, corpus_file, model_file, tmp_path):
        # one sentence's request comes back empty wherever its lex control is 95
        word = corpus[0].sentences[0].split()[0]
        count, command = self.stub(tmp_path, "--empty-on", f"<lex_95>,{word}")
        code, result = self.grid(corpus_file, model_file, tmp_path, command)
        assert code == 0
        model = load_model(model_file)
        items = dev_items(corpus)
        expected = [
            sum(not (apply_offset(predict(model, s), o).lex == 95 and word in s.split()) for s, _ in items)
            for o in result.offsets
        ]
        assert result.n == expected
        assert min(expected) < len(items) == max(expected)
        assert len(count.read_text(encoding="utf-8").splitlines()) == 1

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

    def test_nonzero_exit_fails_the_items_batch(self, corpus, corpus_file, model_file, tmp_path, monkeypatch):
        # a bound of one request makes each dev item its own chunk
        monkeypatch.setattr(selection, "MAX_BATCH_REQUESTS", 1)
        word = corpus[0].sentences[0].split()[0]
        count, command = self.stub(tmp_path, "--exit-on", word)
        code, result = self.grid(corpus_file, model_file, tmp_path, command)
        assert code == 0
        survivors = sum(word not in s.split() for s, _ in dev_items(corpus))
        assert 0 < survivors < len(dev_items(corpus))
        assert all(n == survivors for n in result.n)
        assert len(count.read_text(encoding="utf-8").splitlines()) == len(dev_items(corpus))

    def test_all_generations_failed_leaves_the_old_heatmap(self, corpus, corpus_file, model_file, tmp_path):
        heat = tmp_path / "heat.csv"
        heat.write_bytes(b"the heatmap of an earlier run\n")
        word = corpus[0].sentences[0].split()[0]
        _, command = self.stub(tmp_path, "--exit-on", word)
        before = set(os.listdir(tmp_path))
        assert self.grid(corpus_file, model_file, tmp_path, command)[0] == 5
        assert heat.read_bytes() == b"the heatmap of an earlier run\n"
        assert set(os.listdir(tmp_path)) - before == {"starts"}

    def test_generate_exits_5_when_every_generation_fails(self, corpus, corpus_file, model_file, tmp_path, caplog):
        word = corpus[0].sentences[0].split()[0]
        _, command = self.stub(tmp_path, "--exit-on", word)
        out = tmp_path / "generated.tsv"
        argv = [
            "generate", "--clusters", corpus_file, "--model", model_file,
            "--generator", "external", "--generator-command", command, "--out", out,
        ]
        assert run(argv) == 5
        assert not out.exists()
        failed = [r for r in caplog.records if r.levelname == "WARNING" and "ProtocolError" in r.getMessage()]
        assert len(failed) == sum(len(c.sentences) for c in corpus)
        assert "AllGenerationsFailed" in caplog.text
        out.write_bytes(b"the generations of an earlier run\n")
        assert run(argv) == 5
        assert out.read_bytes() == b"the generations of an earlier run\n"

    def test_outputs_in_no_cluster_have_no_trees(self, corpus, corpus_file, model_file, tmp_path, caplog):
        # the echo stub answers with the whole request line, which no cluster holds
        out = tmp_path / "generated.tsv"
        assert run(
            [
                "generate", "--clusters", corpus_file, "--model", model_file, "--generator", "external",
                "--generator-command", f"{sys.executable} {ECHO_LINES_STUB}", "--out", out,
            ]
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == sum(len(c.sentences) for c in corpus)
        assert all(len(line.split("\t")) == 3 for line in lines)
        # one warning for the run, with the count, that eval will refuse the rows
        [warning] = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warning.startswith(f"{len(lines)} of {len(lines)} rows") and "MissingTree" in warning
        assert all(p.source_tree is None and p.target_tree is None for p in read_pairs_tsv(out))
        assert run(["eval", "--system", f"echo={out}", "--out", tmp_path / "report.tsv"]) == 5
        assert "MissingTree" in caplog.text
        assert not (tmp_path / "report.tsv").exists()

    @pytest.mark.parametrize("command", [" ", "\t \n"])
    def test_blank_generator_command_fails_before_inputs_are_read(self, tmp_path, command):
        missing = tmp_path / "missing"
        for cmd in ("grid", "generate"):
            argv = [cmd, "--clusters", missing, "--model", missing, "--out", tmp_path / "out"]
            # exit 5 for the option, not 3 for the missing input files
            assert run([*argv, "--generator", "external", "--generator-command", command]) == 5
        assert os.listdir(tmp_path) == []

    def test_nonzero_exit_fails_its_whole_chunk(self, corpus, corpus_file, model_file, tmp_path, caplog):
        # under the default bound every dev item is in the crashing chunk
        word = corpus[0].sentences[0].split()[0]
        count, command = self.stub(tmp_path, "--exit-on", word)
        code, _ = self.grid(corpus_file, model_file, tmp_path, command)
        assert code == 5
        assert "AllGenerationsFailed" in caplog.text
        assert len(count.read_text(encoding="utf-8").splitlines()) == 1

    def test_offsets_whose_every_generation_fails_are_dropped(self, tmp_path, caplog):
        # the chain.sh corpus and model; every control at o_lex = 100 quantizes to lex 95, which the stub
        # answers with an empty line, so those four offsets have no generation left
        clusters, model = tmp_path / "corpus.jsonl", tmp_path / "qp.json"
        save_clusters(paraphrase_corpus(12, 4, seed=0, length_jitter=3), clusters)
        assert run(["split", "--clusters", clusters, "--sizes", "30,6,6", "--out", tmp_path / "splits"]) == 0
        assert run(["score", "--pairs", tmp_path / "splits/train.tsv", "--out", tmp_path / "scored.tsv"]) == 0
        assert run(["train-qp", "--pairs", tmp_path / "scored.tsv", "--out", model]) == 0
        _, command = self.stub(tmp_path, "--empty-on", "<lex_95>")
        heat = tmp_path / "heat.csv"
        argv = ["grid", "--clusters", clusters, "--model", model, "--grid", "0:100:100"]
        assert run([*argv, "--generator", "external", "--generator-command", command, "--out", heat]) == 0
        dropped = [Offset(sem, syn, 100.0) for sem in (0.0, 100.0) for syn in (0.0, 100.0)]
        warnings = [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()]
        assert warnings == [f"offset {o.as_tuple()} dropped: all generations failed" for o in dropped]
        result = read_heatmap_csv(heat)
        assert result.offsets == [Offset(sem, syn, 0.0) for sem in (0.0, 100.0) for syn in (0.0, 100.0)]
        assert result.n == [48] * 4
        spec = GeneratorSpec(kind="external_command", command=command)
        items = dev_items(load_clusters(clusters))
        assert grid_search(spec, load_model(model), items, grid=default_grid(0, 100, 100)).dropped == dropped


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

    def test_score_sends_slices_of_the_bound(self, corpus, tmp_path, monkeypatch):
        pairs = extract_pairs(corpus)
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(pairs, path)
        count, scorer = self.scorer(tmp_path, name="whole_starts")
        whole = tmp_path / "whole.tsv"
        assert run(["score", "--pairs", path, *scorer, "--out", whole]) == 0
        assert self.starts(count) == 1
        monkeypatch.setattr(quality, "MAX_BATCH_REQUESTS", 7)
        count, scorer = self.scorer(tmp_path)
        out = tmp_path / "scored.tsv"
        assert run(["score", "--pairs", path, *scorer, "--out", out]) == 0
        distinct = len({(p.source, p.target, p.source_tree, p.target_tree) for p in pairs})
        assert self.starts(count) == -(-distinct // 7) > 1
        assert out.read_bytes() == whole.read_bytes()

    def test_score_without_parses_starts_none(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a b\tb a\tc0\nx y\ty x\tc1\n", encoding="utf-8")
        count, scorer = self.scorer(tmp_path)
        out = tmp_path / "scored.tsv"
        assert run(["score", "--pairs", path, *scorer, "--out", out]) == 0
        assert self.starts(count) == 0
        assert out.read_text(encoding="utf-8") == SCORED_HEADER

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

    def test_a_command_naming_no_program(self, corpus, tmp_path):
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(extract_pairs(corpus), path)
        out = tmp_path / "scored.tsv"
        # a blank command is refused with the options (exit 5), before the missing pairs file is read (exit 3)
        for pairs in (path, tmp_path / "missing.tsv"):
            assert run(["score", "--pairs", pairs, "--scorer", "external", "--scorer-command", " ", "--out", out]) == 5
        # a command shlex cannot split fails to spawn, as a missing program does
        for command in ('"abc', "python 'x"):
            assert run(["score", "--pairs", path, "--scorer", "external", "--scorer-command", command, "--out", out]) == 3
        assert not out.exists()

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
        # every dev item fits in one chunk, whose identity outputs or
        # oracle candidates are scored in one batch
        assert len(dev_items(corpus)) * 27 <= selection.MAX_BATCH_REQUESTS
        count, scorer = self.scorer(tmp_path)
        code, heat = self.grid(corpus_file, model_file, tmp_path, generator, scorer, "--noise-std", "10")
        assert code == 0
        assert self.starts(count) == 1
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

    @pytest.fixture()
    def with_lone(self, corpus, tmp_path):
        """The corpus plus a singleton cluster, which has no ground-truth pair: its
        word reaches the scorer only in the batch of its own dev item's chunk."""
        lone = Cluster("lone", ["zebra quartz"], trees=["(S (NN zebra) (NN quartz))"])
        clusters = tmp_path / "with_lone.jsonl"
        save_clusters([*corpus, lone], clusters)
        return clusters, len(dev_items([*corpus, lone]))

    def test_grid_crash_drops_its_item_at_every_offset(self, with_lone, model_file, tmp_path, monkeypatch):
        # a bound of one request makes each dev item its own chunk
        monkeypatch.setattr(selection, "MAX_BATCH_REQUESTS", 1)
        clusters, n_dev = with_lone
        _, scorer = self.scorer(tmp_path)
        code, heat = self.grid(clusters, model_file, tmp_path, "identity", scorer)
        assert code == 0
        assert read_heatmap_csv(heat).n == [n_dev] * 27
        count, scorer = self.scorer(tmp_path, "--exit-on", "zebra", name="exit_starts")
        code, heat = self.grid(clusters, model_file, tmp_path, "identity", scorer)
        assert code == 0
        assert read_heatmap_csv(heat).n == [n_dev - 1] * 27
        assert self.starts(count) == n_dev

    def test_grid_crash_fails_its_whole_chunk(self, with_lone, model_file, tmp_path, caplog):
        # under the default bound every dev item is in the crashing chunk
        clusters, _ = with_lone
        count, scorer = self.scorer(tmp_path, "--exit-on", "zebra")
        code, _ = self.grid(clusters, model_file, tmp_path, "identity", scorer)
        assert code == 5
        assert "AllGenerationsFailed" in caplog.text
        assert self.starts(count) == 1


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

    def test_leading_bom_dropped(self, corpus_file, tmp_path):
        # the first key, required or not, survives a BOM
        by_flags = tmp_path / "flags"
        assert run(["split", "--clusters", corpus_file, "--sizes", "6,6,6", "--seed", "3", "--out", by_flags]) == 0
        config = tmp_path / "bom.cfg"
        config.write_text(f"\ufeffseed=3\nclusters={corpus_file}\n", encoding="utf-8")
        by_config = tmp_path / "config"
        assert run(["split", "--config", config, "--sizes", "6,6,6", "--out", by_config]) == 0
        for name in ("train", "dev", "test"):
            assert (by_config / f"{name}.tsv").read_bytes() == (by_flags / f"{name}.tsv").read_bytes()
        config.write_text(f"\ufeffsizes=6,6,6\nclusters={corpus_file}\n", encoding="utf-8")
        assert run(["split", "--config", config, "--out", tmp_path / "sizes"]) == 0

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
        "argv",
        [
            ["--config", "MISSING", "score", "--pairs", "p.tsv"],
            ["--config", "BOGUS", "score", "--pairs", "p.tsv"],
            ["nosuch", "--config", "MISSING"],
        ],
    )
    def test_config_before_the_command_or_with_an_unknown_one_is_a_usage_error_unread(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        bogus = tmp_path / "bogus.cfg"
        bogus.write_text("scorer=bogus\n", encoding="utf-8")
        paths = {"MISSING": str(tmp_path / "nonexistent.cfg"), "BOGUS": str(bogus)}
        opened = []
        read_lines = cli.read_lines
        monkeypatch.setattr(cli, "read_lines", lambda path: opened.append(path) or read_lines(path))
        with pytest.raises(SystemExit) as info:
            main([paths.get(a, a) for a in argv])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qcpg-kit ") and "qcpg-kit: error: " in err
        assert opened == []
        # after a valid command the same config is read
        assert main(["score", "--config", str(bogus), "--pairs", "p.tsv"]) == 5
        assert opened == [str(bogus)]

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


def option_dests(parser) -> dict[str, set[str]]:
    """The option dests of each subparser the parser registers, in registration order."""
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
        for name, p in sub.choices.items()
    }


class TestOptions:
    def test_each_command_declares_only_the_options_it_reads(self):
        assert option_dests(_build_parser()) == OPTION_DESTS
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


def chain_lines() -> list[list[str]]:
    """The arguments of each ``qcpg-kit`` line of ``tests/chain.sh``, continuations joined."""
    text = Path(__file__).with_name("chain.sh").read_text(encoding="utf-8").replace("\\\n", " ")
    return [argv[1:] for argv in map(shlex.split, text.splitlines()) if argv[:1] == ["qcpg-kit"]]


# stdout, stderr and exit code of command lines, captured with every subparser built
# (COLUMNS=80, Python 3.11); CONFIG stands for the path of a config file holding `mode=bogus`
CLI_TEXTS = json.loads(Path(__file__).with_name("cli_texts.json").read_text(encoding="utf-8"))


def cli_texts(argv, capsys, caplog) -> dict:
    """What ``main(argv)`` prints and exits with; log records are rendered as the CLI's stderr handler would."""
    caplog.clear()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    err += "".join(f"{r.levelname} {r.getMessage()}\n" for r in caplog.records)
    return {"code": code, "stdout": out, "stderr": err}


class TestOneSubparser:
    @pytest.mark.parametrize("command", OPTION_DESTS)
    def test_a_chosen_command_builds_only_its_own_subparser(self, command):
        assert option_dests(_build_parser(None, command)) == {command: OPTION_DESTS[command]}

    @pytest.mark.parametrize("command", [None, "nosuch"])
    def test_without_a_valid_command_every_subparser_is_built(self, command):
        assert option_dests(_build_parser(None, command)) == OPTION_DESTS

    @pytest.mark.parametrize("argv", COMMANDS + chain_lines(), ids=" ".join)
    def test_documented_lines_parse_alike_with_one_subparser_or_all(self, argv):
        assert _build_parser(None, argv[0]).parse_args(argv) == _build_parser().parse_args(argv)

    @pytest.fixture()
    def config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode=bogus\n", encoding="utf-8")
        return str(path)

    @staticmethod
    def assert_pinned(texts, case, config_file):
        assert {k: v.replace(config_file, "CONFIG") if isinstance(v, str) else v for k, v in texts.items()} == {
            k: case[k] for k in ("code", "stdout", "stderr")
        }

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="texts captured with the argparse of Python 3.11")
    @pytest.mark.parametrize("case", CLI_TEXTS, ids=lambda case: " ".join(case["argv"]) or "no-arguments")
    def test_help_and_usage_texts_are_pinned(self, case, config_file, capsys, caplog, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        caplog.set_level(logging.INFO)
        argv = [config_file if a == "CONFIG" else a for a in case["argv"]]
        self.assert_pinned(cli_texts(argv, capsys, caplog), case, config_file)

    @pytest.mark.parametrize("case", CLI_TEXTS, ids=lambda case: " ".join(case["argv"]) or "no-arguments")
    def test_texts_equal_those_with_every_subparser_built(self, case, config_file, capsys, caplog, monkeypatch):
        # the version-independent check of the pins: the same line with all eight subparsers forced, so no config
        # read; a line whose config is read fails on it with the kit's own message, held to its pin on every Python
        caplog.set_level(logging.INFO)
        argv = [config_file if a == "CONFIG" else a for a in case["argv"]]
        texts = cli_texts(argv, capsys, caplog)
        if "--config" in argv[1:] and argv[0] in OPTION_DESTS:
            assert "usage:" not in texts["stderr"]
            self.assert_pinned(texts, case, config_file)
            return
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda config_path, chosen: build(None, None))
        assert cli_texts(argv, capsys, caplog) == texts


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


class TestProcessStart:
    def test_import_and_select_leave_scipy_unloaded(self, corpus, model_file, tmp_path):
        # the lexical distance has its own assignment solver: measuring one loads no scipy
        heat = tmp_path / "heat.csv"
        result = grid_search(GeneratorSpec(kind="identity"), load_model(model_file), dev_items(corpus), grid=[Offset()])
        export_heatmap_csv(result, heat)
        probe = (
            "import sys\n"
            "import qcpg_kit.cli\n"
            "print('scipy' in sys.modules)\n"
            "print(qcpg_kit.cli.main(sys.argv[1:]), 'scipy' in sys.modules)\n"
            "qcpg_kit.lexical.lexical_distance('a cat', 'the cats')\n"
            "print('scipy' in sys.modules)\n"
        )
        argv = ["select", "--heatmap", str(heat), "--baseline-sem", "0", "--out", str(tmp_path / "op.json")]
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=package_env())
        assert proc.stdout.splitlines() == ["False", "0 False", "False"], proc.stderr

    @pytest.mark.parametrize("command", ["score", "grid", "eval"])
    def test_commands_that_measure_lex_leave_scipy_unloaded(self, command, corpus, corpus_file, model_file, tmp_path):
        pairs, generated = tmp_path / "pairs.tsv", tmp_path / "generated.tsv"
        write_pairs_tsv(extract_pairs(corpus), pairs)
        oracle = ["--clusters", corpus_file, "--model", model_file, "--generator", "retrieval_oracle"]
        assert run(["generate", *oracle, "--offset", "10,10,10", "--out", generated]) == 0
        out = tmp_path / "out"
        argv = {
            "score": ["score", "--pairs", pairs, "--out", out],
            "grid": ["grid", *oracle, "--grid", "0:25:50", "--out", out],
            "eval": ["eval", "--system", f"ours={generated}", "--out", out],
        }[command]
        probe = "import sys\nimport qcpg_kit.cli\nprint(qcpg_kit.cli.main(sys.argv[1:]), 'scipy' in sys.modules)\n"
        argv = [sys.executable, "-c", probe, *map(str, argv)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=package_env())
        assert proc.stdout.splitlines() == ["0 False"], proc.stderr
        assert "lex" in out.read_text(encoding="utf-8").splitlines()[0]  # every output has a lex column

    @pytest.mark.parametrize("command", ["grid", "generate"])
    def test_noisy_oracle_leaves_numpy_ma_unloaded(self, command, corpus_file, model_file, tmp_path):
        # the Philox keys are grouped by word count without np.unique, which loads numpy.ma (numpy 2.4)
        noisy = ["--clusters", corpus_file, "--model", model_file, "--generator", "noisy_oracle", "--noise-std", "5"]
        argv = {
            "grid": ["grid", *noisy, "--grid", "0:25:50"],
            "generate": ["generate", *noisy, "--offset", "10,10,10"],
        }[command]
        probe = (
            "import sys\n"
            "import numpy, qcpg_kit.cli\n"
            "before = 'numpy.ma' in sys.modules\n"
            "print(qcpg_kit.cli.main(sys.argv[1:]), before or 'numpy.ma' not in sys.modules)\n"
        )
        argv = [sys.executable, "-c", probe, *map(str, argv), "--out", str(tmp_path / "out")]
        proc = subprocess.run(argv, capture_output=True, text=True, env=package_env())
        assert proc.stdout.splitlines() == ["0 True"], proc.stderr


class TestRerunAcrossProcesses:
    """The README's promise of byte-identical reruns, one process per command as a shell runs them."""

    OUTPUTS = [
        "splits/train.tsv", "splits/dev.tsv", "splits/test.tsv", "scored.tsv", "qp.json",
        "heatmap.csv", "op.json", "generated.tsv", "report.tsv",
    ]

    @staticmethod
    def chain(clusters, work, hash_seed):
        def kit(*argv):
            code = "import sys; from qcpg_kit.cli import main; sys.exit(main(sys.argv[1:]))"
            argv = [sys.executable, "-c", code, *map(str, argv)]
            proc = subprocess.run(argv, capture_output=True, text=True, env=package_env(PYTHONHASHSEED=hash_seed))
            assert proc.returncode == 0, proc.stderr

        generation = ["--clusters", clusters, "--model", work / "qp.json"]
        generation += ["--generator", "noisy_oracle", "--noise-std", "3", "--seed", "5"]
        kit("split", "--clusters", clusters, "--sizes", "30,6,6", "--out", work / "splits")
        kit("score", "--pairs", work / "splits/train.tsv", "--out", work / "scored.tsv")
        kit("train-qp", "--pairs", work / "scored.tsv", "--out", work / "qp.json")
        kit("grid", *generation, "--grid", "0:25:50", "--out", work / "heatmap.csv")
        kit("select", "--heatmap", work / "heatmap.csv", "--baseline-sem", "20", "--out", work / "op.json")
        kit("generate", *generation, "--operation-point", work / "op.json", "--out", work / "generated.tsv")
        kit("eval", "--system", f"ours={work / 'generated.tsv'}", "--out", work / "report.tsv")

    def test_seven_command_chain_is_byte_identical(self, tmp_path):
        clusters = tmp_path / "corpus.jsonl"
        save_clusters(paraphrase_corpus(12, 4, seed=0, length_jitter=3), clusters)
        works = [tmp_path / "hash1", tmp_path / "hash2"]
        for work, hash_seed in zip(works, ["1", "2"]):
            work.mkdir()
            self.chain(clusters, work, hash_seed)
            written = sorted(str(p.relative_to(work)) for p in work.rglob("*") if p.is_file())
            assert written == sorted(self.OUTPUTS)
        for name in self.OUTPUTS:
            assert (works[0] / name).read_bytes() == (works[1] / name).read_bytes(), name


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
    HEATMAP_HEADER + ZERO_ROW.replace(",4\n", ",0\n"),
    HEATMAP_HEADER + ZERO_ROW.replace(",4\n", ",-7\n"),
    HEATMAP_HEADER + ZERO_ROW.replace(",4\n", f",{2**63}\n"),
]
OUT_OF_RANGE_IDS = [
    "quality_above_100", "nan_quality", "inf_offset", "nan_diversity", "zero_n", "negative_n", "n_above_int64",
]


class TestMalformedInputs:
    def select(self, tmp_path, text):
        heat = tmp_path / "heat.csv"
        heat.write_text(text, encoding="utf-8")
        return run(["select", "--heatmap", heat, "--baseline-sem", "20"])

    def test_heatmap_is_well_formed(self, tmp_path):
        assert self.select(tmp_path, HEATMAP_HEADER + ZERO_ROW) == 0

    def test_heatmap_n_may_be_int64_max(self, tmp_path):
        # n is stored as int64: its largest value is read, one more is refused (OUT_OF_RANGE_HEATMAPS)
        assert self.select(tmp_path, HEATMAP_HEADER + ZERO_ROW.replace(",4\n", f",{2**63 - 1}\n")) == 0

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

    @pytest.mark.parametrize("flag", ["--per-cluster", "--max-dev-items"])
    def test_negative_dev_bound_exit_5(self, corpus_file, model_file, tmp_path, caplog, flag):
        heat = tmp_path / "heat.csv"
        argv = ["grid", "--clusters", corpus_file, "--model", model_file, "--grid", "0:50:50", flag, "-1"]
        assert run([*argv, "--out", heat]) == 5
        assert not heat.exists() and "-1" in caplog.text

    @pytest.mark.parametrize(
        "argv, text, code, message",
        [
            (["generate", "--clusters", "CORPUS", "--model", "MODEL", "--offset", "1,2"], None, 5,
             "offset must be sem,syn,lex, got '1,2'"),
            (["split", "--clusters", "CORPUS", "--sizes", "1,2"], None, 5, "--sizes must be train,dev,test pair counts"),
            # the = form: argparse reads a bare -1,1,1 as an option
            (["split", "--clusters", "CORPUS", "--sizes=-1,1,1"], None, 5, "split sizes must be non-negative"),
            (["train-qp", "--pairs", "INPUT"], "a\tb\tc\n", 4, "lacks source/q_sem/q_syn/q_lex columns (line 1)"),
            (["split", "--clusters", "INPUT", "--sizes", "1,1,1"], "[1]\n", 4, "record is not a JSON object (line 1)"),
            (["split", "--clusters", "INPUT", "--sizes", "1,1,1"], '{"cluster_id": "a", "sentences": ["x"], "trees": [1]}\n',
             4, "'trees' must be a list of strings (line 1)"),
            (["grid", "--clusters", "INPUT", "--model", "MODEL"], '{"cluster_id": "a", "sentences": ["x y", "y x"]}\n',
             5, "cluster 'a' has no trees"),
        ],
        ids=["offset_of_two", "sizes_of_two", "negative_size", "scored_tsv_without_q", "cluster_not_an_object",
             "number_in_trees", "grid_without_trees"],
    )
    def test_refused_input_exit_code_and_message(self, corpus_file, model_file, tmp_path, caplog, argv, text, code, message):
        given = tmp_path / "input"
        if text is not None:
            given.write_text(text, encoding="utf-8")
        paths = {"CORPUS": corpus_file, "MODEL": model_file, "INPUT": given}
        out = tmp_path / "out"
        assert run([*(paths.get(a, a) for a in argv), "--out", out]) == code
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("generator, n", [("identity", 4), ("retrieval_oracle", 3)])
    def test_malformed_dev_tree_fails_only_the_items_that_use_it(self, model_file, tmp_path, caplog, generator, n):
        # the last member's tree is malformed: identity never measures it, the
        # oracle's candidates for cluster 0's dev item include it
        clusters = paraphrase_corpus(4, 4, seed=0, length_jitter=3)
        clusters[0].trees[-1] = "(S (NN x)"
        path = tmp_path / "clusters.jsonl"
        save_clusters(clusters, path)
        heat = tmp_path / "heat.csv"
        argv = ["grid", "--clusters", path, "--model", model_file, "--generator", generator]
        assert run([*argv, "--per-cluster", 1, "--grid", "0:25:50", "--out", heat]) == 0
        assert read_heatmap_csv(heat).n == [n] * 27
        # one warning per failed (item, offset), naming the error class
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == (27 if generator == "retrieval_oracle" else 0)
        assert all(": UnbalancedParens: " in w for w in warnings)

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

    def test_json_inputs_drop_a_leading_bom(self, corpus_file, model_file, tmp_path):
        point, model = tmp_path / "op.json", tmp_path / "qp.json"
        point.write_text('{"offset": {"sem": 0.0, "syn": 10.0, "lex": 10}}', encoding="utf-8-sig")
        model.write_bytes(b"\xef\xbb\xbf" + Path(model_file).read_bytes())
        by_bom, plain = tmp_path / "bom.tsv", tmp_path / "plain.tsv"
        argv = ["generate", "--clusters", corpus_file, "--generator", "retrieval_oracle"]
        assert run([*argv, "--model", model, "--operation-point", point, "--out", by_bom]) == 0
        assert run([*argv, "--model", model_file, "--offset", "0,10,10", "--out", plain]) == 0
        assert by_bom.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "by_config", [(), ("operation_point",), ("offset",)], ids=["flags", "point_in_config", "offset_in_config"]
    )
    def test_offset_and_operation_point_exclude_each_other(self, corpus_file, model_file, tmp_path, caplog, by_config):
        # a run at the zero operation point must not silently drop the offset
        point, config, out = tmp_path / "op.json", tmp_path / "run.cfg", tmp_path / "generated.tsv"
        point.write_text('{"offset": {"sem": 0, "syn": 0, "lex": 0}}', encoding="utf-8")
        values = {"offset": "50,50,50", "operation_point": str(point)}
        config.write_text("".join(f"{k}={values[k]}\n" for k in by_config), encoding="utf-8")
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in values.items() if k not in by_config]
        argv = ["generate", "--config", config, "--clusters", corpus_file, "--model", model_file, *flags]
        assert run([*argv, "--out", out]) == 5
        assert not out.exists()
        assert "--offset" in caplog.text and "--operation-point" in caplog.text

    @pytest.mark.parametrize("blank", ["", " \t"], ids=["empty", "whitespace"])
    def test_blank_reference_line_names_its_line(self, corpus_file, model_file, tmp_path, caplog, blank):
        gen_id, refs, report = tmp_path / "identity.tsv", tmp_path / "refs.txt", tmp_path / "report.tsv"
        assert run(["generate", "--clusters", corpus_file, "--model", model_file, "--out", gen_id]) == 0
        n = len(read_pairs_tsv(gen_id))
        refs.write_text("a reference\n" * (n - 1) + blank + "\n", encoding="utf-8")
        assert run(["eval", "--system", f"copy={gen_id}", "--references", refs, "--out", report]) == 4
        assert not report.exists()
        assert "MalformedRecord" in caplog.text and f"(line {n})" in caplog.text


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
