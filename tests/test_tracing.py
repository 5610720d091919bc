"""The benchmark tracer's patch points exist in the program and are restored.

``bench/tracing.py`` wraps functions at the bindings where the program
looks them up; a renamed or removed binding makes ``--trace 1`` raise
KeyError. This test catches that in the tier-1 run.
"""

import sys
from pathlib import Path

from qcpg_kit import cli, fit, paraphrase_corpus, quality, quality_samples, save_clusters, save_model, trees

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import Tracer  # noqa: E402


def test_every_patched_binding_is_wrapped_then_restored():
    tracer = Tracer()
    patched = []
    try:
        with tracer.installed():
            patched = list(tracer._patches)
            assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
    finally:
        # a binding missing half-way through would leave the earlier patches in place
        while tracer._patches:
            owner, attr, original = tracer._patches.pop()
            setattr(owner, attr, original)
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
    # the syn layer's bindings, which the scoring path no longer calls
    assert {(quality, "parse_bracketed"), (quality, "syntactic_distance"), (trees, "prune_to_level"),
            (trees, "strip_tokens"), (trees, "tree_edit_distance"),
            (quality.QualityComputer, "tree")} <= {(owner, attr) for owner, attr, _ in patched}


def test_a_traced_grid_counts_its_offsets(tmp_path):
    # the tracer's _after_grid reads the grid result's list views
    corpus = paraphrase_corpus(n_clusters=3, cluster_size=4, seed=5)
    save_clusters(corpus, tmp_path / "clusters.jsonl")
    save_model(fit(quality_samples(corpus)), tmp_path / "model.json")
    argv = ["grid", "--clusters", tmp_path / "clusters.jsonl", "--model", tmp_path / "model.json",
            "--grid", "0:25:50", "--out", tmp_path / "heat.csv"]
    tracer = Tracer()
    with tracer.installed():
        assert cli.main([str(a) for a in argv]) == 0
    assert tracer.counts["selection.offsets.evaluated"] == 27
    assert tracer.counts["selection.offsets.dropped"] == 0
