"""Spans and counters around the public functions of each qcpg_kit module.

The tracer patches each function at the binding where its callers look
it up (``qcpg_kit.quality.lexical_distance``, not only
``qcpg_kit.lexical.lexical_distance``), so the program itself is not
changed. A span records (name, start, end, parent) in flat arrays kept
in memory; they are written once, at the end of the run. Functions
called hundreds of times per pair (``char_edit_distance``,
``QualityComputer.pair_quality``) are counted instead of spanned, and
their time stays in the caller's self time.

Span and counter names start with the module that owns the function;
``layer_metrics`` turns one chain's spans and counts into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("cli", "dataset", "reference", "selection", "generators", "util",
           "quality", "trees", "lexical", "semantic", "evaluation")
GENERATOR_KINDS = {
    "IdentityGenerator": "identity",
    "RetrievalOracleGenerator": "retrieval_oracle",
    "NoisyOracleGenerator": "noisy_oracle",
    "ExternalCommandGenerator": "external_command",
}
CLI_COMMANDS = ("split", "score", "train_qp", "grid", "select", "generate", "eval")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._chains: list[tuple[array, array, array, array]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start the spans and counts of a new chain; earlier spans are kept for writing."""
        self.span_name, self.start, self.end, self.parent = array("i"), array("d"), array("d"), array("i")
        self._chains.append((self.span_name, self.start, self.end, self.parent))
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, outermost: bool = False, note=None, after=None) -> None:
        """Record a span per call; ``outermost`` skips the recursive calls inside one.

        ``note(tracer, args)`` runs before each recorded call and
        ``after(tracer, result)`` after each one that returns.
        """
        original = owner.__dict__[attr]
        tracer = self
        depth = 0

        def wrapper(*args, **kwargs):
            nonlocal depth
            if depth and outermost:
                return original(*args, **kwargs)
            if note is not None:
                note(tracer, args)
            idx = tracer.open(name)
            depth += 1
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".failures"] += 1
                raise
            finally:
                depth -= 1
                tracer.close(idx)
            if after is not None:
                after(tracer, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str, distinct: bool = False) -> None:
        """Count calls; with ``distinct``, also remember the hash of each argument tuple."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            if distinct:
                tracer.distinct[name].add(hash(args))
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the kit's functions for the duration of the block."""
        install(self)
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: [calls, busy seconds, self seconds]; plus counters and distinct counts."""
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        spans: dict[str, list] = {}
        for i, nid in enumerate(self.span_name):
            rec = spans.setdefault(self.names[nid], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - covered[i]
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }

    def write_spans(self, path: Path) -> None:
        """All spans of all traced chains, as columns, gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent"],
            "chains": [[list(col) for col in chain] for chain in self._chains if len(chain[0])],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _note_lines(tracer: Tracer, args) -> None:
    tracer.counts["semantic.run_line_protocol.lines"] += len(args[1])


def _note_generate(tracer: Tracer, args) -> None:
    generator, s, c = args[:3]
    tracer.counts["generators.generate"] += 1
    tracer.distinct["generators.generate"].add(hash((type(generator), s, c.sem, c.syn, c.lex)))


def _after_grid(tracer: Tracer, result) -> None:
    tracer.counts["selection.offsets.evaluated"] += len(result.offsets) + len(result.dropped)
    tracer.counts["selection.offsets.dropped"] += len(result.dropped)


def install(tracer: Tracer) -> None:
    from qcpg_kit import cli, dataset, evaluation, generators, lexical, quality, reference, selection, semantic, trees

    # trees
    tracer.span(quality, "parse_bracketed", "trees.parse_bracketed")
    tracer.span(quality, "syntactic_distance", "trees.syntactic_distance")
    tracer.span(trees, "tree_edit_distance", "trees.tree_edit_distance")
    tracer.span(trees, "prune_to_level", "trees.prune_to_level", outermost=True)
    tracer.span(trees, "strip_tokens", "trees.strip_tokens", outermost=True)
    # lexical
    tracer.span(quality, "lexical_distance", "lexical.lexical_distance")
    tracer.span(lexical, "tokenize", "lexical.tokenize")
    tracer.count(lexical, "char_edit_distance", "lexical.char_edit_distance", distinct=True)
    tracer.span(lexical, "linear_sum_assignment", "lexical.linear_sum_assignment")
    # semantic
    tracer.span(semantic, "builtin_trigram_raw", "semantic.builtin_trigram_raw")
    tracer.span(semantic, "run_line_protocol", "semantic.run_line_protocol", note=_note_lines)
    tracer.span(generators, "run_line_protocol", "semantic.run_line_protocol", note=_note_lines)
    # quality: a pair_quality call that reaches quality_vector is a cache miss
    tracer.count(quality.QualityComputer, "pair_quality", "quality.pair_quality")
    tracer.span(quality, "quality_vector", "quality.quality_vector")
    tracer.count(quality.QualityComputer, "tree", "quality.tree")
    # generators
    for cls, kind in GENERATOR_KINDS.items():
        tracer.span(getattr(generators, cls), "generate", f"generators.generate.{kind}", note=_note_generate)
    tracer.span(generators.RetrievalOracleGenerator, "candidate_qualities", "generators.candidate_qualities")
    # util
    tracer.span(generators, "rng_for", "util.rng_for")
    tracer.span(dataset, "rng_for", "util.rng_for")
    # selection
    tracer.span(cli, "grid_search", "selection.grid_search", after=_after_grid)
    tracer.span(cli, "select_operation_point", "selection.select_operation_point")
    tracer.span(cli, "export_heatmap_csv", "selection.export_heatmap_csv")
    # reference
    tracer.span(cli, "fit", "reference.fit")
    tracer.span(cli, "evaluate_mse", "reference.evaluate_mse")
    for module in (cli, selection, reference):
        tracer.span(module, "predict", "reference.predict")
    # evaluation
    tracer.span(cli, "evaluate_systems", "evaluation.evaluate_systems")
    tracer.span(evaluation, "bleu", "evaluation.bleu")
    # dataset
    for func in ("load_clusters", "split_clusters", "read_pairs_tsv", "write_pairs_tsv"):
        tracer.span(cli, func, f"dataset.{func}")


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced chain, from ``Tracer.summary()``."""
    spans, counts, distinct = summary["spans"], summary["counts"], summary["distinct"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "trees.parse_bracketed.calls": calls("trees.parse_bracketed"),
        "trees.parse_bracketed.busy_s": busy("trees.parse_bracketed"),
        "trees.syntactic_distance.calls": calls("trees.syntactic_distance"),
        "trees.syntactic_distance.busy_s": busy("trees.syntactic_distance"),
        "trees.tree_edit_distance.busy_s": busy("trees.tree_edit_distance"),
        "trees.prune_strip.busy_s": busy("trees.prune_to_level") + busy("trees.strip_tokens"),
        "lexical.lexical_distance.calls": calls("lexical.lexical_distance"),
        "lexical.lexical_distance.busy_s": busy("lexical.lexical_distance"),
        "lexical.tokenize.busy_s": busy("lexical.tokenize"),
        "lexical.char_edit_distance.calls": counts.get("lexical.char_edit_distance", 0),
        "lexical.char_edit_distance.distinct_ratio": ratio(
            distinct.get("lexical.char_edit_distance", 0), counts.get("lexical.char_edit_distance", 0)),
        "lexical.linear_sum_assignment.busy_s": busy("lexical.linear_sum_assignment"),
        "semantic.builtin_trigram_raw.calls": calls("semantic.builtin_trigram_raw"),
        "semantic.builtin_trigram_raw.busy_s": busy("semantic.builtin_trigram_raw"),
        "semantic.run_line_protocol.calls": calls("semantic.run_line_protocol"),
        "semantic.run_line_protocol.lines": counts.get("semantic.run_line_protocol.lines", 0),
        "semantic.run_line_protocol.busy_s": busy("semantic.run_line_protocol"),
        "semantic.run_line_protocol.failures": counts.get("semantic.run_line_protocol.failures", 0),
        "quality.pair_quality.calls": counts.get("quality.pair_quality", 0),
        "quality.pair_quality.misses": calls("quality.quality_vector"),
        "quality.pair_quality.hit_ratio": ratio(
            counts.get("quality.pair_quality", 0) - calls("quality.quality_vector"),
            counts.get("quality.pair_quality", 0)),
        "quality.tree.calls": counts.get("quality.tree", 0),
        "quality.tree.misses": calls("trees.parse_bracketed"),
    }
    for kind in GENERATOR_KINDS.values():
        name = f"generators.generate.{kind}"
        m[f"generators.generate.calls.{kind}"] = calls(name)
        m[f"generators.generate.busy_s.{kind}"] = busy(name)
        m[f"generators.generate.failures.{kind}"] = counts.get(name + ".failures", 0)
    m.update({
        "generators.generate.distinct_ratio": ratio(
            distinct.get("generators.generate", 0), counts.get("generators.generate", 0)),
        "generators.candidate_qualities.calls": calls("generators.candidate_qualities"),
        "generators.candidate_qualities.busy_s": busy("generators.candidate_qualities"),
        "util.rng_for.calls": calls("util.rng_for"),
        "util.rng_for.busy_s": busy("util.rng_for"),
        "selection.grid_search.busy_s": busy("selection.grid_search"),
        "selection.grid_search.self_s": spans.get("selection.grid_search", (0, 0.0, 0.0))[2],
        "selection.offsets.evaluated": counts.get("selection.offsets.evaluated", 0),
        "selection.offsets.dropped": counts.get("selection.offsets.dropped", 0),
        "selection.select_operation_point.busy_s": busy("selection.select_operation_point"),
        "selection.export_heatmap_csv.busy_s": busy("selection.export_heatmap_csv"),
        "reference.fit.busy_s": busy("reference.fit"),
        "reference.predict.calls": calls("reference.predict"),
        "reference.predict.busy_s": busy("reference.predict"),
        "evaluation.evaluate_systems.busy_s": busy("evaluation.evaluate_systems"),
        "evaluation.bleu.calls": calls("evaluation.bleu"),
        "evaluation.bleu.busy_s": busy("evaluation.bleu"),
    })
    for func in ("load_clusters", "split_clusters", "read_pairs_tsv", "write_pairs_tsv"):
        m[f"dataset.{func}.busy_s"] = busy(f"dataset.{func}")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = busy(f"cli.{command}")
    for module in MODULES:
        m[f"{module}.self_s"] = sum(rec[2] for name, rec in spans.items() if name.split(".", 1)[0] == module)
    return m
