"""Cluster corpora: ingestion, pair extraction, leak-free splits.

A corpus is a list of clusters, each holding mutually-paraphrastic
sentences (optionally with aligned bracketed parses). Splits assign
whole clusters to test, then dev, then train, so no cluster ever
contributes pairs to two splits. A dev item is ``(sentence, cluster)``:
every sentence takes its tree from ``Cluster.tree_of``, in pairs and in
the grid's and ``generate``'s outputs alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import InsufficientData, MalformedRecord, TreeLengthMismatch
from .util import read_lines, rng_for, tsv_row, write_text

ALL_ORDERED = "all_ordered"
ALL_UNORDERED = "all_unordered"
STAR_FIRST = "star_first"
PAIR_MODES = (ALL_ORDERED, ALL_UNORDERED, STAR_FIRST)


@dataclass
class Cluster:
    """A group of sentences annotated as mutual paraphrases."""

    cluster_id: str
    sentences: list[str]
    trees: list[str] | None = None

    def __post_init__(self):
        if not self.sentences:
            raise ValueError(f"cluster {self.cluster_id!r} has no sentences")
        if self.trees is not None and len(self.trees) != len(self.sentences):
            raise ValueError(
                f"cluster {self.cluster_id!r} has {len(self.trees)} trees "
                f"for {len(self.sentences)} sentences"
            )

    def tree_of(self, sentence: str) -> str | None:
        """The tree of the first member equal to ``sentence``; None without trees or such a member."""
        if self.trees is None or sentence not in self.sentences:
            return None
        return self.trees[self.sentences.index(sentence)]

    def pair_keys(self, s: str) -> list[tuple[str, str, str, str]]:
        """``(s, t, tree_of(s), tree_of(t))`` for each member ``t != s``, in member order; [] if ``s`` has no tree here."""
        tree_s = self.tree_of(s)
        if tree_s is None:
            return []
        return [(s, t, tree_s, self.tree_of(t)) for t in self.sentences if t != s]


@dataclass(frozen=True)
class SentencePair:
    source: str
    target: str
    cluster_id: str
    source_tree: str | None = None
    target_tree: str | None = None


@dataclass
class DatasetSplit:
    train: list[SentencePair] = field(default_factory=list)
    dev: list[SentencePair] = field(default_factory=list)
    test: list[SentencePair] = field(default_factory=list)


def load_clusters(path) -> list[Cluster]:
    r"""Read a JSON-lines cluster file, preserving record order.

    Each line is ``{"cluster_id": str, "sentences": [...], "trees": [...]?}``;
    blank lines are skipped. Only ``\n`` ends a line (one ``\r`` before it
    is dropped), so a lone ``\r``, which JSON reads as whitespace, stays
    inside its record. No string may hold a tab or newline, and no cluster
    id or tree may end in ``\r``: each becomes one field of a pairs TSV
    line, and an id or tree can be its last.
    """
    clusters = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"invalid JSON: {exc.msg}", line=lineno) from None
        if not isinstance(rec, dict):
            raise MalformedRecord("record is not a JSON object", line=lineno)
        cid = rec.get("cluster_id")
        sentences = rec.get("sentences")
        if not isinstance(cid, str) or not cid:
            raise MalformedRecord("missing or invalid 'cluster_id'", line=lineno)
        if (
            not isinstance(sentences, list)
            or not sentences
            or not all(isinstance(s, str) for s in sentences)
        ):
            raise MalformedRecord("missing or invalid 'sentences'", line=lineno)
        trees = rec.get("trees")
        if trees is not None:
            if not isinstance(trees, list) or not all(isinstance(t, str) for t in trees):
                raise MalformedRecord("'trees' must be a list of strings", line=lineno)
            if len(trees) != len(sentences):
                raise TreeLengthMismatch(
                    f"{len(trees)} trees for {len(sentences)} sentences", line=lineno
                )
        if any("\t" in text or "\n" in text for text in [cid, *sentences, *(trees or ())]):
            raise MalformedRecord("a tab or newline inside a cluster id, sentence or tree", line=lineno)
        if any(text.endswith("\r") for text in [cid, *(trees or ())]):
            raise MalformedRecord("a cluster id or tree ends in \\r, which a pairs TSV line drops", line=lineno)
        clusters.append(Cluster(cid, list(sentences), list(trees) if trees else None))
    return clusters


def save_clusters(clusters: list[Cluster], path) -> None:
    lines = []
    for c in clusters:
        rec = {"cluster_id": c.cluster_id, "sentences": c.sentences}
        if c.trees is not None:
            rec["trees"] = c.trees
        lines.append(json.dumps(rec, ensure_ascii=False) + "\n")
    write_text(path, "".join(lines))


def _index_pairs(n: int, mode: str) -> list[tuple[int, int]]:
    """The (source, target) member indices that ``mode`` pairs in a cluster of ``n``."""
    if mode == ALL_ORDERED:
        return [(i, j) for i in range(n) for j in range(n) if i != j]
    if mode == ALL_UNORDERED:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if mode == STAR_FIRST:
        return [(0, j) for j in range(1, n)]
    raise ValueError(f"unknown pair mode {mode!r}")


def pair_count(cluster: Cluster, mode: str = ALL_UNORDERED) -> int:
    return len(_index_pairs(len(cluster.sentences), mode))


def _cluster_pairs(cluster: Cluster, mode: str):
    """The pairs ``mode`` makes of ``cluster``; each end takes its ``tree_of`` tree."""
    sentences = cluster.sentences
    trees = [cluster.tree_of(s) for s in sentences]
    for i, j in _index_pairs(len(sentences), mode):
        yield SentencePair(sentences[i], sentences[j], cluster.cluster_id, trees[i], trees[j])


def extract_pairs(clusters: list[Cluster], mode: str = ALL_ORDERED) -> list[SentencePair]:
    """All intra-cluster sentence pairs, cluster by cluster."""
    pairs = []
    for cluster in clusters:
        pairs.extend(_cluster_pairs(cluster, mode))
    return pairs


def dev_items(clusters: list[Cluster], per_cluster: int | None = None, limit: int | None = None):
    """Flatten clusters into (sentence, cluster) dev items; a bound may be 0 but not negative."""
    for name, bound in (("per_cluster", per_cluster), ("limit", limit)):
        if bound is not None and bound < 0:
            raise ValueError(f"{name} must not be negative, got {bound}")
    items = []
    for cluster in clusters:
        if cluster.trees is None:
            raise ValueError(f"cluster {cluster.cluster_id!r} has no trees")
        items += [(s, cluster) for s in cluster.sentences[:per_cluster]]
    return items[:limit] if limit is not None else items


def split_clusters(
    clusters: list[Cluster],
    sizes: tuple[int, int, int],
    seed: int,
    mode: str = ALL_UNORDERED,
) -> DatasetSplit:
    """Shuffle clusters and fill test, then dev, then train pair quotas.

    Whole clusters are assigned greedily until each split's pair count
    reaches its quota, so a split may overshoot by at most one cluster's
    pairs and no cluster ever straddles two splits. Deterministic for a
    fixed seed; leftover clusters are unused. A repeated cluster id
    raises ValueError, since two clusters of one id could straddle.
    """
    n_train, n_dev, n_test = sizes
    if min(sizes) < 0:
        raise ValueError("split sizes must be non-negative")
    seen = set()
    for cluster in clusters:
        if cluster.cluster_id in seen:
            raise ValueError(f"cluster id {cluster.cluster_id!r} is repeated; a split needs distinct ids")
        seen.add(cluster.cluster_id)
    shuffled = (clusters[i] for i in rng_for(seed, "split_clusters").permutation(len(clusters)))
    pairs: dict[str, list[SentencePair]] = {}
    for name, quota in (("test", n_test), ("dev", n_dev), ("train", n_train)):
        pairs[name] = _take_until(shuffled, quota, mode)
        if len(pairs[name]) < quota:
            achieved = tuple(len(pairs.get(k, ())) for k in ("train", "dev", "test"))
            raise InsufficientData(f"corpus exhausted while filling the {name} split", achievable=achieved)
    return DatasetSplit(**pairs)


def _take_until(shuffled, quota: int, mode: str) -> list[SentencePair]:
    """The pairs of whole clusters from ``shuffled``, drawn until they reach ``quota``.

    The pairs fall short only when ``shuffled`` runs out; no cluster past the
    quota is drawn from it.
    """
    pairs = []
    while len(pairs) < quota and (cluster := next(shuffled, None)) is not None:
        pairs.extend(_cluster_pairs(cluster, mode))
    return pairs


# --- pair TSV and tree sidecar files -----------------------------------------

def pair_fields(p: SentencePair) -> list[str]:
    """The columns of a pair: source, target, cluster id, and both trees when it has both."""
    fields = [p.source, p.target, p.cluster_id]
    if p.source_tree is not None and p.target_tree is not None:
        fields += [p.source_tree, p.target_tree]
    return fields


def pairs_tsv(pairs: list[SentencePair]) -> str:
    """`source<TAB>target<TAB>cluster_id[<TAB>source_tree<TAB>target_tree]` lines; ValueError
    for a pair that would not read back (see :func:`~qcpg_kit.util.tsv_row`)."""
    return "".join(tsv_row(pair_fields(p)) for p in pairs)


def write_pairs_tsv(pairs: list[SentencePair], path) -> None:
    """Write the :func:`pairs_tsv` lines of ``pairs``; a pair that would not read back writes nothing."""
    write_text(path, pairs_tsv(pairs))


def read_pairs_tsv(path) -> list[SentencePair]:
    """Pairs from :func:`write_pairs_tsv` lines, split as :func:`~qcpg_kit.util.read_lines` does."""
    pairs = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) == 3:
            pairs.append(SentencePair(*fields))
        elif len(fields) == 5:
            pairs.append(SentencePair(*fields[:3], fields[3] or None, fields[4] or None))
        else:
            raise MalformedRecord(
                f"expected 3 or 5 tab-separated fields, got {len(fields)}", line=lineno
            )
    return pairs


def read_tree_sidecar(path) -> list[str | None]:
    """One bracketed tree per line, aligned with a sentence file; blank = missing.

    A line may not hold a tab: its tree becomes one field of a TSV line.
    """
    trees = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if "\t" in line:
            raise MalformedRecord("a tab inside a tree", line=lineno)
        trees.append(line.strip() or None)
    return trees
