"""The synthetic corpus, pinned to the per-letter generator and the ``ParseTree``-built trees
it replaced, and its documented shape."""

import pytest

from qcpg_kit import ParseTree, paraphrase_corpus
from qcpg_kit.synthetic import _member_tree
from qcpg_kit.trees import parse_bracketed
from qcpg_kit.util import rng_for

BASE_LETTERS = list("abcdefghijklm")
NOVEL_LETTERS = list("nopqrstuvwxyz")


def member_tree(tokens, phrases, doubled):
    """The member tree as first written: ``ParseTree`` nodes, rendered."""
    tags = []
    pos = 0
    while pos < len(tokens):
        width = 2 if len(tags) < doubled else 1
        group = tuple(ParseTree(tok) for tok in tokens[pos:pos + width])
        tags.append(ParseTree("T", group))
        pos += width
    base, rem = divmod(len(tags), phrases)
    sizes = [base + 1 if i < rem else base for i in range(phrases)]
    nodes, pos = [], 0
    for size in sizes:
        nodes.append(ParseTree("PH", tuple(tags[pos:pos + size])))
        pos += size
    return ParseTree("S", tuple(nodes)).render()


def reference_corpus(n_clusters, cluster_size, tokens_per_sentence=12, seed=0, length_jitter=0):
    """The corpus as first written: one ``rng.choice`` per letter, drawn in token order."""

    def word(rng, letters):
        return "".join(rng.choice(letters) for _ in range(4))

    clusters = []
    for k in range(n_clusters):
        rng = rng_for(seed, "synthetic_corpus", k)
        length = tokens_per_sentence + (k % (length_jitter + 1) if length_jitter else 0)
        base = [word(rng, BASE_LETTERS) for _ in range(length)]
        sentences, trees = [], []
        for j in range(cluster_size):
            replace = round(j * length / (cluster_size - 1))
            tokens = [word(rng, NOVEL_LETTERS) if i < replace else base[i] for i in range(length)]
            doubled = min(j, length // 2)
            sentences.append(" ".join(tokens))
            trees.append(member_tree(tokens, min(j + 1, length - doubled), doubled))
        clusters.append((f"syn{k:04d}", sentences, trees))
    return clusters


# (n_clusters, cluster_size, tokens_per_sentence, seed, length_jitter)
CASES = {
    # the benchmark's score-cold, grid-builtin and external-proc corpora, at both golden seeds
    **{f"bench-score-seed{s}": (60, 6, 12, s, 8) for s in (0, 1)},
    **{f"bench-grid-seed{s}": (20, 6, 12, s, 0) for s in (0, 1)},
    **{f"bench-external-seed{s}": (6, 6, 12, s, 0) for s in (0, 1)},
    "demo-02": (30, 5, 12, 12, 6),
    "demo-03": (40, 6, 12, 9, 6),
    "demo-04": (25, 5, 12, 77, 6),
    "chain": (12, 4, 12, 0, 3),
    "pairs": (10, 2, 12, 4, 0),
    "shortest-pairs": (6, 2, 2, 3, 1),
    "shortest": (8, 6, 10, 2, 2),
}


@pytest.mark.parametrize("args", CASES.values(), ids=CASES.keys())
def test_equals_per_letter_generator(args):
    corpus = [(c.cluster_id, c.sentences, c.trees) for c in paraphrase_corpus(*args)]
    assert corpus == reference_corpus(*args)


@pytest.mark.parametrize("length", range(1, 10))
def test_member_tree_text_is_the_parse_tree_render(length):
    tokens = [f"w{i}" for i in range(length)]
    for doubled in range(length + 1):
        tags = length - min(doubled, length // 2)
        for phrases in range(1, tags + 1):
            assert _member_tree(tokens, phrases, doubled) == member_tree(tokens, phrases, doubled)


def leaves(tree):
    return [tree.label] if not tree.children else [leaf for child in tree.children for leaf in leaves(child)]


@pytest.mark.parametrize("args", [CASES["demo-03"], CASES["shortest-pairs"], CASES["shortest"]])
def test_documented_shape(args):
    n_clusters, size, tokens, _, jitter = args
    corpus = paraphrase_corpus(*args)
    assert len(corpus) == n_clusters
    for k, cluster in enumerate(corpus):
        length = tokens + k % (jitter + 1)
        base = cluster.sentences[0].split()
        assert len(cluster.sentences) == len(cluster.trees) == size
        assert len(base) == length and all(set(w) <= set(BASE_LETTERS) for w in base)
        for j, (sentence, text) in enumerate(zip(cluster.sentences, cluster.trees)):
            words = sentence.split()
            replace = round(j * length / (size - 1))
            assert all(len(w) == 4 for w in words)
            assert all(set(w) <= set(NOVEL_LETTERS) for w in words[:replace])
            assert words[replace:] == base[replace:]
            tree = parse_bracketed(text)
            assert tree.render() == text
            assert leaves(tree) == words


@pytest.mark.parametrize("length_jitter", [-1, -3])
def test_rejects_negative_length_jitter(length_jitter):
    with pytest.raises(ValueError, match="length_jitter"):
        paraphrase_corpus(4, length_jitter=length_jitter)


@pytest.mark.parametrize("cluster_size, tokens", [(1, 12), (6, 9), (2, 1)])
def test_rejects_too_small_clusters_and_sentences(cluster_size, tokens):
    with pytest.raises(ValueError):
        paraphrase_corpus(2, cluster_size, tokens)
