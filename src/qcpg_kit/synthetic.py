"""Synthetic paraphrase corpora with controllable quality spreads.

Each cluster contains one base sentence plus variants that move away
from it along both the lexical axis (words replaced with fresh ones)
and the syntactic axis (tokens regrouped under more phrase nodes), so a
retrieval oracle over the cluster has genuinely different operating
points to choose from. Word material comes from two disjoint letter
pools, keeping replaced words at a known edit distance from the
originals.
"""

from __future__ import annotations

from .dataset import ALL_ORDERED, Cluster, extract_pairs
from .errors import raise_first_failure
from .quality import QualityComputer, QualityVector
from .semantic import DEFAULT_SCORER, SemanticScorer
from .trees import ParseTree
from .util import rng_for

_BASE_LETTERS = list("abcdefghijklm")
_NOVEL_LETTERS = list("nopqrstuvwxyz")
_WORD_LEN = 4


def _word(rng, letters) -> str:
    return "".join(rng.choice(letters) for _ in range(_WORD_LEN))


def _member_tree(tokens: list[str], phrases: int, doubled: int) -> str:
    """(S (PH (T w) (T w w) ...) ...): tags at level 3, tokens at level 4.

    The first ``doubled`` tags hold two tokens each, the rest one, so a
    sentence with L tokens has L - doubled tag nodes. Varying ``doubled``
    and ``phrases`` across cluster members grades the pruned-tree edit
    distance while keeping the total node count fixed.
    """
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


def paraphrase_corpus(
    n_clusters: int = 50,
    cluster_size: int = 6,
    tokens_per_sentence: int = 12,
    seed: int = 0,
    length_jitter: int = 0,
) -> list[Cluster]:
    """Build clusters whose members fan out in quality from member 0.

    Member j replaces round(j/(size-1) * L) leading tokens with novel
    words, shares j token pairs under doubled-up tag nodes, and groups
    its tags under j+1 phrase nodes, so both the lexical and the
    syntactic distance from member 0 grow monotonically with j while
    semantic (trigram) similarity falls. With ``length_jitter`` > 0,
    cluster k gets tokens_per_sentence + (k mod (jitter+1)) tokens,
    giving the reference predictor's length features real signal.
    """
    if cluster_size < 2:
        raise ValueError("clusters need at least 2 sentences")
    if tokens_per_sentence < cluster_size * 2 - 2:
        raise ValueError("tokens_per_sentence too small for the phrase templates")
    clusters = []
    for k in range(n_clusters):
        rng = rng_for(seed, "synthetic_corpus", k)
        length = tokens_per_sentence + (k % (length_jitter + 1) if length_jitter else 0)
        base = [_word(rng, _BASE_LETTERS) for _ in range(length)]
        sentences, trees = [], []
        for j in range(cluster_size):
            replace = round(j * length / (cluster_size - 1))
            tokens = [
                _word(rng, _NOVEL_LETTERS) if i < replace else base[i]
                for i in range(length)
            ]
            doubled = min(j, length // 2)
            phrases = min(j + 1, length - doubled)
            sentences.append(" ".join(tokens))
            trees.append(_member_tree(tokens, phrases, doubled))
        clusters.append(Cluster(f"syn{k:04d}", sentences, trees))
    return clusters


def quality_samples(
    clusters: list[Cluster],
    scorer: SemanticScorer = DEFAULT_SCORER,
    mode: str = ALL_ORDERED,
) -> list[tuple[str, QualityVector]]:
    """(source sentence, measured pair quality) samples for predictor training.

    The pairs are measured in one batch; its first failure is raised.
    """
    pairs = [p for p in extract_pairs(clusters, mode) if p.source_tree is not None and p.target_tree is not None]
    keys = [(p.source, p.target, p.source_tree, p.target_tree) for p in pairs]
    qualities = raise_first_failure(QualityComputer(scorer).pair_qualities(keys))
    return [(p.source, q) for p, q in zip(pairs, qualities)]
