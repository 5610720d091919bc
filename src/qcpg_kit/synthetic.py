"""Synthetic paraphrase corpora with controllable quality spreads.

Each cluster contains one base sentence plus variants that move away
from it along both the lexical axis (words replaced with fresh ones)
and the syntactic axis (tokens regrouped under more phrase nodes), so a
retrieval oracle over the cluster has genuinely different operating
points to choose from. Word material comes from two disjoint letter
pools, keeping replaced words at a known edit distance from the
originals.

Each cluster's letters come from one ``integers(0, 13)`` draw on the
cluster's own stream, ``rng_for(seed, "synthetic_corpus", k)``, handed
out in a fixed order: the base words, then each member's replaced words.
The pools have the same size, so one index picks a letter from either.
The corpus equals one made with a ``choice(pool)`` per letter:
``Generator.choice`` on a sequence with no ``p`` draws
``integers(0, len(pool))``, and below 2**32 numpy takes one 32-bit
Philox word per value, whether drawn one at a time or as an array. A
test keeps the per-letter generator and pins the two together.
"""

from __future__ import annotations

from .dataset import ALL_ORDERED, Cluster, extract_pairs
from .errors import raise_first_failure
from .quality import QualityComputer, QualityVector
from .semantic import DEFAULT_SCORER, SemanticScorer
from .util import rng_for

_BASE_LETTERS = "abcdefghijklm"
_NOVEL_LETTERS = "nopqrstuvwxyz"
# one draw in range(_POOL) indexes either pool
_POOL = len(_BASE_LETTERS)
assert len(_NOVEL_LETTERS) == _POOL
_WORD_LEN = 4


def _words(codes: list[int], letters: str) -> list[str]:
    text = "".join(letters[c] for c in codes)
    return [text[i:i + _WORD_LEN] for i in range(0, len(text), _WORD_LEN)]


def _member_tree(tokens: list[str], phrases: int, doubled: int) -> str:
    """(S (PH (T w) (T w w) ...) ...) as text: tags at level 3, tokens at level 4.

    The first ``doubled`` tags hold two tokens each, the rest one, so a
    sentence with L tokens has L - doubled tag nodes. Varying ``doubled``
    and ``phrases`` across cluster members grades the pruned-tree edit
    distance while keeping the total node count fixed.
    """
    paired = min(2 * doubled, len(tokens))
    tags = [f"(T {' '.join(tokens[i:i + 2])})" for i in range(0, paired, 2)]
    tags += [f"(T {w})" for w in tokens[paired:]]
    # phrase i holds tags[start(i):start(i + 1)], the first len(tags) % phrases of them one tag longer
    base, rem = divmod(len(tags), phrases)
    starts = [i * base + min(i, rem) for i in range(phrases + 1)]
    return "(S " + " ".join(f"(PH {' '.join(tags[a:b])})" for a, b in zip(starts, starts[1:])) + ")"


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
    if length_jitter < 0:
        raise ValueError("length_jitter must be non-negative")
    clusters = []
    for k in range(n_clusters):
        length = tokens_per_sentence + k % (length_jitter + 1)
        replaces = [round(j * length / (cluster_size - 1)) for j in range(cluster_size)]
        rng = rng_for(seed, "synthetic_corpus", k)
        codes = rng.integers(0, _POOL, size=_WORD_LEN * (length + sum(replaces))).tolist()
        split = _WORD_LEN * length
        base = _words(codes[:split], _BASE_LETTERS)
        novel = iter(_words(codes[split:], _NOVEL_LETTERS))
        sentences, trees = [], []
        for j, replace in enumerate(replaces):
            tokens = [next(novel) for _ in range(replace)] + base[replace:]
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
