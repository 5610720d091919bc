"""Independent oracles and enumerators used by the test suite.

Everything here is deliberately written from first principles (and kept
separate from the library), so an implementation bug cannot hide in a
shared code path: the tree-edit oracles enumerate Tai mappings or run
the textbook forest recursion, the Levenshtein oracle fills the full textbook matrix, the bag-matching
oracle recurses over all partial matchings. The row-by-row reference
features, prediction and heatmap reader are the kit's earlier per-row
code, kept to pin the column-wise code to it.
"""

from __future__ import annotations

import math
import unicodedata
from array import array
from collections import Counter
from functools import lru_cache
from itertools import product

import numpy as np

from qcpg_kit import GridResult, ParseTree
from qcpg_kit.errors import MalformedRecord
from qcpg_kit.evaluation import MAX_BLEU_ORDER
from qcpg_kit.selection import HEATMAP_COLUMNS
from qcpg_kit.util import read_lines
from qcpg_kit.trees import _STRUCTURAL_LABEL

# --- exhaustive enumeration of ordered labeled trees -------------------------


def tree_shapes(n: int) -> list[tuple]:
    """All ordered tree shapes with exactly n nodes, as nested tuples."""
    return list(_shapes_cached(n))


@lru_cache(maxsize=None)
def _shapes_cached(n: int) -> tuple:
    if n == 1:
        return ((),)
    out = []
    for sizes in _compositions(n - 1):
        child_options = [_shapes_cached(k) for k in sizes]
        for combo in product(*child_options):
            out.append(tuple(combo))
    return tuple(out)


def _compositions(total: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            out.append((first,) + rest)
    return out


def shape_size(shape: tuple) -> int:
    return 1 + sum(shape_size(c) for c in shape)


def tree_from_shape(shape: tuple, labels: list[str]) -> ParseTree:
    """Assign labels to a shape in preorder."""
    it = iter(labels)

    def build(s):
        label = next(it)
        return ParseTree(label, tuple(build(c) for c in s))

    return build(shape)


def labeled_trees(shape: tuple, alphabet: str) -> list[ParseTree]:
    n = shape_size(shape)
    return [tree_from_shape(shape, list(combo)) for combo in product(alphabet, repeat=n)]


def all_trees(max_nodes: int, alphabet: str) -> list[ParseTree]:
    """Every ordered labeled tree with 1..max_nodes nodes over the alphabet."""
    out = []
    for n in range(1, max_nodes + 1):
        for shape in tree_shapes(n):
            out.extend(labeled_trees(shape, alphabet))
    return out


# --- brute-force tree edit distance (exhaustive Tai mappings) -----------------


def _flatten_relations(tree: ParseTree):
    """Preorder labels plus postorder index per preorder node id."""
    labels: list[str] = []
    post: list[int] = []
    counter = [0]

    def walk(node):
        nid = len(labels)
        labels.append(node.label)
        post.append(-1)
        for child in node.children:
            walk(child)
        post[nid] = counter[0]
        counter[0] += 1

    walk(tree)
    return labels, post


def ted_bruteforce(a: ParseTree, b: ParseTree) -> int:
    """Unit-cost tree edit distance as the minimum over all valid mappings.

    A mapping is a set of one-to-one node pairs preserving the ancestor
    and left-to-right relations; its cost is one per relabel plus one
    per unmapped node on either side. All mappings are enumerated
    (depth-first over the first tree's preorder), with an admissible
    bound used only to cut provably worse branches.
    """
    la, post_a = _flatten_relations(a)
    lb, post_b = _flatten_relations(b)
    na, nb = len(la), len(lb)
    best = [na + nb]  # the empty mapping
    used = [False] * nb
    pairs: list[tuple[int, int]] = []

    def dfs(i: int, partial: int, mapped: int):
        unused_b = nb - mapped
        if partial + max(0, unused_b - (na - i)) >= best[0]:
            return
        if i == na:
            best[0] = partial + unused_b
            return
        for j in range(nb):
            if used[j]:
                continue
            ok = True
            for u, v in pairs:
                # u precedes i in preorder; the b side must match both orders
                if v > j:
                    ok = False
                    break
                if (post_a[u] > post_a[i]) != (post_b[v] > post_b[j]):
                    ok = False
                    break
            if not ok:
                continue
            used[j] = True
            pairs.append((i, j))
            dfs(i + 1, partial + (la[i] != lb[j]), mapped + 1)
            pairs.pop()
            used[j] = False
        dfs(i + 1, partial + 1, mapped)  # delete node i

    dfs(0, 0, 0)
    return best[0]


def ted_forest_oracle(a: ParseTree, b: ParseTree) -> int:
    """Unit-cost tree edit distance by the textbook forest recursion.

    A forest is a tuple of node ids, left to right. With v and w the
    rightmost roots of forests F and G::

        d(F, G) = min(d(F - v, G) + 1,                       # delete v
                      d(F, G - w) + 1,                       # insert w
                      d(kids(v), kids(w)) + d(F - T(v), G - T(w))
                      + [labels of v and w differ])

    where ``F - v`` puts v's children in its place and ``F - T(v)``
    drops v's subtree; an empty forest against F costs |F|. Memoized on
    the pair of forests, with no keyroots and no closed forms, so it
    reaches trees too large for :func:`ted_bruteforce`.
    """
    labels: list[str] = []
    kids: list[tuple[int, ...]] = []
    sizes: list[int] = []

    def intern(node: ParseTree) -> int:
        children = tuple(intern(c) for c in node.children)
        labels.append(node.label)
        kids.append(children)
        sizes.append(1 + sum(sizes[c] for c in children))
        return len(labels) - 1

    @lru_cache(maxsize=None)
    def d(f: tuple[int, ...], g: tuple[int, ...]) -> int:
        if not f or not g:
            return sum(sizes[x] for x in f + g)
        v, w = f[-1], g[-1]
        return min(
            d(f[:-1] + kids[v], g) + 1,
            d(f, g[:-1] + kids[w]) + 1,
            d(kids[v], kids[w]) + d(f[:-1], g[:-1]) + (labels[v] != labels[w]),
        )

    return d((intern(a),), (intern(b),))


def canonical_pair_key(a: ParseTree, b: ParseTree) -> str:
    """Key identifying (a, b) up to a joint relabeling of both trees."""
    ids: dict[str, int] = {}

    def serialize(t: ParseTree) -> str:
        i = ids.setdefault(t.label, len(ids))
        return f"({i}{''.join(serialize(c) for c in t.children)})"

    return serialize(a) + "|" + serialize(b)


# --- string and bag oracles ---------------------------------------------------


def levenshtein_oracle(s: str, t: str) -> int:
    """Full-matrix textbook dynamic program."""
    m, n = len(s), len(t)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (s[i - 1] != t[j - 1]),
            )
    return d[m][n]


def matching_bruteforce(a_words: tuple[str, ...], b_words: tuple[str, ...]) -> int:
    """Minimum over all partial matchings of edit cost + unmatched lengths."""

    @lru_cache(maxsize=None)
    def rec(i: int, remaining: frozenset) -> int:
        if i == len(a_words):
            return sum(len(b_words[j]) for j in remaining)
        best = len(a_words[i]) + rec(i + 1, remaining)  # leave a_words[i] unmatched
        for j in remaining:
            cost = levenshtein_oracle(a_words[i], b_words[j])
            best = min(best, cost + rec(i + 1, remaining - {j}))
        return best

    result = rec(0, frozenset(range(len(b_words))))
    rec.cache_clear()
    return result


# --- recursive definitions of pruning, token stripping and flattening ----------


def prune_reference(tree: ParseTree, level: int) -> ParseTree:
    """``prune_to_level`` as first written: one recursive call per level."""
    if level == 1 or not tree.children:
        return ParseTree(tree.label)
    return ParseTree(tree.label, tuple(prune_reference(c, level - 1) for c in tree.children))


def strip_reference(tree: ParseTree) -> ParseTree:
    """``strip_tokens`` as first written: one recursive call per level."""
    if len(tree.children) == 1:
        [only] = tree.children
        if not only.children and not _STRUCTURAL_LABEL.match(only.label):
            return ParseTree(tree.label)
    return ParseTree(tree.label, tuple(strip_reference(c) for c in tree.children))


def flatten_reference(tree: ParseTree) -> tuple[list[str], list[int]]:
    """``FlatTree.of``'s arrays, postorder labels and leftmost-leaf indices, by one recursive call per node."""
    labels: list[str] = []
    lml: list[int] = []

    def visit(node: ParseTree) -> None:
        first = len(labels)
        for child in node.children:
            visit(child)
        labels.append(node.label)
        lml.append(first)

    visit(tree)
    return labels, lml


# --- BLEU as first written ----------------------------------------------------


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_reference(candidate: str, references: list[str]) -> float:
    """``evaluation.bleu`` as first written: every n-gram table counted per call, references max-merged per order."""
    cand = candidate.split()
    if not cand:
        return 0.0
    if not references or all(not r.split() for r in references):
        raise ValueError("bleu requires at least one non-empty reference")
    refs = [r.split() for r in references]

    log_sum, orders = 0.0, 0
    for n in range(1, MAX_BLEU_ORDER + 1):
        counts = _ngrams(cand, n)
        total = sum(counts.values())
        if total == 0:
            continue
        max_counts: Counter = Counter()
        for ref in refs:
            for gram, c in _ngrams(ref, n).items():
                if c > max_counts[gram]:
                    max_counts[gram] = c
        matched = sum(min(c, max_counts[gram]) for gram, c in counts.items())
        if matched == 0:
            if n == 1:
                return 0.0
            p = 1.0 / (total + 1)
        else:
            p = matched / total
        log_sum += math.log(p)
        orders += 1

    c = len(cand)
    r = min((len(ref) for ref in refs), key=lambda rl: (abs(rl - c), rl))
    brevity = math.exp(1.0 - r / c) if c < r else 1.0
    return 100.0 * brevity * math.exp(log_sum / orders)


# --- random structures ----------------------------------------------------------


def random_ordered_tree(rng, n_nodes: int, alphabet: str, shape: str = "uniform") -> ParseTree:
    """Random ordered labeled tree built by child attachment.

    Each node after the root goes under an earlier one: any of them
    (``shape="uniform"``), one of the two latest (``"deep"``), or one of
    the two first (``"wide"``).
    """
    children: list[list[int]] = [[] for _ in range(n_nodes)]
    for node in range(1, n_nodes):
        low, high = {"uniform": (0, node), "deep": (max(0, node - 2), node), "wide": (0, min(node, 2))}[shape]
        parent = int(rng.integers(low, high))
        children[parent].append(node)
    labels = [str(rng.choice(list(alphabet))) for _ in range(n_nodes)]

    def build(i: int) -> ParseTree:
        return ParseTree(labels[i], tuple(build(c) for c in children[i]))

    return build(0)


_PHRASE_LABELS = ["S", "NP", "VP", "PP", "ADJP", "SBAR"]
_POS_LABELS = ["DT", "NN", "VB", "JJ", "IN", "RB"]
_WORDS = ["the", "cat", "sat", "big", "on", "mat", "a", "dog", "ran", "red"]


def random_parse_tree(rng, max_depth: int = 4) -> ParseTree:
    """Treebank-shaped random tree: branching phrases over unary POS+token."""

    def phrase(depth: int) -> ParseTree:
        label = str(rng.choice(_PHRASE_LABELS))
        n_children = int(rng.integers(2, 4))
        kids = []
        for _ in range(n_children):
            if depth + 1 >= max_depth or rng.random() < 0.5:
                pos = str(rng.choice(_POS_LABELS))
                word = str(rng.choice(_WORDS))
                kids.append(ParseTree(pos, (ParseTree(word),)))
            else:
                kids.append(phrase(depth + 1))
        return ParseTree(label, tuple(kids))

    return phrase(1)


# --- model files holding one bad number ----------------------------------------

# id -> (payload key, value put in its first number); each breaks a ReferenceModel invariant
BAD_MODEL_NUMBERS = {
    "bias_inf": ("bias", float("inf")),
    "mean_nan": ("mean", float("nan")),
    "scale_zero": ("scale", 0.0),
    "scale_negative": ("scale", -1.0),
    "weights_neg_inf": ("weights", float("-inf")),
    "lambda_inf": ("lambda", float("inf")),
    "lambda_nan": ("lambda", float("nan")),
}


# JSON values that float() or numpy would read as a number, or fail to convert with OverflowError: a model
# file's number fields take none of them
NOT_MODEL_NUMBERS = {
    **{
        f"{key}_{kind}": (key, value)
        for key in ("mean", "scale", "weights", "bias", "lambda")
        for kind, value in (("string", "1"), ("bool", True))
    },
    "bias_int_beyond_float": ("bias", 10**400),
    "lambda_int_beyond_float": ("lambda", 10**400),
}


def with_bad_number(payload: dict, key: str, value: float) -> dict:
    """Put ``value`` as the first number of ``key`` in a model-file payload."""
    if key == "lambda":
        payload[key] = value
    elif key == "weights":
        payload[key][0][0] = value
    else:
        payload[key][0] = value
    return payload


# --- row-by-row reference prediction and heatmap reading --------------------

def featurize_reference(s: str) -> np.ndarray:
    """The surface features of ``reference.FEATURE_NAMES``, one Python generator per count."""
    tokens = s.split()
    n = len(tokens)
    return np.array(
        [
            n,
            len(s),
            (sum(len(t) for t in tokens) / n) if n else 0.0,
            sum(ch.isdigit() for ch in s),
            sum(t[0].isupper() for t in tokens),
            sum(unicodedata.category(ch).startswith("P") for ch in s),
            (len(set(tokens)) / n) if n else 1.0,
            1.0 if "?" in s else 0.0,
        ],
        dtype=np.float64,
    )


def predict_reference(model, s: str) -> np.ndarray:
    """A model's clamped prediction for one sentence, as a ``(3,)`` array: one matrix-vector product."""
    z = (featurize_reference(s) - model.mean) / model.scale
    return np.clip(model.weights @ z + model.bias, 0.0, 100.0)


def read_heatmap_reference(path) -> GridResult:
    """An exported heatmap read line by line, each row parsed and checked before the next."""
    table, counts = array("d"), []
    lines = read_lines(path) or [""]
    if lines[0].split(",") != list(HEATMAP_COLUMNS):
        raise MalformedRecord(f"unexpected heatmap header: {lines[0]!r}", line=1)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(HEATMAP_COLUMNS):
            raise MalformedRecord(f"expected {len(HEATMAP_COLUMNS)} fields, got {len(fields)}", line=lineno)
        try:
            values = [float(v) for v in fields[:-1]]
            n = int(fields[-1])
            if not all(map(math.isfinite, values)):
                raise ValueError("a value is not finite")
            if n < 1:
                raise ValueError(f"n = {n} is below 1")
            if n > 2**63 - 1:
                raise ValueError(f"n = {n} is above 2**63 - 1")
            for name, v in zip(("sem", "syn", "lex"), values[3:6]):
                if not 0.0 <= v <= 100.0:
                    raise ValueError(f"{name} must lie in [0, 100], got {v!r}")
        except ValueError as exc:
            raise MalformedRecord(f"{exc} in {line!r}", line=lineno) from None
        table.extend(values)
        counts.append(n)
    table = np.array(table, dtype=np.float64).reshape(-1, len(HEATMAP_COLUMNS) - 1)
    return GridResult(table[:, 0:3], table[:, 3:6], table[:, 6:9], counts)
