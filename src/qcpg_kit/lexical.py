"""Word-order-independent lexical distance between sentences.

A sentence is reduced to a bag (multiset) of lowercased tokens; the
distance is the minimal total character-level edit distance over all
ways of matching the two bags, with unmatched words paying their own
length. The optimal matching is solved exactly as a linear assignment.

Two steps keep that exact and cheap. Words the two bags share are
cancelled first: character edit distance extended with the empty word
is a metric, so by the triangle inequality some optimal matching pairs
each shared word with its copy at cost 0. The remaining cost matrix is
filled with the bit-parallel Levenshtein algorithm of Myers (1999), in
Hyyrö's (2001) form for global distance, with every column word packed
into one arbitrary-width integer: each row costs one pass over its own
word's characters, whatever the lengths of the column words.

The assignment itself is solved in-tree, in pure integer Python, by
shortest augmenting paths (:func:`linear_sum_assignment`): O(k³) in the
worst case for k unshared words. On k unshared corpus words it took
0.06/0.15/0.59/2.5/10 ms for k = 12/20/40/80/150, against
0.02/0.04/0.11/0.41/1.6 ms for a compiled implementation of the same
method, numpy array included (Python 3.11, 2-vCPU x86-64 VM). No pair
of the benchmark corpora leaves more than 20 words unshared, and that
compiled solver costs every process that measures lex about 0.5 s and
40 MB to import.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass


@dataclass(frozen=True)
class WordBag:
    """Multiset of tokens plus the total character count."""

    words: tuple[str, ...]
    total_chars: int

    @classmethod
    def from_words(cls, words) -> "WordBag":
        words = tuple(words)
        return cls(words, sum(len(w) for w in words))


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(sentence: str) -> WordBag:
    """Lowercase, split on whitespace, strip edge punctuation, keep duplicates."""
    out = []
    for raw in sentence.lower().split():
        start, end = 0, len(raw)
        while start < end and _is_punct(raw[start]):
            start += 1
        while end > start and _is_punct(raw[end - 1]):
            end -= 1
        if end > start:
            out.append(raw[start:end])
    return WordBag.from_words(out)


class _PackedWords:
    """Words packed side by side into one bit-vector, for Myers' algorithm.

    A word of length m owns m bits, bit k standing for its k-th
    character, followed by one spacer bit that is kept clear of carries
    and shifted-in bits, so no word's state leaks into the next.
    """

    __slots__ = ("peq", "low", "full", "segments")

    def __init__(self, words):
        peq: dict[str, int] = {}
        low = full = 0
        segments = []
        pos = 0
        for word in words:
            m = len(word)
            mask = (1 << m) - 1
            segments.append((pos, mask))
            if m:
                low |= 1 << pos
                full |= mask << pos
            for k, ch in enumerate(word):
                peq[ch] = peq.get(ch, 0) | (1 << (pos + k))
            pos += m + 1
        self.peq = peq  # character -> positions where it occurs
        self.low = low  # first bit of every non-empty word
        self.full = full  # every word bit, no spacers
        self.segments = segments  # (first bit, length mask) per word

    def distances(self, text: str) -> list[int]:
        """Levenshtein distance from ``text`` to every packed word.

        ``vp``/``vn`` hold the +1/-1 vertical deltas of the current
        column of the dynamic-programming matrix; after the last column
        a word's distance is len(text) plus its deltas. Spacer bits may
        hold garbage in ``vn`` and ``d0`` but never reach a word bit.
        """
        peq, low, full = self.peq, self.low, self.full
        vp, vn = full, 0
        for ch in text:
            eq = peq.get(ch, 0)
            d0 = (((eq & vp) + vp) ^ vp) | eq | vn
            hp = vn | ~(d0 | vp)
            hn = d0 & vp
            hp = (hp << 1) | low
            hn <<= 1
            vp = (hn | ~(d0 | hp)) & full
            vn = hp & d0
        n = len(text)
        return [
            n + ((vp >> pos) & mask).bit_count() - ((vn >> pos) & mask).bit_count()
            for pos, mask in self.segments
        ]


def char_edit_distance(w1: str, w2: str) -> int:
    """Levenshtein distance over Unicode scalar values."""
    return _PackedWords((w2,)).distances(w1)[0]


def linear_sum_assignment(cost: list[list[int]]) -> int:
    """Least total cost of a perfect matching of the square integer matrix ``cost``.

    Shortest augmenting paths with row and column potentials (Jonker and
    Volgenant 1987, in the form of Crouse 2016): each row in turn is
    matched by a Dijkstra search over reduced costs, which the potentials
    keep non-negative, so the search can stop at the first free column it
    settles; among equal distances a free column is settled first. Every
    quantity is an integer, so the result is exact. O(k³) for k×k.
    """
    n = len(cost)
    u, v = [0] * n, [0] * n  # row and column potentials
    col4row, row4col = [-1] * n, [-1] * n
    for cur in range(n):
        # shortest[j]: least reduced cost of an alternating path from row
        # ``cur`` to column j; path[j]: the row it reaches j from. u[cur] is
        # still 0: only rows already matched have had their potential raised.
        shortest = [c - vj for c, vj in zip(cost[cur], v)]
        path = [cur] * n
        lowest = min(shortest)
        sink = -1
        for j in range(n):
            if shortest[j] == lowest:
                if row4col[j] < 0:
                    sink = j
                    break
                if sink < 0:
                    sink = j
        i = row4col[sink]
        if i >= 0:  # the closest column is taken: search on from its row
            remaining = [j for j in range(n) if j != sink]
            scanned = [sink]
            while True:
                row, base = cost[i], lowest - u[i]
                index, lowest = 0, shortest[remaining[0]]
                for it, j in enumerate(remaining):
                    d = base + row[j] - v[j]
                    s = shortest[j]
                    if d < s:
                        shortest[j] = s = d
                        path[j] = i
                    if s < lowest or (s == lowest and row4col[j] < 0):
                        index, lowest = it, s
                sink = remaining[index]
                remaining[index] = remaining[-1]
                remaining.pop()
                i = row4col[sink]
                if i < 0:
                    break
                scanned.append(sink)
            for j in scanned:
                delta = lowest - shortest[j]
                u[row4col[j]] += delta
                v[j] -= delta
        u[cur] += lowest
        j = sink
        while True:  # flip the path's assignments back to row ``cur``
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return sum(row[j] for row, j in zip(cost, col4row))


def bag_assignment_cost(a: WordBag, b: WordBag) -> int:
    """Minimal matching cost between two bags.

    Shared words are cancelled first (see the module docstring). The
    smaller remainder is padded with empty words (matching a word to the
    empty word costs its length, i.e. leaving it unmatched), which makes
    the optimal partial matching expressible as a square assignment.
    """
    rows, cols = list(a.words), []
    for word in b.words:
        try:
            rows.remove(word)
        except ValueError:
            cols.append(word)
    k = max(len(rows), len(cols))
    if k == 0:
        return 0
    rows += [""] * (k - len(rows))
    cols += [""] * (k - len(cols))
    packed = _PackedWords(cols)
    return linear_sum_assignment([packed.distances(word) for word in rows])


def lexical_distance(s1: str | WordBag, s2: str | WordBag) -> float:
    """Bag-of-words character edit distance on a 0-100 scale.

    Either side may be given as its :func:`tokenize` bag. Normalized by
    the larger bag's character count (0/0 is 0) and clamped:
    substitution-heavy matchings can slightly exceed the denominator.
    """
    a = s1 if isinstance(s1, WordBag) else tokenize(s1)
    b = s2 if isinstance(s2, WordBag) else tokenize(s2)
    denom = max(a.total_chars, b.total_chars)
    if denom == 0:
        return 0.0
    ratio = bag_assignment_cost(a, b) / denom
    return 100.0 * min(max(ratio, 0.0), 1.0)
