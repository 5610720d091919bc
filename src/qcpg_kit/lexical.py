"""Word-order-independent lexical distance between sentences.

A sentence is reduced to a bag (multiset) of lowercased tokens; the
distance is the minimal total character-level edit distance over all
ways of matching the two bags, with unmatched words paying their own
length. The optimal matching is solved exactly as a linear assignment.

Two steps keep that exact and cheap. Words the two bags share are
cancelled first: character edit distance extended with the empty word
is a metric, so by the triangle inequality some optimal matching pairs
each shared word with its copy at cost 0. The remaining k×k cost matrix
is filled in one pass of the bit-parallel Levenshtein algorithm of Myers
(1999), in Hyyrö's (2001) form for global distance, on one
arbitrary-width integer (:func:`_lane_costs`). The column words sit in
lanes of a fixed power-of-two width, and that row of lanes is repeated
once per row word, so the integer holds one block per row word. The
row words, longest first, all advance one character per step, each in
its own block, and a block is set aside when its word ends, so a pass
costs as many steps as the longest row word has characters. A lane-wise
popcount then leaves each cell's d(i, j) - len(row i) + lane width in
its lane's low bytes, and one ``int.to_bytes`` turns those into the
rows the assignment reads. The added row term is the same for every column of a
row, and a perfect matching takes each row once, so it shifts every
matching's cost by the same constant and the optimum stays where it was.

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

import struct
import unicodedata
from dataclasses import dataclass
from itertools import zip_longest


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


_UNIT = {2: "H", 4: "I", 8: "Q"}  # struct code of a read unit of that many bytes


def _lane_costs(rows: list[str], cols: list[str]) -> tuple[list, int]:
    """Levenshtein distance from every row word to every column word, in one pass.

    ``rows`` and ``cols`` hold k words each, padded with empty words.
    Returns ``(cells, offset)``. ``cells`` holds one row per row word,
    longest word first, each a sequence of k ints; cell
    (i, j) is d(i, j) - n_i + w, where n_i is the length of row word i
    and w the lane width below, so a perfect matching of cost c over
    ``cells`` costs c + ``offset`` over the distances, ``offset`` being
    the sum of the n_i minus k*w. For one row and one column the
    distance is ``cells[0][0] + offset``.

    Bit i*B + j*w + t stands for character t of column word j in the
    block of row word i, with B = k*w. The lane width w, a power of two
    of at least 8, is larger than every column word, so each lane ends in
    at least one spacer bit that ``vp`` keeps clear: a carry stops there,
    and the bit that ``hp`` shifts out of a lane is overwritten by ``low``
    or lands in an empty word's spacer. ``vp``/``vn`` hold the +1/-1
    vertical deltas of each block's current column of the
    dynamic-programming matrix; a carry in ``d0`` never reaches ``vn``,
    as it needs the word's top bit set in ``vp``, where ``hp`` is clear.
    At step t every live row word adds its t-th character's match mask to
    ``eq``. Rows are sorted longest first, so the live rows are a prefix
    of the blocks, and the blocks of rows that end are set aside whole.
    """
    k = len(cols)
    w = max(8, 1 << max(map(len, cols)).bit_length())
    block = k * w
    peq: dict[str, int] = {}  # character -> its positions in the column words
    low = full = 0  # first bit of every non-empty column word; every word bit
    get = peq.get
    first = 1
    for word in cols:
        if word:
            low |= first
            full |= first * ((1 << len(word)) - 1)
            bit = first
            for ch in word:
                peq[ch] = get(ch, 0) | bit
                bit <<= 1
        first <<= w
    rows = sorted(rows, key=len, reverse=True)
    lengths = [len(word) for word in rows]
    n_bytes = k * block // 8

    def pattern(unit: bytes) -> int:
        return int.from_bytes(unit * (n_bytes // len(unit)), "little")

    blocks = pattern(b"\x01" + bytes(block // 8 - 1))  # bit i*B for every row block
    full *= blocks
    low *= blocks
    vp, vn = full, 0
    ended_vp = ended_vn = 0
    live = k
    for t, chars in enumerate(zip_longest(*rows)):
        if lengths[live - 1] <= t:  # set the rows that ended aside
            while lengths[live - 1] <= t:
                live -= 1
            cut = live * block
            ended_vp |= vp >> cut << cut
            ended_vn |= vn >> cut << cut
            keep = (1 << cut) - 1
            vp &= keep
            vn &= keep
            full &= keep
            low &= keep
        eq = shift = 0
        for ch in chars[:live]:
            eq |= get(ch, 0) << shift
            shift += block
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        hp = (hp << 1) | low
        hn <<= 1
        vp = (hn | ~(d0 | hp)) & full
        vn = hp & d0
    vp |= ended_vp
    vn |= ended_vn
    # Lane-wise popcounts: each nibble, then each byte, holds 4 (then 8)
    # plus its +1 deltas minus its -1 deltas.
    m1, m2, m4 = pattern(b"\x55"), pattern(b"\x33"), pattern(b"\x0f")
    vp -= (vp >> 1) & m1
    vp = (vp & m2) + ((vp >> 2) & m2)
    vn -= (vn >> 1) & m1
    vn = (vn & m2) + ((vn >> 2) & m2)
    x = vp + pattern(b"\x44") - vn
    x = (x & m4) + ((x >> 4) & m4)
    # A lane sums to w + d - n_i, below 2w: widen the fields to the read
    # unit of c bytes that holds that, then fold each lane onto its lowest
    # unit. Any w consecutive bits hold some lane's top bit, a spacer that
    # is clear in vp, so no field overflows on the way.
    c = 1
    while 2 * w > 256**c:
        mask = pattern(b"\xff" * c + bytes(c))
        x = (x & mask) + ((x >> 8 * c) & mask)
        c *= 2
    span = 8 * c
    while span < w:
        x += x >> span
        span *= 2
    cells = x.to_bytes(n_bytes, "little")
    if c > 1:
        cells = struct.unpack(f"<{n_bytes // c}{_UNIT[c]}", cells)
    lane = w // (8 * c)  # read units per lane
    stride = k * lane
    return [cells[i:i + stride:lane] for i in range(0, k * stride, stride)], sum(lengths) - k * w


def char_edit_distance(w1: str, w2: str) -> int:
    """Levenshtein distance over Unicode scalar values."""
    cells, offset = _lane_costs([w1], [w2])
    return cells[0][0] + offset


def linear_sum_assignment(cost: list[list[int]]) -> int:
    """Least total cost of a perfect matching of the square integer matrix ``cost``.

    Shortest augmenting paths with row and column potentials (Jonker and
    Volgenant 1987, in the form of Crouse 2016): each row in turn is
    matched by a Dijkstra search over reduced costs, which the potentials
    keep non-negative, so the search can stop at the first free column it
    settles; among equal distances a free column is settled first. Every
    quantity is an integer, so the result is exact. O(k³) for k×k. A row
    may be any sequence of ints, ``bytes`` included.
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
        if word in rows:
            rows.remove(word)
        else:
            cols.append(word)
    k = max(len(rows), len(cols))
    if k == 0:
        return 0
    rows += [""] * (k - len(rows))
    cols += [""] * (k - len(cols))
    cells, offset = _lane_costs(rows, cols)
    return linear_sum_assignment(cells) + offset


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
