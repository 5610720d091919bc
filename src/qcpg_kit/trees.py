"""Bracketed constituency trees and the syntactic distance defined on them.

Trees arrive as Penn-Treebank-style bracketed text, e.g.::

    (S (NP (DT the) (NN cat)) (VP (VBD sat)))

The syntactic distance between two parses is the unit-cost tree edit
distance (Zhang-Shasha) between the trees after truncating them to their
top three levels and removing surface tokens, normalized by the larger
tree size and scaled to [0, 100]. A single node labelled x is at
distance ``|T| - [x occurs in T]`` from any tree T, so
:func:`tree_edit_distance` fills the rows and columns of leaf keyroots
by that rule and runs Zhang-Shasha's forest tables only between
non-leaf keyroots.

One tokenizer serves both readers of the text: :func:`parse_bracketed`
builds a :class:`ParseTree`, and :func:`parse_syntactic_form` builds the
pruned, token-stripped postorder form the distance compares in a single
pass, with no tree in between. :func:`prune_to_level`,
:func:`strip_tokens` and :func:`syntactic_form` give the same form from
a :class:`ParseTree`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

from .errors import EmptyLabel, TrailingInput, TreeSyntaxError, UnbalancedParens

DEFAULT_PRUNE_LEVEL = 3
_LABEL_FORBIDDEN = re.compile(r"[()\s]")


@dataclass(frozen=True)
class ParseTree:
    """A labeled ordered tree. Leaves are nodes with no children."""

    label: str
    children: tuple["ParseTree", ...] = ()

    def __post_init__(self):
        if not self.label:
            raise ValueError("node label must be non-empty")
        if _LABEL_FORBIDDEN.search(self.label):
            raise ValueError(f"node label may not contain parentheses or whitespace: {self.label!r}")

    # the dataclass's == and hash would recurse once per level; render walks a stack and is injective
    def __eq__(self, other):
        if not isinstance(other, ParseTree):
            return NotImplemented
        return self is other or self.render() == other.render()

    def __hash__(self) -> int:
        return hash(self.render())

    def node_count(self) -> int:
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count

    def render(self) -> str:
        """Serialize back to bracketed text; inverse of :func:`parse_bracketed`.

        Leaf children print bare; a childless root prints ``(A)``. Walks
        with an explicit stack, so no depth is too deep.
        """
        parts = ["(", self.label]
        stack = [None, *reversed(self.children)]  # None closes a node
        while stack:
            node = stack.pop()
            if node is None:
                parts.append(")")
            elif node.children:
                parts += (" (", node.label)
                stack.append(None)
                stack.extend(reversed(node.children))
            else:
                parts += (" ", node.label)
        return "".join(parts)


# The one tokenizer of the bracket grammar: parentheses and words; whitespace separates.
_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_PARENS = ("(", ")")


def _syntax_error(text: str, tokens: list[str], k: int) -> TreeSyntaxError:
    """The error for a token list whose first token breaking the grammar is ``tokens[k]``.

    Its offset is the UTF-8 byte offset of that token, or of the end of
    ``text`` when ``k == len(tokens)``.
    """
    if k == len(tokens):
        index = len(text)
    else:
        index = next(islice(_TOKEN.finditer(text), k, None)).start()
    offset = len(text[:index].encode("utf-8"))
    if k == 0:
        return UnbalancedParens("expected '(' at start of tree", offset)
    if tokens[k - 1] == "(":
        return EmptyLabel("expected a node label after '('", offset)
    if k == len(tokens):
        return UnbalancedParens("unexpected end of input; missing ')'", offset)
    return TrailingInput("unexpected text after complete tree", offset)


def _tokens(text: str) -> list[str]:
    """The tokens of one tree's text, which must open with '('."""
    tokens = _TOKEN.findall(text)
    if not tokens or tokens[0] != "(":
        raise _syntax_error(text, tokens, 0)
    return tokens


def parse_bracketed(text: str) -> ParseTree:
    """Parse one bracketed tree; reports errors with UTF-8 byte offsets.

    Bare words inside a node, such as ``the`` in ``(DT the)``, become
    leaf children; ``(A)`` is a childless root.
    """
    tokens = _tokens(text)
    m = len(tokens)
    # one [label, children] per open node
    stack: list[list] = []
    k = 0
    while k < m:
        tok = tokens[k]
        if tok == "(":
            k += 1
            if k == m or tokens[k] in _PARENS:
                raise _syntax_error(text, tokens, k)
            stack.append([tokens[k], []])
        elif tok == ")":
            label, children = stack.pop()
            node = ParseTree(label, tuple(children))
            if not stack:
                if k + 1 < m:
                    raise _syntax_error(text, tokens, k + 1)
                return node
            stack[-1][1].append(node)
        else:
            stack[-1][1].append(ParseTree(tok))
        k += 1
    raise _syntax_error(text, tokens, m)


def _rebuild(tree: ParseTree, descend) -> ParseTree:
    """A copy of ``tree`` in which a node at depth d keeps its children iff ``descend(node, d)``; the root is at 1."""
    # an explicit stack, so no depth is too deep: one (node, its children still to copy, their copies so far)
    # per open node, under a holder of the root
    stack = [(None, iter((tree,)), [])]
    while True:
        node, children, copies = stack[-1]
        child = next(children, None)
        if child is not None:
            stack.append((child, iter(child.children if descend(child, len(stack)) else ()), []))
        elif node is None:
            return copies[0]
        else:
            stack.pop()
            stack[-1][2].append(ParseTree(node.label, tuple(copies)))


def prune_to_level(tree: ParseTree, level: int = DEFAULT_PRUNE_LEVEL) -> ParseTree:
    """Keep only nodes at depth <= level, with the root at level 1."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return _rebuild(tree, lambda _, depth: depth < level)


# Labels made of uppercase letters (plus digits and common tag punctuation)
# are treated as structural (POS/phrase) labels; anything else on a leaf
# that is its parent's only child is a surface token.
_STRUCTURAL_LABEL = re.compile(r"^[A-Z0-9$#_.,:`'-]*[A-Z][A-Z0-9$#_.,:`'-]*$")


def strip_tokens(tree: ParseTree) -> ParseTree:
    """Remove surface-token leaves, keeping preterminal (POS) labels.

    A leaf counts as a token when it is the only child of its parent and
    its label does not look like a structural tag. Both conditions hold
    for tokens under unary preterminals (``(DT the)``) while leaf tags
    and leaf phrases survive, so the operation is idempotent on trees in
    treebank form.
    """
    return _rebuild(tree, lambda node, _: len(node.children) != 1 or node.children[0].children
                    or _STRUCTURAL_LABEL.match(node.children[0].label))


class FlatTree:
    """Postorder arrays used by the Zhang-Shasha recurrence.

    ``labels[i]`` is the label of the i-th node in postorder and
    ``lml[i]`` the postorder index of its leftmost leaf.
    """

    __slots__ = ("labels", "lml", "keyroots", "n")

    def __init__(self, labels: list[str], lml: list[int]):
        self.labels = labels
        self.lml = lml
        self.n = len(labels)
        # per leftmost leaf, the last node above it: the root and every node with a left sibling
        self.keyroots = sorted({l: i for i, l in enumerate(lml)}.values())

    @classmethod
    def of(cls, root: ParseTree) -> "FlatTree":
        """``root`` flattened as given, with an explicit stack: any depth is fine."""
        labels: list[str] = []
        lml: list[int] = []
        # one (node, its children still to visit, its first postorder index) per open node
        stack = [(root, iter(root.children), 0)]
        while stack:
            node, children, first = stack[-1]
            child = next(children, None)
            if child is None:
                stack.pop()
                labels.append(node.label)
                lml.append(first)
            else:
                stack.append((child, iter(child.children), len(labels)))
        return cls(labels, lml)


def syntactic_form(tree: ParseTree) -> FlatTree:
    """The form :func:`syntactic_distance` compares: pruned, token-stripped, flattened.

    Computing it once per tree and passing it to
    :func:`syntactic_distance` in place of the tree saves the pruning,
    stripping and flattening on every later pair.
    :func:`parse_syntactic_form` builds the same form from the tree's text.
    """
    return FlatTree.of(strip_tokens(prune_to_level(tree)))


def parse_syntactic_form(text: str) -> FlatTree:
    """``syntactic_form(parse_bracketed(text))`` in one pass over the tokens.

    Only the nodes at depth <= ``DEFAULT_PRUNE_LEVEL`` are emitted, in
    postorder. As a node closes, its only child is dropped when that
    child is a leaf of the pruned tree with a label that is not
    structural: the rule of :func:`strip_tokens`, applied to the pruned
    tree. Malformed text raises the error :func:`parse_bracketed`
    raises, at the same offset.
    """
    level = DEFAULT_PRUNE_LEVEL
    tokens = _tokens(text)
    m = len(tokens)
    labels: list[str] = []
    lml: list[int] = []
    # one [label, first postorder index, only child] per open node at depth <= level;
    # only child: None while it has no child in the pruned tree (always, at depth == level),
    # the label of a sole child that is a leaf of the pruned tree, else False
    stack: list[list] = []
    depth = k = 0
    while k < m:
        tok = tokens[k]
        if tok == "(":
            k += 1
            if k == m or tokens[k] in _PARENS:
                raise _syntax_error(text, tokens, k)
            depth += 1
            if depth <= level:
                stack.append([tokens[k], len(labels), None])
        elif tok == ")":
            if depth <= level:
                label, first, only = stack.pop()
                if only and not _STRUCTURAL_LABEL.match(only):
                    del labels[-1], lml[-1]  # a surface token under its preterminal
                labels.append(label)
                lml.append(first)
                if stack:
                    parent = stack[-1]
                    parent[2] = label if parent[2] is None and only is None else False
            depth -= 1
            if not depth:
                if k + 1 < m:
                    raise _syntax_error(text, tokens, k + 1)
                return FlatTree(labels, lml)
        elif depth < level:
            parent = stack[-1]
            parent[2] = tok if parent[2] is None else False
            lml.append(len(labels))
            labels.append(tok)
        k += 1
    raise _syntax_error(text, tokens, m)


def tree_edit_distance(a: ParseTree | FlatTree, b: ParseTree | FlatTree) -> int:
    """The fewest node edits transforming ``a`` into ``b`` (Zhang-Shasha).

    Edits are node insertion, deletion, and relabeling on ordered trees,
    each costing 1; ancestor and left-to-right relations are preserved.
    The result is an exact ``int``; it is 0 at once when ``a is b``.
    Either tree may also be given in the flattened form
    :func:`syntactic_form` returns.

    A keyroot that is a leaf is a single node, and a single node
    labelled x is at distance ``|T| - [x occurs in T]`` from a tree T:
    it maps onto a node of T with its label, or else is relabelled. So
    the subtree distances of every leaf keyroot of ``a`` (a row of the
    table) and of ``b`` (a column) are filled directly, once per distinct
    label, and forest tables run only between non-leaf keyroots. Those
    tables read subtree distances off their leftmost paths only for
    pairs of nodes whose keyroots are a leaf keyroot (filled first) or a
    pair of earlier non-leaf keyroots, so Zhang-Shasha's order still
    holds.
    """
    if a is b:
        return 0
    A = a if isinstance(a, FlatTree) else FlatTree.of(a)
    B = b if isinstance(b, FlatTree) else FlatTree.of(b)
    la, lb = A.lml, B.lml
    aL, bL = A.labels, B.labels

    def one_node(label: str, labels: list[str], lml: list[int]) -> list[int]:
        """The distance from one node labelled ``label`` to each subtree of the other tree."""
        out = []
        last = -1  # the last postorder index so far that carries the label
        for k, (x, l) in enumerate(zip(labels, lml)):
            if x == label:
                last = k
            out.append(k - l + (last < l))  # subtree k spans l..k
        return out

    td = [[0] * B.n for _ in range(A.n)]
    rows_by_label: dict[str, list[int]] = {}
    for i in A.keyroots:
        if la[i] == i:
            row = rows_by_label.get(aL[i])
            if row is None:
                row = rows_by_label[aL[i]] = one_node(aL[i], bL, lb)
            td[i] = row[:]
    cols_by_label: dict[str, list[int]] = {}
    for j in B.keyroots:
        if lb[j] == j:
            col = cols_by_label.get(bL[j])
            if col is None:
                col = cols_by_label[bL[j]] = one_node(bL[j], aL, la)
            for tdi, v in zip(td, col):
                tdi[j] = v

    # What every forest table against B's non-leaf keyroot j shares: its
    # first row, and for each column y the node by, the column of by's
    # leftmost leaf, and by's label when that leaf is lj (the cell is
    # then a distance between whole subtrees), else None.
    b_keyroots = []
    for j in B.keyroots:
        lj = lb[j]
        if lj == j:
            continue
        row0 = list(range(j - lj + 2))
        cols = [
            (y, by, lb[by] - lj, bL[by] if lb[by] == lj else None)
            for y, by in enumerate(range(lj, j + 1), start=1)
        ]
        b_keyroots.append((lj, j, row0, cols))

    for i in A.keyroots:
        li = la[i]
        if li == i:
            continue
        for lj, j, row0, cols in b_keyroots:
            # forest distance table: one row per node ax of A's forest li..i
            fd = [row0]
            for ax in range(li, i + 1):
                lax = la[ax]
                a_label = aL[ax] if lax == li else None
                tdax, fd_lax, prev = td[ax], fd[lax - li], fd[-1]
                left = prev[0] + 1
                row = [left]
                for y, by, b_col, b_label in cols:
                    v = prev[y] + 1
                    w = left + 1
                    if w < v:
                        v = w
                    if a_label is not None and b_label is not None:
                        w = prev[y - 1] + (a_label != b_label)
                        if w < v:
                            v = w
                        tdax[by] = v
                    else:
                        w = fd_lax[b_col] + tdax[by]
                        if w < v:
                            v = w
                    row.append(v)
                    left = v
                fd.append(row)
    return td[A.n - 1][B.n - 1]


def syntactic_distance(a: ParseTree | FlatTree, b: ParseTree | FlatTree) -> float:
    """Normalized structural distance between two raw parses, in [0, 100].

    Both trees are pruned to their top three levels and token-stripped,
    then compared with unit-cost tree edit distance normalized by the
    larger pruned tree size. Either argument may instead be its
    :func:`syntactic_form`, which is used as given.
    """
    fa, fb = (t if isinstance(t, FlatTree) else syntactic_form(t) for t in (a, b))
    ted = tree_edit_distance(fa, fb)
    denom = max(fa.n, fb.n)
    return 100.0 * min(max(ted / denom, 0.0), 1.0)
