"""Concrete finite carrier models and the built-in formula corpus.

An ultrametric model is a rooted tree whose leaves form the carrier; the
subtree-leaf sets ("balls") are a directed family by construction, with
level-k balls playing the role of radii.  An order model is a finite total
order whose proper initial segments form a nested directed family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from random import Random
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, ModelFormatError
from .forest import DirectedFamily
from .setsystem import ParametrizedFormula, SetFamily, Universe, distinct_keys, distinct_ranges


@dataclass(frozen=True)
class UltrametricModel:
    """Rooted tree given as a parent array (root has parent -1); the carrier is
    the set of leaves, indexed in ascending node-id order.  One depth-first
    pass, children in ascending id order, gives root, depth and leaves, and
    ranks the leaves in the order it meets them: carrier index x has
    rank[x], by_rank lists the carrier indices by rank, and ball(v) is the
    ranks lo[v] <= r < hi[v]."""

    parent: tuple[int, ...]
    seed: Optional[int] = None

    def __post_init__(self):
        parent = self.parent
        n = len(parent)
        roots = parent.count(-1)
        if roots != 1:
            raise ModelFormatError(f"parent array must have exactly one root, found {roots}")
        kids: list[list[int]] = [[] for _ in parent]
        for i, p in enumerate(parent):
            if 0 <= p < n:
                kids[p].append(i)
            elif p != -1:
                raise ModelFormatError(f"parent[{i}] = {p} out of range")
        root = parent.index(-1)
        depth, lo, hi = [0] * n, [0] * n, [0] * n
        ranked: list[int] = []  # leaf ids in rank order
        # a node's exit is pushed as ~node below its children; d counts the
        # nodes entered and not left, r the leaves met
        stack, d, r = [root], 0, 0
        while stack:
            v = stack.pop()
            if v < 0:
                hi[~v] = r
                d -= 1
                continue
            lo[v], depth[v] = r, d
            if kids[v]:
                stack.append(~v)
                stack.extend(kids[v][::-1])
                d += 1
            else:
                ranked.append(v)
                r += 1
                hi[v] = r
        # a node the pass reaches has a leaf below it, so hi > 0: reachability
        # from the root doubles as a cycle check
        if 0 in hi:
            raise ModelFormatError("parent array contains a cycle or unreachable nodes")
        if len(ranked) < 2:
            raise ModelFormatError("ultrametric model needs at least 2 leaves")
        Universe(len(ranked))  # leaf count against the universe cap
        rank = np.argsort(ranked)  # the x-th smallest leaf id is ranked[rank[x]]
        depth, lo, hi = np.array([depth, lo, hi])
        vars(self).update(
            root=root, leaves=tuple(sorted(ranked)),
            depth=depth, lo=lo, hi=hi, rank=rank, by_rank=np.argsort(rank),
        )

    @classmethod
    def _preorder(cls, parent: tuple, seed, depth: list, count: list) -> UltrametricModel:
        """The model of a parent array whose ids are a depth-first preorder,
        children in ascending id order, given each node's depth and leaf
        count, with the attributes __post_init__ would derive.  The root is
        node 0, the leaves rank in id order, and lo[v] counts the leaves
        before node v."""
        self = object.__new__(cls)
        depth, lo, hi = np.array([depth, count, count])
        leaf = hi == 1
        lo[:] = np.cumsum(leaf) - leaf
        hi += lo
        leaves = np.flatnonzero(leaf)
        rank = np.arange(len(leaves))
        vars(self).update(
            parent=parent, seed=seed, root=0, leaves=tuple(leaves.tolist()),
            depth=depth, lo=lo, hi=hi, rank=rank, by_rank=rank,
        )
        return self

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Per node id, the ids of its children, ascending."""
        kids: list[list[int]] = [[] for _ in self.parent]
        for i, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(i)
        return tuple(map(tuple, kids))

    @cached_property
    def non_unary(self) -> np.ndarray:
        """Ids of the leaves and of the nodes with two or more children, whose
        balls are the distinct balls: a unary node's ball is its child's."""
        # bin p + 1 counts the children of node p; bin 0 the root's parent -1
        kids = np.bincount(np.array(self.parent) + 1, minlength=self.n_nodes + 1)
        return np.flatnonzero(kids[1:] != 1)

    @property
    def size(self) -> int:
        return len(self.leaves)

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    def ball(self, node: int) -> frozenset[int]:
        return frozenset(self.by_rank[self.lo[node] : self.hi[node]].tolist())

    @property
    def label(self) -> str:
        return f"ultrametric-L{self.size}-s{self.seed}"

    # cached numpy views

    @cached_property
    def ball_bool(self) -> np.ndarray:
        """(nodes, L) matrix: is the leaf at carrier index i below node v."""
        out = self.lo[:, None] <= self.rank
        for v in range(0, len(out), 256):  # row blocks of <= 1 MB, no second matrix
            out[v : v + 256] &= self.rank < self.hi[v : v + 256, None]
        return out

    @cached_property
    def lca_node_matrix(self) -> np.ndarray:
        """(L, L) matrix: lca node id of the leaves at carrier indices (i, j).
        No counting path reads it (they call lca_of); the benchmark's model
        views timing still builds it."""
        mat = np.full((self.size, self.size), self.root, dtype=np.int32)
        # parents before children, so the deepest common node is written last
        for node in np.argsort(self.depth, kind="stable")[1:].tolist():
            idx = self.by_rank[self.lo[node] : self.hi[node]]
            mat[np.ix_(idx, idx)] = node
        return mat

    @cached_property
    def lca_table(self) -> np.ndarray:
        """Sparse table over the 2L - 1 places of the leaf order (Bender and
        Farach-Colton, "The LCA Problem Revisited"): place 2r holds the leaf
        of rank r, and place 2r + 1 lca(rank r, rank r + 1), the parent of the
        one child c that is not its parent's first and has lo[c] = r + 1.  A
        place holds the key depth * n_nodes + node, and row k the least key
        over the 2**k places from each place on."""
        parent, n, width = np.array(self.parent), self.n_nodes, 2 * self.size - 1
        key = self.depth * n + np.arange(n)
        # rows k < width.bit_length() have 2**k <= width places in a window
        table = np.empty((width.bit_length(), width), dtype=np.int64)
        table[0, ::2] = key[np.array(self.leaves)[self.by_rank]]
        c = np.flatnonzero(parent >= 0)
        c = c[self.lo[c] > self.lo[parent[c]]]
        table[0, 2 * self.lo[c] - 1] = key[parent[c]]
        for k in range(1, len(table)):
            prev, row, step = table[k - 1], table[k], 1 << (k - 1)
            np.minimum(prev[:-step], prev[step:], out=row[:-step])
            row[-step:] = prev[-step:]
        return table

    def lca_of(self, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
        """lca node ids of the leaves at carrier index arrays y0, y1: for ranks
        a <= b, the least lca_table key over places 2a ... 2b, the leaf itself
        when a = b, else the shallowest adjacent lca between them.  Two
        windows of 2**k places, k = floor(log2(2b - 2a + 1)), cover the span."""
        r0, r1 = self.rank[y0], self.rank[y1]
        a, b = 2 * np.minimum(r0, r1), 2 * np.maximum(r0, r1)
        k = np.frexp(b - a + 1)[1] - 1
        table = self.lca_table
        return np.minimum(table[k, a], table[k, b + 1 - (1 << k)]) % self.n_nodes

    @cached_property
    def _anc_arrays(self) -> dict[int, np.ndarray]:
        return {}

    def ancestor_array(self, k: int) -> np.ndarray:
        """Per carrier index, the node id k levels above its leaf, clamped at
        the root: min(k, height) steps up the parent array, in which the root
        is its own parent."""
        if k not in self._anc_arrays:
            up = np.array(self.parent)
            up[self.root] = self.root
            nodes = np.array(self.leaves)
            for _ in range(min(k, int(self.depth.max()))):
                nodes = up[nodes]
            self._anc_arrays[k] = nodes
        return self._anc_arrays[k]

    def distinct_nodes(self, ids: np.ndarray) -> np.ndarray:
        """The distinct node ids among ids, ascending, as np.unique gives
        them.  np.unique would import numpy.ma on its first call in a
        process: 14.5 ms of a growth command on a shared 2-core VM."""
        return np.flatnonzero(np.bincount(ids, minlength=self.n_nodes))

    def distinct_node_pairs(self, u: np.ndarray, v: np.ndarray) -> tuple:
        """The distinct pairs (u[i], v[i]) of node ids, as two arrays in
        ascending (u, v) order; v may be n_nodes, which stands for no second
        node."""
        w = self.n_nodes + 1
        return np.divmod(distinct_keys(u.astype(np.int64) * w + v), w)

    # ball membership.  x, y0 and y1 are int arrays of carrier indices that
    # broadcast together: a (T,) object column against a (k, 1) parameter
    # block gives a (k, T) matrix, one row per member of the block.

    def contains(self, u, v):
        """ball(v) lies inside ball(u), u and v int arrays of node ids."""
        return (self.lo[u] <= self.lo[v]) & (self.hi[v] <= self.hi[u])

    def in_ball(self, x, v):
        """x is in ball(v), v an int array of node ids."""
        r = self.rank[x]
        return (self.lo[v] <= r) & (r < self.hi[v])

    def in_lca_ball(self, x, y0, y1):
        """x is in the ball at lca(y0, y1)."""
        return self.in_ball(x, self.lca_of(y0, y1))

    def in_ball_above(self, x, y, k: int):
        """x is in the ball k levels above y, clamped at the root."""
        return self.in_ball(x, self.ancestor_array(k)[y])


@dataclass(frozen=True)
class OrderModel:
    """Finite total order 0 < 1 < ... < size-1."""

    size: int
    seed: Optional[int] = None

    def __post_init__(self):
        Universe(self.size)  # range validation

    @property
    def label(self) -> str:
        return f"order-N{self.size}-s{self.seed}"


CarrierModel = Union[UltrametricModel, OrderModel]


def mt_words(rng: Random, count: int) -> np.ndarray:
    """rng's next `count` 32-bit Mersenne Twister outputs, in stream order,
    as uint32: getrandbits(32 * count) returns them with the first in the
    least significant word.  CPython's getrandbits(k), k <= 32, is the top k
    bits of one output."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")


def sample_setsize(k: int) -> int:
    """random.sample's pool/set threshold for k draws: 21, plus
    4 ** ceil(log(3k, 4)) when k > 5.  3k is no power of 2, so its bit
    length is ceil(log2(3k)).  sample(population, k) draws from a shrinking
    pool when len(population) <= sample_setsize(k), else from a set."""
    return 21 + (4 ** (((3 * k).bit_length() + 1) // 2) if k > 5 else 0)


def random_ultrametric(leaf_count: int, max_branching: int, seed: int) -> UltrametricModel:
    """Seed-deterministic rooted tree with exactly leaf_count leaves and
    branching factors between 2 and max_branching.

    Nodes are numbered depth-first from the root.  With rng =
    Random(f"ultrametric/{leaf_count}/{max_branching}/{seed}"), a node over
    n > 1 leaves gets b = rng.randint(2, min(max_branching, n)) children,
    whose leaf counts are the gaps between 0, sorted(rng.sample(range(1, n),
    b - 1)) and n, first child first; a node over one leaf is a leaf.

    Those calls are replayed on rng's output words, read in bulk (mt_words),
    as CPython makes them: _randbelow(k) is the top k.bit_length() bits of
    one word, redrawn while >= k; randint(2, hi) is 2 + _randbelow(hi - 1);
    sample(range(1, n), c) takes j = _randbelow(n - 1 - i) from a shrinking
    pool for i < c when n - 1 <= sample_setsize(c), else keeps the first c
    distinct _randbelow(n - 1) draws.  The tree is the one the calls build."""
    if leaf_count < 2:
        raise DomainError(f"leaf_count must be >= 2, got {leaf_count}")
    if max_branching < 2:
        raise DomainError(f"max_branching must be >= 2, got {max_branching}")
    Universe(leaf_count)  # before the build: every draw then fits one word
    rng = Random(f"ultrametric/{leaf_count}/{max_branching}/{seed}")
    # trees took 2.2 to 3.8 words per leaf (branching 2 to 4096); words are
    # read at most 1024 at a time, and more whenever these run out
    chunk = min(4 * leaf_count + 32, 1024)
    words = chain.from_iterable(iter(lambda: mt_words(rng, chunk).tolist(), None))

    def below(k: int) -> int:
        shift = 32 - k.bit_length()
        r = next(words) >> shift
        while r >= k:
            r = next(words) >> shift
        return r

    # the pass enters the nodes in id order, a preorder, and records each
    # node's depth and leaf count, from which _preorder reads the balls' ranks
    parent: list[int] = []
    depth: list[int] = []
    count: list[int] = []
    stack = [(leaf_count, -1, 0)]
    while stack:
        n_leaves, par, d = stack.pop()
        node = len(parent)
        parent.append(par)
        depth.append(d)
        count.append(n_leaves)
        if n_leaves == 1:
            continue
        d += 1
        c = below(min(max_branching, n_leaves) - 1) + 1  # b - 1 cuts
        n = n_leaves - 1
        if c == 1:
            # both of sample's paths take range(1, n_leaves)[_randbelow(n)]
            cut = below(n) + 1
            stack.append((n_leaves - cut, node, d))
            stack.append((cut, node, d))
            continue
        if n <= sample_setsize(c):
            pool = list(range(1, n_leaves))
            cuts = []
            for i in range(n, n - c, -1):
                j = below(i)
                cuts.append(pool[j])
                pool[j] = pool[i - 1]
        else:
            seen: set[int] = set()
            while len(seen) < c:
                seen.add(below(n))
            cuts = [j + 1 for j in seen]
        cuts.sort()
        sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [n_leaves])]
        stack.extend((s, node, d) for s in reversed(sizes))
    return UltrametricModel._preorder(tuple(parent), seed, depth, count)


def ball_family(model: UltrametricModel) -> DirectedFamily:
    """The family {ball(v) : v a tree node}, indexed by node id; directed by
    construction, so it is not scanned for crossings (check_directed does
    that).  Each set is a slice of the carrier indices in rank order."""
    flat = model.by_rank.tolist()
    sets = tuple(frozenset(flat[a:b]) for a, b in zip(model.lo.tolist(), model.hi.tolist()))
    return DirectedFamily(SetFamily(Universe(model.size), sets), checked=True)


# --- formula corpus ---------------------------------------------------------


@dataclass(frozen=True)
class CorpusFormula:
    """One formula phi(x; y0, y1) of the growth corpus.

    `pred(model, x, y0, y1)` takes int arrays of carrier indices that
    broadcast together, and gives the bools of their broadcast shape;
    `growth_formula` reads it at either partition, an object column against
    a (k, 1) parameter block.  `name` is the formula column of the growth CSV,
    `carriers` the model types that can evaluate it and `arities` the object
    arities a growth run may read it at.

    At object arity 2 an entry declares one of two factorings through the
    parameter column xs (m carrier indices), each over xs sorted by leaf
    rank (by value for pair-equality): that permutes the columns of every
    sign row, which keeps their count.

    `ranges(model, xs)`, declared by the union kinds phi = x in S(y0) or
    x in S(y1): int arrays (a, b) such that the profiles xs ∩ S(y) of the
    carrier elements y, possibly repeated, are exactly the sorted positions
    a[i] <= j < b[i].  The sign rows that object pairs realize are exactly
    the unions of two profiles.  The S(y) = ball_k(y) of twin-ball-k are
    rank ranges of one tree, and the S(y) = {y} of pair-equality are
    points, so any two nest or are disjoint: the profiles form a laminar
    family, whose unions setsystem.laminar_union_count counts.

    `row_ranges(model, xs, afford)`, declared by lca-ball and boolean-mix:
    four int arrays (a1, b1, a2, b2) of R entries such that the symmetric
    differences of the sorted positions [a1[i], b1[i]) and [a2[i], b2[i]),
    possibly repeated, are exactly the sign rows over xs that some object
    pair realizes; the two ranges of an entry nest or are disjoint, and
    (0, 0) stands for no second range.  The cell counts the distinct sets
    (setsystem.range_set_count).  An entry that builds its R entries from
    pairs calls afford(R) first, which raises ResourceCapError when R rows
    cost more than the cell may spend.

    `set_ranges(model, y0, y1)`, declared by the entries with object arity
    1, is the formula at that arity factored through its parameters: for m
    pairs given as index arrays y0, y1, four int arrays (a1, b1, a2, b2) of
    m' <= m entries such that the symmetric differences of the rank ranges
    [a1[j], b1[j]) and [a2[j], b2[j]), possibly repeated and in any order,
    are exactly the sets {x : phi(x; y0[j], y1[j])} in leaf ranks.  The two
    ranges of an entry nest or are disjoint, and (0, 0) stands for no
    second range.  Each set is fixed by one or two tree nodes, so the entry
    dedupes those nodes' int keys and gives the ranges of the distinct keys
    only.  A repeated set repeats a column of the x sign rows, so it cannot
    change their count.
    """

    name: str
    carriers: tuple[type, ...]
    arities: tuple[int, ...]
    pred: Callable
    ranges: Optional[Callable] = None
    row_ranges: Optional[Callable] = None
    set_ranges: Optional[Callable] = None


def _pair_ranges(M: UltrametricModel, u: np.ndarray, v: np.ndarray) -> tuple:
    """The rank ranges of ball(u) and ball(v), once per distinct node pair
    (u, v); v = n_nodes, no second ball, gives the range (0, 0)."""
    u, v = M.distinct_node_pairs(u, v)
    lo, hi = np.append(M.lo, 0), np.append(M.hi, 0)
    return M.lo[u], M.hi[u], lo[v], hi[v]


def _twin_ball_sets(k: int, M: UltrametricModel, y0: np.ndarray, y1: np.ndarray) -> tuple:
    # ball(a) | ball(b) is the larger ball when the two nest, else it is keyed
    # by the unordered pair {a, b} of disjoint balls, whose union is their XOR
    a, b = M.ancestor_array(k)[y0], M.ancestor_array(k)[y1]
    a_top, b_top = M.contains(a, b), M.contains(b, a)
    u = np.where(a_top, a, np.where(b_top, b, np.minimum(a, b)))
    v = np.where(a_top | b_top, M.n_nodes, np.maximum(a, b))
    return _pair_ranges(M, u, v)


def _ball_ranges(M: UltrametricModel, nodes: np.ndarray, xs: np.ndarray) -> tuple:
    """Per node, the positions [a, b) in sorted(rank[xs]) of its ball."""
    r = np.sort(M.rank[xs])
    return np.searchsorted(r, M.lo[nodes]), np.searchsorted(r, M.hi[nodes])


def _point_ranges(M: CarrierModel, xs: np.ndarray) -> tuple:
    """Per carrier element y, the positions [a, b) in sorted(xs) of y."""
    s, y = np.sort(xs), np.arange(M.size)
    return np.searchsorted(s, y), np.searchsorted(s, y, side="right")


def _twin_ball(k: int) -> CorpusFormula:
    return CorpusFormula(
        f"twin-ball-{k}", (UltrametricModel,), (1, 2),
        lambda M, x, y0, y1: M.in_ball_above(x, y0, k) | M.in_ball_above(x, y1, k),
        ranges=lambda M, xs: _ball_ranges(M, M.ancestor_array(k), xs),
        set_ranges=lambda M, y0, y1: _twin_ball_sets(k, M, y0, y1),
    )


def _alone(a: np.ndarray, b: np.ndarray) -> tuple:
    """The ranges [a[i], b[i]), each with (0, 0), no second range."""
    return a, b, np.zeros_like(a), np.zeros_like(a)


def _boolean_mix_rows(M: UltrametricModel, xs: np.ndarray, afford: Callable) -> tuple:
    # a row is A minus N, A = xs ∩ ball_2(y0) and N = xs ∩ ball_1(y1): position
    # ranges over sorted xs from one tree, so they nest or are disjoint.  The
    # empty range, if any, comes first from distinct_ranges, as (0, 0)
    pa, pb = distinct_ranges(*_ball_ranges(M, M.ancestor_array(2), xs))
    na, nb = distinct_ranges(*_ball_ranges(M, M.ancestor_array(1), xs))
    empty_a, empty_n = int(pb[0] == 0), int(nb[0] == 0)
    pa, pb, na, nb = pa[empty_a:], pb[empty_a:], na[empty_n:], nb[empty_n:]
    # by start, then by end descending, the N inside A (N != A) are the keys
    # N.a * w + w - 1 - N.b from A.a * w + w - A.b up to A.b * w
    w = len(xs) + 1
    keys = np.sort(na * w + w - 1 - nb)
    lo = np.searchsorted(keys, pa * w + w - pb)
    inside = np.searchsorted(keys, pb * w) - lo
    disjoint = np.searchsorted(np.sort(nb), pa, side="right") + len(na) - np.searchsorted(na, pb)
    # A minus N: A when N is empty or disjoint from A, the empty set when A is
    # empty or N holds A, and A XOR N when N lies inside A
    whole = (disjoint > 0) | bool(empty_n)
    empty = int(empty_a or (inside + disjoint < len(na)).any())
    plain = int(whole.sum()) + empty
    afford(plain + int(inside.sum()))
    # each A's pairs take the keys of its block in turn
    pair = np.repeat(np.arange(len(pa)), inside)
    at = lo[pair] + np.arange(len(pair)) - (np.cumsum(inside) - inside)[pair]
    n_a, n_b = np.divmod(keys[at], w)
    none = np.zeros(plain, dtype=np.int64)
    a1, b1 = (np.concatenate([x[whole], none[:empty], x[pair]]) for x in (pa, pb))
    return a1, b1, np.concatenate([none, n_a]), np.concatenate([none, w - 1 - n_b])


def _boolean_mix_sets(M: UltrametricModel, y0: np.ndarray, y1: np.ndarray) -> tuple:
    # ball(p) minus ball(n): p XOR n, keyed (p, n), when ball(n) lies inside
    # ball(p), p alone when the balls are disjoint, and (root, root), the
    # empty set, when ball(p) lies inside ball(n)
    p, n = M.ancestor_array(2)[y0], M.ancestor_array(1)[y1]
    empty, cut = M.contains(n, p), M.contains(p, n)
    u = np.where(empty, M.root, p)
    v = np.where(empty, M.root, np.where(cut, n, M.n_nodes))
    return _pair_ranges(M, u, v)


def _lca_ball_sets(M: UltrametricModel, y0: np.ndarray, y1: np.ndarray) -> tuple:
    v = M.distinct_nodes(M.lca_of(y0, y1))
    return _alone(M.lo[v], M.hi[v])


# lca-ball: x in the ball at lca(y0, y1).  Its rows are the balls of the
# leaves and the branching nodes: a leaf v is lca(v, v), a node with two
# children is the lca of a leaf below each, and a node with one child has
# that child's ball.
# twin-ball-k: x in ball_k(y0) | ball_k(y1), ball_k(b) sitting k levels above b.
# boolean-mix: x in ball_2(y0) and not in ball_1(y1).
# pair-equality: x = y0 or x = y1, the quadratic-growth witness at arity 2.
CORPUS = {
    "lca-ball": CorpusFormula(
        "lca-ball", (UltrametricModel,), (1, 2),
        lambda M, x, y0, y1: M.in_lca_ball(x, y0, y1),
        row_ranges=lambda M, xs, afford: _alone(*_ball_ranges(M, M.non_unary, xs)),
        set_ranges=_lca_ball_sets,
    ),
    "twin-ball-0": _twin_ball(0),
    "twin-ball-1": _twin_ball(1),
    "twin-ball-2": _twin_ball(2),
    "boolean-mix": CorpusFormula(
        "boolean-mix-2-1", (UltrametricModel,), (1, 2),
        lambda M, x, y0, y1: M.in_ball_above(x, y0, 2) & ~M.in_ball_above(x, y1, 1),
        row_ranges=_boolean_mix_rows,
        set_ranges=_boolean_mix_sets,
    ),
    "pair-equality": CorpusFormula(
        "pair-equality", (UltrametricModel, OrderModel), (2,),
        lambda M, x, y0, y1: (x == y0) | (x == y1),
        ranges=_point_ranges,
    ),
}

GROWTH_KINDS = tuple(CORPUS)


def growth_formula(kind: str, arity: int) -> ParametrizedFormula:
    """The formula for a growth run, partitioned for the requested object arity.

    At arity 1 the object is x and the parameters are (y0, y1); at arity 2 the
    roles are exchanged, so (y0, y1) is the object and x the parameter.
    """
    if kind not in CORPUS:
        raise DomainError(f"unknown formula kind {kind!r}; known: {GROWTH_KINDS}")
    spec = CORPUS[kind]
    if arity not in spec.arities:
        raise DomainError(f"{kind} has no object arity {arity}; it has {spec.arities}")
    pred = spec.pred
    if arity == 1:
        return ParametrizedFormula(
            spec.name, 1, 2, lambda M, objs, y: pred(M, objs[:, 0], y[0], y[1])
        )
    return ParametrizedFormula(
        spec.name, 2, 1, lambda M, objs, u: pred(M, u[0], objs[:, 0], objs[:, 1])
    )


# --- model files -----------------------------------------------------------


def save_model(model: Union[CarrierModel, SetFamily], path) -> None:
    if isinstance(model, UltrametricModel):
        doc = {"kind": "ultrametric", "parent": list(model.parent), "seed": model.seed}
    elif isinstance(model, OrderModel):
        doc = {"kind": "order", "size": model.size, "seed": model.seed}
    elif isinstance(model, SetFamily):
        doc = {
            "kind": "family",
            "universe": model.universe.size,
            "sets": [sorted(s) for s in model.sets],
        }
    else:
        raise DomainError(f"cannot save object of type {type(model).__name__}")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _integers(what: str, values) -> list[int]:
    values = list(values)
    for v in values:
        if type(v) is not int:
            raise ModelFormatError(f"{what} must be integers, got {v!r}")
    return values


def _seed(doc: dict) -> Optional[int]:
    seed = doc.get("seed")
    if seed is not None and type(seed) is not int:
        raise ModelFormatError(f"seed must be an integer or null, got {type(seed).__name__}")
    return seed


def load_model(path) -> Union[CarrierModel, SetFamily]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"{path}: malformed JSON at line {e.lineno}: {e.msg}") from e
    except (UnicodeDecodeError, RecursionError) as e:
        raise ModelFormatError(f"{path}: not a JSON model file: {e}") from e
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ModelFormatError(f"{path}: expected an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "ultrametric":
            parent = _integers("parent entries", doc["parent"])
            return UltrametricModel(tuple(parent), seed=_seed(doc))
        if kind == "order":
            return OrderModel(int(doc["size"]), seed=_seed(doc))
        if kind == "family":
            sets = [_integers("set members", s) for s in doc["sets"]]
            return SetFamily.of(int(doc["universe"]), sets)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"{path}: {e}") from e
    raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
