"""Directed families, quasi-forests, the tree of types, and convex orderings.

A directed (laminar) family orders its member sets by reverse inclusion into a
forest.  Parameter-formula pairs whose extents coincide are kept as distinct
raw nodes but quotiented into one class; all counting lemmas are stated at the
class level while raw counts give the stated bounds.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ValidationError
from .setsystem import ParametrizedFormula, SetFamily, sign_matrix


@dataclass(frozen=True)
class CrossingPair:
    """Witness that sets i and j overlap without nesting."""

    i: int
    j: int


# the working arrays of one row chunk of first_crossing: 1 MB keeps the
# 512-set families of verify-lemmas (four chunks) from raising its peak memory
_CROSSING_BYTES = 1 << 20


def first_crossing(member: np.ndarray) -> Optional[CrossingPair]:
    """Lexicographically first pair of rows S_i, S_j of an (n, U) bool member
    matrix that are neither nested nor disjoint, or None if there is none.

    Sets i and j cross exactly when 0 < |S_i & S_j| < min(|S_i|, |S_j|).  Each
    set is packed into 64-element words, and the intersection sizes are
    popcounts of ANDed words, summed one word position at a time over the
    sets holding some element of that word (the only ones it can add to).
    Rows go in chunks, in order, so that the working arrays fit
    _CROSSING_BYTES; the first crossing of a chunk in row-major order is the
    first of the family once the chunks above it have none."""
    n, u = member.shape
    packed = np.zeros((n, -(-u // 64) * 8), dtype=np.uint8)
    packed[:, : -(-u // 8)] = np.packbits(member, axis=1)
    # words[w, i]: set i's members among elements 64w .. 64w + 63
    words = np.ascontiguousarray(packed.view(np.uint64).T)
    holders = [np.flatnonzero(word) for word in words]
    sizes = np.count_nonzero(member, axis=1)
    # per chunk: the (side, n) int32 sums, three (side, n) bool masks, and
    # per word the uint64 AND and its uint8 popcount of at most (side, n)
    side = max(1, _CROSSING_BYTES // (16 * max(1, n)))
    for lo in range(0, n, side):
        hi = min(lo + side, n)
        # pairs i < j only: the chunk's rows against columns lo and on
        inter = np.zeros((hi - lo, n - lo), dtype=np.int32)
        for word, cols in zip(words, holders):
            rows = word[lo:hi]
            cols = cols[np.searchsorted(cols, lo):]
            if len(cols) and rows.any():
                a, b = cols[0], cols[-1] + 1
                # a run of holders is summed in place, others gathered
                at = slice(a - lo, b - lo) if b - a == len(cols) else cols - lo
                inter[:, at] += np.bitwise_count(rows[:, None] & word[cols])
        cross = inter > 0
        cross &= inter < sizes[lo:]
        cross &= inter < sizes[lo:hi, None]
        cross &= np.arange(lo, n) > np.arange(lo, hi)[:, None]
        first = int(np.argmax(cross))
        if cross.flat[first]:
            i, j = divmod(first, n - lo)
            return CrossingPair(lo + i, lo + j)
    return None


@dataclass(frozen=True)
class DirectedFamily:
    """A SetFamily validated as pairwise nested-or-disjoint.  Pass
    checked=True only for a family already scanned, or directed by
    construction; it is then not scanned again."""

    base: SetFamily
    checked: InitVar[bool] = False

    def __post_init__(self, checked: bool):
        if checked:
            return
        witness = first_crossing(self.base.member)
        if witness is not None:
            raise ValidationError(
                f"family is not directed: sets {witness.i} and {witness.j} cross"
            )

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        return self.base.sets


def check_directed(family: SetFamily) -> Union[DirectedFamily, CrossingPair]:
    witness = first_crossing(family.member)
    if witness is not None:
        return witness
    return DirectedFamily(family, checked=True)


# --- quasi-forests ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuasiForest:
    """Nodes under the preorder s <= t iff extent(t) is contained in extent(s),
    so larger balls sit lower: leq[i, j], an (n, n) bool matrix, when node
    i <= node j.  Extents, when computed, are an (n, U) bool member matrix."""

    labels: tuple[Hashable, ...]
    leq: np.ndarray
    extents: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "leq", np.asarray(self.leq, bool).reshape(self.n_nodes, self.n_nodes))

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @cached_property
    def _same(self) -> np.ndarray:  # mutual comparability: equal extents
        return self.leq & self.leq.T

    @cached_property
    def reps(self) -> np.ndarray:
        """Each class's least node (leq must be a preorder)."""
        return np.flatnonzero(~np.tril(self._same, -1).any(axis=1))

    @cached_property
    def class_of(self) -> np.ndarray:
        """Quotient by mutual comparability: the index of node i's rep."""
        return np.nonzero(self._same[:, self.reps])[1]

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self._same[self.reps])

    @property
    def n_classes(self) -> int:
        return len(self.reps)

    @cached_property
    def class_leq(self) -> np.ndarray:
        return self.leq[np.ix_(self.reps, self.reps)]

    def class_down_set(self, c: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.class_leq[:, c]).tolist())

    def same_order(self, other: "QuasiForest") -> bool:
        """Order-equality under the positional node bijection."""
        return np.array_equal(self.leq, other.leq)

    def validate(self) -> None:
        """Check the quasi-forest axioms, raising ValidationError naming the
        first violated one."""
        leq = self.leq
        irreflexive = np.flatnonzero(~leq.diagonal())
        if len(irreflexive):
            raise ValidationError(f"reflexivity fails at node {self.labels[irreflexive[0]]}")
        # i <= j <= k without i <= k; the first witness in (i, j, k) order
        step = leq.astype(np.int64)
        broken = (step @ step > 0) & ~leq
        if broken.any():
            i = int(np.flatnonzero(broken.any(axis=1))[0])
            j, k = np.argwhere(leq[i][:, None] & leq & ~leq[i][None, :])[0]
            raise ValidationError(
                "transitivity fails at nodes "
                f"{self.labels[i]}, {self.labels[j]}, {self.labels[k]}"
            )
        self._validate_chains()

    def _validate_chains(self) -> None:
        """Any two classes below a common class are comparable: on the class
        order C, a and b are both below some class iff (C Cᵀ)[a, b] > 0.  Only
        a broken pair walks the classes, to name the least c, then a < b."""
        order = self.class_leq
        broken = (order.astype(np.int64) @ order.T > 0) & ~(order | order.T)
        if not broken.any():
            return
        for c in range(self.n_classes):
            down = np.flatnonzero(order[:, c])
            pairs = np.argwhere(np.triu(broken[np.ix_(down, down)], 1))
            if len(pairs):
                a, b = self.reps[down[pairs[0]]]
                raise ValidationError(
                    "forest chain condition fails: classes of "
                    f"{self.labels[a]} and {self.labels[b]} are incomparable "
                    f"below {self.labels[self.reps[c]]}"
                )


def _extent_forest(member: np.ndarray, labels: tuple[Hashable, ...]) -> QuasiForest:
    """Quasi-forest of the rows E_i of an (n, U) bool matrix: i <= j iff
    |E_i & E_j| == |E_j|.  An empty extent sits above every node, so then
    every two extents must be nested, or a DomainError names the first empty
    instance.  Empty nodes are kept: each counts towards n_raw."""
    ints = member.astype(np.int32)
    inter = ints @ ints.T
    forest = QuasiForest(labels, inter == inter.diagonal(), member)
    try:
        forest._validate_chains()
    except ValidationError as err:
        empty = np.flatnonzero(~member.any(axis=1))
        if not len(empty):
            raise
        raise DomainError(
            f"instance {labels[empty[0]]} has an empty extent, which sits above every "
            "node, so every two extents must be nested, and some are not"
        ) from err
    return forest


def forest_from_extents(
    extents: Sequence[frozenset[int]], labels: Optional[Sequence[Hashable]] = None
) -> QuasiForest:
    """Quasi-forest of concrete ball extents under reverse inclusion, read into
    the member matrix of a Universe up to the largest element."""
    if labels is None:
        labels = range(len(extents))
    elif len(labels) != len(extents):
        raise DomainError("labels and extents must have equal length")
    family = SetFamily.of(1 + max(chain.from_iterable(extents), default=0), extents)
    return _extent_forest(family.member, tuple(labels))


def build_forest(
    params: Sequence[tuple[int, ...]],
    delta: Sequence[ParametrizedFormula],
    carrier,
    signs: Optional[np.ndarray] = None,
) -> QuasiForest:
    """Quasi-forest on params x delta, nodes labelled (param index, formula
    index) in row-major order.  Raises DomainError if the instance family is
    not directed.  `signs`, when the caller has it, is the instances'
    sign_matrix over the carrier's elements, which is otherwise computed."""
    if signs is None:
        signs = sign_matrix(delta, params, carrier, np.arange(carrier.size)[:, None])
    labels = tuple((ci, di) for ci in range(len(params)) for di in range(len(delta)))
    witness = first_crossing(signs)
    if witness is not None:
        raise DomainError(
            f"instance family is not directed: instances {labels[witness.i]} "
            f"and {labels[witness.j]} cross"
        )
    return _extent_forest(signs, labels)


# --- the tree of types -----------------------------------------------------


@dataclass(frozen=True)
class TypeTree:
    """Class-level down-sets of a quasi-forest plus the empty set, ordered by
    inclusion.  n_raw remembers the raw node count for distance bounds."""

    nodes: tuple[frozenset[int], ...]
    n_raw: int

    def __post_init__(self):
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValidationError("type tree nodes must be distinct")
        if frozenset() not in node_set:
            raise ValidationError("type tree must contain the empty type")
        if any(p & q not in node_set for p, q in combinations(self.nodes, 2)):
            raise ValidationError("type tree is not meet-closed")
        for r in self.nodes:
            subs = [p for p in self.nodes if p < r]
            if any(not (p <= q or q <= p) for p, q in combinations(subs, 2)):
                raise ValidationError("type tree has a node with incomparable subsets")

    @cached_property
    def index(self) -> dict[frozenset[int], int]:
        return {p: i for i, p in enumerate(self.nodes)}

    @cached_property
    def root(self) -> int:
        return self.index[frozenset()]

    @cached_property
    def parent(self) -> tuple[int, ...]:
        """Index of each node's unique maximal proper subset (-1 for the root):
        the first of the largest nodes inside it."""
        out = []
        for p in self.nodes:
            subs = [j for j, q in enumerate(self.nodes) if q < p]
            out.append(max(subs, key=lambda j: len(self.nodes[j])) if p else -1)
        return tuple(out)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in self.nodes]
        for i, par in enumerate(self.parent):
            if par != -1:
                kids[par].append(i)
        return tuple(tuple(sorted(k)) for k in kids)

    def _require(self, p: frozenset[int]) -> None:
        if p not in self.index:
            raise DomainError(f"{set(p) or '{}'} is not a node of this type tree")

    def diff(self, p: frozenset[int], q: frozenset[int]) -> frozenset[int]:
        self._require(p)
        self._require(q)
        return p ^ q

    def dist(self, p: frozenset[int], q: frozenset[int]) -> int:
        return len(self.diff(p, q))


def type_tree(forest: QuasiForest) -> TypeTree:
    down_sets = {forest.class_down_set(c) for c in range(forest.n_classes)}
    down_sets.add(frozenset())
    nodes = tuple(sorted(down_sets, key=lambda s: (len(s), sorted(s))))
    return TypeTree(nodes, forest.n_nodes)


# --- convex ordering -------------------------------------------------------


@dataclass(frozen=True)
class ConvexOrder:
    """A total order on type tree nodes extending inclusion.

    sequence lists node indices in ascending order; sibling_orders records the
    per-parent child order that determined comparisons between inclusion-
    incomparable nodes.
    """

    tree: TypeTree
    sequence: tuple[int, ...]
    sibling_orders: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if sorted(self.sequence) != list(range(len(self.tree.nodes))):
            raise ValidationError("order sequence must be a permutation of tree nodes")

    @cached_property
    def position(self) -> tuple[int, ...]:
        pos = [0] * len(self.sequence)
        for rank, idx in enumerate(self.sequence):
            pos[idx] = rank
        return tuple(pos)


def convex_order(
    tree: TypeTree,
    sibling_orders: Optional[Mapping[int, Sequence[int]]] = None,
    seed: Optional[int] = None,
) -> ConvexOrder:
    """Total order extending inclusion: p < q whenever p is a proper subset of
    q; incomparable p, q are settled by comparing, under the sibling order at
    p-meet-q, the children of the meet leading towards p and q.

    Equivalently: depth-first preorder with children visited in sibling order.
    The default sibling order is ascending node index; pass sibling_orders to
    override per parent, or seed for a reproducible shuffle.
    """
    orders: list[tuple[int, ...]] = []
    if sibling_orders is not None and seed is not None:
        raise DomainError("pass sibling_orders or seed, not both")
    if seed is not None:
        from random import Random

        rng = Random(f"sibling-orders/{seed}")
        for i in range(len(tree.nodes)):
            kids = list(tree.children[i])
            rng.shuffle(kids)
            orders.append(tuple(kids))
    else:
        for i in range(len(tree.nodes)):
            kids = tree.children[i]
            if sibling_orders is not None and i in sibling_orders:
                given = tuple(sibling_orders[i])
                if sorted(given) != sorted(kids):
                    raise DomainError(
                        f"sibling order at node {i} is not a total order on its children"
                    )
                orders.append(given)
            else:
                orders.append(kids)

    sequence: list[int] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        sequence.append(node)
        stack.extend(reversed(orders[node]))
    return ConvexOrder(tree, tuple(sequence), tuple(orders))


def check_convexity(order: ConvexOrder) -> bool:
    """True iff for every forest class t the set of order positions of types
    containing t is an interval."""
    tree = order.tree
    class_ids = set()
    for p in tree.nodes:
        class_ids.update(p)
    for t in class_ids:
        positions = [order.position[i] for i, p in enumerate(tree.nodes) if t in p]
        if positions and max(positions) - min(positions) + 1 != len(positions):
            return False
    return True


@dataclass(frozen=True)
class SumDistReport:
    total: int
    bound: int
    ok: bool


def sum_dist_check(
    order: ConvexOrder, sequence: Optional[Sequence[frozenset[int]]] = None
) -> SumDistReport:
    """Sum of consecutive distances along an increasing sequence of types,
    checked against twice the raw forest size (= 2|C||Delta| for forests built
    from params x formulas)."""
    tree = order.tree
    if sequence is None:
        nodes = [tree.nodes[i] for i in order.sequence]
    else:
        nodes = [frozenset(p) for p in sequence]
        for p in nodes:
            tree._require(p)
        ranks = [order.position[tree.index[p]] for p in nodes]
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise DomainError("sequence must be strictly increasing in the order")
    total = sum(tree.dist(p, q) for p, q in zip(nodes, nodes[1:]))
    bound = 2 * tree.n_raw
    return SumDistReport(total, bound, total <= bound)


# --- virtual type spaces ---------------------------------------------------


@dataclass(frozen=True)
class VirtualTypeSpace:
    """One symbolic generic type per quotient class (sign 1 exactly on the
    instances containing the class's ball) plus the all-negative root generic."""

    entries: tuple[bytes, ...]
    n_params: int
    n_formulas: int

    @property
    def count(self) -> int:
        return len(self.entries)

    def entry_set(self) -> frozenset[bytes]:
        return frozenset(self.entries)


def virtual_space_from_forest(forest: QuasiForest, n_params: int, n_formulas: int) -> VirtualTypeSpace:
    if forest.n_nodes != n_params * n_formulas:
        raise DomainError("forest raw nodes must be the full params x formulas grid")
    entries = [column.tobytes() for column in forest.leq.T[forest.reps]]
    entries.append(bytes(forest.n_nodes))
    if len(set(entries)) != len(entries):
        raise ValidationError("virtual generics must be pairwise distinct")
    return VirtualTypeSpace(tuple(entries), n_params, n_formulas)


def virtual_type_space(
    params: Sequence[tuple[int, ...]],
    delta: Sequence[ParametrizedFormula],
    carrier,
    signs: Optional[np.ndarray] = None,
) -> VirtualTypeSpace:
    """The virtual type space of the forest on params x delta; `signs` as
    for build_forest."""
    if not params:
        return VirtualTypeSpace((b"",), 0, len(delta))
    forest = build_forest(params, delta, carrier, signs)
    return virtual_space_from_forest(forest, len(params), len(delta))


# --- components ------------------------------------------------------------


@dataclass(frozen=True)
class ComponentsFailure:
    """The target is not a union of pool balls; `uncovered` is a witness point."""

    uncovered: int


def components(
    target: Iterable[int], pool: DirectedFamily
) -> Union[tuple[frozenset[int], ...], ComponentsFailure]:
    """Minimal-length decomposition of target into pool balls: the inclusion-
    maximal pool balls inside the target.  Directedness makes the result
    unique; output is sorted by (min element, size)."""
    target = frozenset(target)
    if not target:
        return ()
    candidates = {s for s in pool.sets if s and s <= target}
    maximal = [b for b in candidates if not any(b < other for other in candidates)]
    covered = frozenset().union(*maximal) if maximal else frozenset()
    if covered != target:
        return ComponentsFailure(min(target - covered))
    return tuple(sorted(maximal, key=lambda s: (min(s), len(s))))
