"""Directed families, quasi-forests, the tree of types, and convex orderings.

A directed (laminar) family orders its member sets by reverse inclusion into a
forest.  Parameter-formula pairs whose extents coincide are kept as distinct
raw nodes but quotiented into one class; all counting lemmas are stated at the
class level while raw counts give the stated bounds.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ValidationError
from .setsystem import ParametrizedFormula, SetFamily, meets, row_words, sign_matrix


@dataclass(frozen=True)
class CrossingPair:
    """Witness that sets i and j overlap without nesting."""

    i: int
    j: int


# the working arrays of one row chunk of first_crossing: 1 MB scans up to
# 256 sets in one chunk, and keeps a large family file's scan from raising
# the command's peak memory
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
    n = len(member)
    # words[w, i]: set i's members among elements 64w .. 64w + 63
    words = np.ascontiguousarray(row_words(member).T)
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


def first_range_crossing(lo, hi) -> Optional[CrossingPair]:
    """first_crossing of the ranges [lo[i], hi[i]) of integers, with no
    member matrix unless the ranges cross.

    The non-empty ranges go in (lo, -hi) order past a stack of the his of
    the ranges still open, each nested in the one below it.  A range first
    pops the ranges ending at or before its lo, which it does not meet; it
    then crosses the top one if it ends after it, and else lies inside
    every range on the stack.  Only a found crossing builds the member
    matrix, so that first_crossing names the first pair."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    keep = np.flatnonzero(lo < hi)
    order = keep[np.lexsort((-hi[keep], lo[keep]))]
    stack: list[int] = []
    for a, b in zip(lo[order].tolist(), hi[order].tolist()):
        while stack and stack[-1] <= a:
            stack.pop()
        if stack and stack[-1] < b:
            break
        stack.append(b)
    else:
        return None
    elements = np.arange(lo.min(), hi.max())
    return first_crossing((lo[:, None] <= elements) & (elements < hi[:, None]))


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
    so larger balls sit lower, held once per class of nodes with equal
    extents: class_of[i] is node i's class, classes numbered by their least
    node, and class_leq[a, b], a (k, k) bool matrix, when class a <= class b.
    Extents, when computed, are the (k, U) bool member matrix of the classes."""

    labels: tuple[Hashable, ...]
    class_of: np.ndarray
    class_leq: np.ndarray
    extents: Optional[np.ndarray] = None

    @classmethod
    def from_preorder(cls, labels: Sequence[Hashable], leq) -> "QuasiForest":
        """The forest of an (n, n) bool preorder on the nodes, quotiented by
        mutual comparability once reflexivity and then transitivity are
        checked, a ValidationError naming the first failing node(s)."""
        labels = tuple(labels)
        leq = np.asarray(leq, bool).reshape(len(labels), len(labels))
        irreflexive = np.flatnonzero(~leq.diagonal())
        if len(irreflexive):
            raise ValidationError(f"reflexivity fails at node {labels[irreflexive[0]]}")
        # i <= j <= k without i <= k; the first witness in (i, j, k) order
        broken = meets(leq, leq.T) & ~leq
        if broken.any():
            i = int(np.flatnonzero(broken.any(axis=1))[0])
            j, k = np.argwhere(leq[i][:, None] & leq & ~leq[i][None, :])[0]
            raise ValidationError(
                f"transitivity fails at nodes {labels[i]}, {labels[j]}, {labels[k]}"
            )
        same = leq & leq.T
        reps = np.flatnonzero(~np.tril(same, -1).any(axis=1))
        return cls(labels, np.nonzero(same[:, reps])[1], leq[np.ix_(reps, reps)])

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_classes(self) -> int:
        return len(self.class_leq)

    @cached_property
    def reps(self) -> np.ndarray:
        """Each class's least node: where class_of first exceeds all before."""
        return np.flatnonzero(np.diff(np.maximum.accumulate(self.class_of), prepend=-1))

    def same_order(self, other: "QuasiForest") -> bool:
        """Order-equality under the positional node bijection."""
        return np.array_equal(self.class_of, other.class_of) and np.array_equal(
            self.class_leq, other.class_leq
        )

    def validate(self) -> None:
        """Check the chain condition, raising ValidationError on a failure:
        any two classes below a common class are comparable.  Row a of the
        class order holds the classes above a, so a and b are both below
        some class iff rows a and b meet.  Only a broken pair walks the
        classes, to name the least c, then a < b."""
        order = self.class_leq
        broken = meets(order, order) & ~(order | order.T)
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
    """Quasi-forest of the rows E_i of an (n, U) bool matrix, not yet
    validated: one class per distinct row, in order of first occurrence, and
    class a <= class b iff E_b lies inside E_a, that is E_b meets the
    complement of E_a nowhere.  Empty rows are kept as nodes: each counts
    towards n_raw."""
    first: dict[bytes, int] = {}
    least = [first.setdefault(row.tobytes(), i) for i, row in enumerate(np.packbits(member, axis=1))]
    reps = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    rows = member[reps]
    return QuasiForest(labels, np.searchsorted(reps, least), ~meets(~rows, rows), rows)


def _check_chains(forest: QuasiForest) -> QuasiForest:
    """forest.validate() on a forest of extents.  An empty extent sits above
    every class, so then every two extents must be nested, or a DomainError
    names the first empty instance."""
    try:
        forest.validate()
    except ValidationError as err:
        empty = np.flatnonzero(~forest.extents.any(axis=1))
        if not len(empty):
            raise
        raise DomainError(
            f"instance {forest.labels[forest.reps[empty[0]]]} has an empty extent, which "
            "sits above every node, so every two extents must be nested, and some are not"
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
    return _check_chains(_extent_forest(family.member, tuple(labels)))


def forest_from_ranges(lo, hi, labels: Sequence[Hashable]) -> QuasiForest:
    """Quasi-forest of the integer ranges [lo[i], hi[i]), a tree's balls as
    leaf-rank ranges, labelled by labels: one class per distinct (lo, hi),
    in order of first occurrence, and class a <= class b iff range b lies
    inside range a.  An empty range, or two crossing ranges, raise
    DomainError naming the first such instance or pair, as build_forest
    does.  Non-empty ranges that both lie inside a third meet, so they nest:
    the chain condition holds with no further check."""
    lo, hi, labels = np.asarray(lo), np.asarray(hi), tuple(labels)
    if not len(lo) == len(hi) == len(labels):
        raise DomainError("labels and ranges must have equal length")
    first: dict[tuple[int, int], int] = {}
    least = [first.setdefault(r, i) for i, r in enumerate(zip(lo.tolist(), hi.tolist()))]
    reps = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    a, b = lo[reps], hi[reps]
    # the first empty or crossing class is the first instance, or pair of
    # instances, to be so: each is the least node of its class
    empty = np.flatnonzero(a >= b)
    if len(empty):
        raise DomainError(f"instance {labels[reps[empty[0]]]} has an empty range")
    witness = first_range_crossing(a, b)
    if witness is not None:
        i, j = reps[[witness.i, witness.j]]
        raise DomainError(
            f"instance family is not directed: instances {labels[i]} and {labels[j]} cross"
        )
    leq = (a[:, None] <= a) & (b <= b[:, None])
    return QuasiForest(labels, np.searchsorted(reps, least), leq)


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
    forest = _extent_forest(signs, labels)
    # equal rows never cross, and the first crossing pair of classes is the
    # first of the instances: both are the least nodes of their classes
    witness = first_crossing(forest.extents)
    if witness is not None:
        i, j = forest.reps[[witness.i, witness.j]]
        raise DomainError(
            f"instance family is not directed: instances {labels[i]} and {labels[j]} cross"
        )
    return _check_chains(forest)


# --- the tree of types -----------------------------------------------------


@dataclass(frozen=True)
class TypeTree:
    """The empty type and the class down-sets of a quasi-forest, ordered by
    inclusion: nodes in (depth, sorted members) order, so the empty type,
    the root, comes first, and parent[i] the index of node i's unique
    maximal proper subset (-1 at the root).  n_raw remembers the raw node
    count for distance bounds."""

    nodes: tuple[frozenset[int], ...]
    parent: tuple[int, ...]
    n_raw: int

    @property
    def root(self) -> int:
        return 0

    @cached_property
    def index(self) -> dict[frozenset[int], int]:
        return {p: i for i, p in enumerate(self.nodes)}

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
    """The tree of types read off the class order: class c's down-set is
    column c of class_leq and its depth the column's count.  The classes
    strictly below c form a chain, so its parent is the down-set of the one
    class a below c at depth depth[c] - 1, or else the empty type."""
    order = forest.class_leq
    depth = order.sum(axis=0)
    lower, upper = np.nonzero(order & (depth[:, None] == depth - 1))
    downs = [tuple(np.flatnonzero(column).tolist()) for column in order.T]
    ranked = sorted(range(len(downs)), key=lambda c: (len(downs[c]), downs[c]))
    node_of = np.zeros(len(downs), dtype=np.intp)
    node_of[ranked] = np.arange(1, len(downs) + 1)
    parent = np.zeros(len(downs), dtype=np.intp)
    parent[upper] = node_of[lower]
    return TypeTree(
        (frozenset(), *(frozenset(downs[c]) for c in ranked)),
        (-1, *parent[ranked].tolist()),
        forest.n_nodes,
    )


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
) -> ConvexOrder:
    """Total order extending inclusion: p < q whenever p is a proper subset of
    q; incomparable p, q are settled by comparing, under the sibling order at
    p-meet-q, the children of the meet leading towards p and q.

    Equivalently: depth-first preorder with children visited in sibling order.
    The default sibling order is ascending node index; pass sibling_orders to
    override per parent.
    """
    orders: list[tuple[int, ...]] = []
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
    entries = [column.tobytes() for column in forest.class_leq[forest.class_of].T]
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
