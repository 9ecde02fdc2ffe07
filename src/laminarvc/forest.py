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
from .setsystem import ParametrizedFormula, SetFamily


@dataclass(frozen=True)
class CrossingPair:
    """Witness that sets i and j overlap without nesting."""

    i: int
    j: int


_CROSSING_BYTES = 1 << 23


def first_crossing(family: SetFamily) -> Optional[CrossingPair]:
    """Lexicographically first pair of member sets that are neither nested nor
    disjoint, or None if the family is directed.

    Sets i and j cross exactly when 0 < |S_i & S_j| < min(|S_i|, |S_j|).  The
    intersection sizes come from products of membership rows, exact in
    float32 below 2^24 elements.  Row chunks, in order, are multiplied with
    column chunks of the same height, so that the working arrays fit
    _CROSSING_BYTES; the first crossing of a chunk in row-major order is the
    first of the family once the chunks above it have none."""
    n, u = len(family.sets), family.universe.size
    lens = [len(s) for s in family.sets]
    elements = np.fromiter(chain.from_iterable(family.sets), np.int64, sum(lens))
    member = np.zeros((n, u), dtype=bool)
    member[np.repeat(np.arange(n), lens), elements] = True
    sizes = np.array(lens, dtype=np.float32)
    # per chunk: two float32 (side, u) blocks, the float32 (side, n) product
    # and two (side, n) masks
    side = max(1, _CROSSING_BYTES // (8 * (u + n)))
    for lo in range(0, n, side):
        rows = member[lo : lo + side].astype(np.float32)
        inter = np.empty((len(rows), n), dtype=np.float32)
        for jlo in range(0, n, side):
            inter[:, jlo : jlo + side] = rows @ member[jlo : jlo + side].astype(np.float32).T
        cross = inter > 0
        cross &= inter < sizes
        cross &= inter < sizes[lo : lo + side, None]
        cross &= np.arange(n) > np.arange(lo, lo + len(rows))[:, None]
        first = int(np.argmax(cross))
        if cross.flat[first]:
            return CrossingPair(lo + first // n, first % n)
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
        witness = first_crossing(self.base)
        if witness is not None:
            raise ValidationError(
                f"family is not directed: sets {witness.i} and {witness.j} cross"
            )

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        return self.base.sets


def check_directed(family: SetFamily) -> Union[DirectedFamily, CrossingPair]:
    witness = first_crossing(family)
    if witness is not None:
        return witness
    return DirectedFamily(family, checked=True)


# --- quasi-forests ---------------------------------------------------------


@dataclass(frozen=True)
class QuasiForest:
    """Nodes under the preorder s <= t iff extent(t) is contained in extent(s);
    so larger balls sit lower.  leq[i][j] means node i <= node j.

    Extents are optional: forests read off a type (rather than computed from a
    carrier) carry only the order matrix.
    """

    labels: tuple[Hashable, ...]
    leq: tuple[tuple[bool, ...], ...]
    extents: Optional[tuple[frozenset[int], ...]] = None
    carrier_size: Optional[int] = None

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """Quotient by mutual comparability (extensional equality of extents)."""
        n = self.n_nodes
        cls = [-1] * n
        next_id = 0
        for i in range(n):
            if cls[i] != -1:
                continue
            cls[i] = next_id
            for j in range(i + 1, n):
                if cls[j] == -1 and self.leq[i][j] and self.leq[j][i]:
                    cls[j] = next_id
            next_id += 1
        return tuple(cls)

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(self.class_of):
            groups.setdefault(c, []).append(i)
        return tuple(tuple(groups[c]) for c in range(len(groups)))

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def class_leq(self) -> tuple[tuple[bool, ...], ...]:
        reps = [g[0] for g in self.classes]
        return tuple(
            tuple(self.leq[a][b] for b in reps) for a in reps
        )

    def class_down_set(self, c: int) -> frozenset[int]:
        return frozenset(a for a in range(self.n_classes) if self.class_leq[a][c])

    def same_order(self, other: "QuasiForest") -> bool:
        """Order-equality under the positional node bijection."""
        return self.leq == other.leq

    def validate(self) -> None:
        """Check the quasi-forest axioms, raising ValidationError naming the
        first violated one."""
        leq = np.array(self.leq, dtype=bool).reshape(self.n_nodes, self.n_nodes)
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
        for c in range(self.n_classes):
            down = sorted(self.class_down_set(c))
            for x in range(len(down)):
                for y in range(x + 1, len(down)):
                    a, b = down[x], down[y]
                    if not (self.class_leq[a][b] or self.class_leq[b][a]):
                        raise ValidationError(
                            "forest chain condition fails: classes of "
                            f"{self.labels[self.classes[a][0]]} and "
                            f"{self.labels[self.classes[b][0]]} are incomparable "
                            f"below {self.labels[self.classes[c][0]]}"
                        )


def forest_from_extents(
    extents: Sequence[frozenset[int]],
    carrier_size: int,
    labels: Optional[Sequence[Hashable]] = None,
) -> QuasiForest:
    """Quasi-forest of concrete ball extents under reverse inclusion."""
    extents = tuple(frozenset(e) for e in extents)
    if labels is None:
        labels = tuple(range(len(extents)))
    elif len(labels) != len(extents):
        raise DomainError("labels and extents must have equal length")
    masks = [sum(1 << x for x in e) for e in extents]
    leq = tuple(
        tuple((mj & mi) == mj for mj in masks) for mi in masks
    )
    forest = QuasiForest(tuple(labels), leq, extents, carrier_size)
    forest._validate_chains()
    return forest


def build_forest(
    params: Sequence[tuple[int, ...]],
    delta: Sequence[ParametrizedFormula],
    carrier,
) -> QuasiForest:
    """Quasi-forest on params x delta, nodes labelled (param index, formula
    index) in row-major order.  Raises DomainError if the instance family is
    not directed."""
    extents = []
    labels = []
    n = carrier.size
    elements = np.arange(n)[:, None]
    for ci, c in enumerate(params):
        for di, d in enumerate(delta):
            hits = d.batch(carrier, elements, tuple(c))
            extents.append(frozenset(np.flatnonzero(hits).tolist()))
            labels.append((ci, di))
    fam = SetFamily.of(n, extents) if extents else SetFamily.of(max(n, 1), [])
    witness = first_crossing(fam)
    if witness is not None:
        raise DomainError(
            f"instance family is not directed: instances {labels[witness.i]} "
            f"and {labels[witness.j]} cross"
        )
    return forest_from_extents(extents, n, labels)


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
        for p in self.nodes:
            for q in self.nodes:
                if p & q not in node_set:
                    raise ValidationError("type tree is not meet-closed")
        for r in self.nodes:
            subs = [p for p in self.nodes if p < r]
            for p in subs:
                for q in subs:
                    if not (p <= q or q <= p):
                        raise ValidationError("type tree has a node with incomparable subsets")

    @cached_property
    def index(self) -> dict[frozenset[int], int]:
        return {p: i for i, p in enumerate(self.nodes)}

    @cached_property
    def root(self) -> int:
        return self.index[frozenset()]

    @cached_property
    def parent(self) -> tuple[int, ...]:
        """Index of each node's unique maximal proper subset (-1 for the root)."""
        out = []
        for i, p in enumerate(self.nodes):
            if not p:
                out.append(-1)
                continue
            best = self.root
            for j, q in enumerate(self.nodes):
                if q < p and len(q) > len(self.nodes[best]):
                    best = j
            out.append(best)
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
    entries = [
        bytes(forest.leq[j][cls[0]] for j in range(forest.n_nodes)) for cls in forest.classes
    ]
    entries.append(bytes(forest.n_nodes))
    if len(set(entries)) != len(entries):
        raise ValidationError("virtual generics must be pairwise distinct")
    return VirtualTypeSpace(tuple(entries), n_params, n_formulas)


def virtual_type_space(
    params: Sequence[tuple[int, ...]],
    delta: Sequence[ParametrizedFormula],
    carrier,
) -> VirtualTypeSpace:
    if not params:
        return VirtualTypeSpace((b"",), 0, len(delta))
    forest = build_forest(params, delta, carrier)
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
