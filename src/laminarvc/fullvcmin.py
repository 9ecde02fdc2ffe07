"""Two-variable type counting over a directed base family.

The pipeline: inclusion predicates psi compare instances of a directed family
delta0 pointwise; the psi-type of a carrier element determines a quasi-forest
on B x delta0 and through it a virtual space of candidate one-variable types.
Enumerating realized psi-types along a convex order of the delta1 forest
bounds how many genuinely new candidates each step can add, which yields the
quadratic aggregate bound that the report checks.  That each psi instance is
a Boolean combination of delta1 instances is not supplied but found: one
delta1 literal per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .forest import (
    QuasiForest,
    VirtualTypeSpace,
    build_forest,
    convex_order,
    type_tree,
    virtual_space_from_forest,
)
from .models import CarrierModel, OrderModel
from .setsystem import ParametrizedFormula, meets, row_words, sign_matrix


@dataclass(frozen=True)
class PsiFamily:
    """A directed family delta0(x0; x1, y) with its |delta0|^2 inclusion
    predicates psi[i][j](x1; y, y') = forall x0 (delta0[j](x0; x1, y') ->
    delta0[i](x0; x1, y))."""

    carrier: CarrierModel
    delta0: tuple[ParametrizedFormula, ...]

    def __post_init__(self):
        for d in self.delta0:
            if d.object_arity != 1 or d.param_arity != 2:
                raise DomainError("delta0 formulas must have shape (x0; x1, y)")

    @property
    def n_formulas(self) -> int:
        return len(self.delta0)


def psi_type(family: PsiFamily, a1: int, B: Sequence[int]) -> np.ndarray:
    """Inclusion matrix of a1's delta0 instances over B: entry [(b, i), (b', j)]
    is psi[i][j](a1; b, b'), rows and columns b-major, then by formula.

    Row (b, i) of the extent matrix E is the extent of delta0[i](x0; a1, b);
    instance (b', j) lies inside (b, i) exactly when E[(b', j)] meets the
    complement of E[(b, i)] nowhere: ~meets(~E, E)."""
    carrier = family.carrier
    elements = np.arange(carrier.size)[:, None]
    extents = sign_matrix(family.delta0, [(a1, b) for b in B], carrier, elements)
    return ~meets(~extents, extents)


def eval_psi(family: PsiFamily, a1: int, b: int, bp: int, i: int, j: int) -> bool:
    """psi[i][j](a1; b, b'): every x0 satisfying delta0[j](x0; a1, b') also
    satisfies delta0[i](x0; a1, b)."""
    return bool(psi_type(family, a1, (b, bp))[i, family.n_formulas + j])


def forest_from_type(p: np.ndarray, B: Sequence[int], delta0_count: int) -> QuasiForest:
    """Quasi-forest on B x delta0 read off a psi-type: (b, i) below (b', j)
    exactly when p asserts psi[i][j] at (b, b').  Validates the forest axioms,
    so an unrealized p fails with the violated axiom named."""
    n = len(B) * delta0_count
    if np.shape(p) != (n, n):
        raise DomainError("psi-type shape does not match B and delta0")
    labels = tuple((bi, i) for bi in range(len(B)) for i in range(delta0_count))
    forest = QuasiForest.from_preorder(labels, p)
    forest.validate()
    return forest


def p_virtual_space(p: np.ndarray, B: Sequence[int], delta0_count: int) -> VirtualTypeSpace:
    """Virtual one-variable type space determined by a psi-type: one generic
    per quotient node of the read-off forest, plus the all-negative root."""
    forest = forest_from_type(p, B, delta0_count)
    return virtual_space_from_forest(forest, len(B), delta0_count)


# --- certificates over delta1 ------------------------------------------------


@dataclass(frozen=True)
class FullVCMinInstance:
    """A psi family's carrier and delta0, with a second directed family
    delta1(x1; y, y') whose literals each psi instance must match."""

    carrier: CarrierModel
    delta0: tuple[ParametrizedFormula, ...]
    delta1: tuple[ParametrizedFormula, ...]

    def __post_init__(self):
        PsiFamily(self.carrier, self.delta0)  # delta0's shape check
        for d in self.delta1:
            if d.object_arity != 1 or d.param_arity != 2:
                raise DomainError("delta1 formulas must have shape (x1; y, y')")

    @property
    def psi_family(self) -> PsiFamily:
        return PsiFamily(self.carrier, self.delta0)


def _certified(instance: FullVCMinInstance, B: Sequence[int]):
    """(extents, psi-types, atoms) over B, once every psi instance matches a
    delta1 literal at its own (b, b').

    extents[a1] is the extent matrix psi_type builds for a1, all cut from
    one sign_matrix, and types[a1] is a1's psi-type.  atoms is the
    sign_matrix of delta1 over B x B, rows ((b, b'), k).  Instance
    psi[i][j](x1; b, b') matches when its row over x1 equals the constant
    false or true row, some delta1[k](x1; b, b') or its complement: the rows
    are packed into words and compared in one broadcast.  The first
    unmatched instance in (i, j, b, b') order raises ValidationError."""
    carrier = instance.carrier
    n, m, k0, k1 = carrier.size, len(B), len(instance.delta0), len(instance.delta1)
    elements = np.arange(n)[:, None]
    params = [(a1, b) for a1 in range(n) for b in B]
    extents = sign_matrix(instance.delta0, params, carrier, elements).reshape(n, m * k0, n)
    types = np.array([~meets(~e, e) for e in extents])
    atoms = sign_matrix(instance.delta1, [(b, bp) for b in B for bp in B], carrier, elements)

    # psi rows (i, j, b, b') over x1, packed, against the packed literals at
    # each (b, b'): false, true, then delta1[k] and its complement
    psi = types.reshape(n, m, k0, m, k0).transpose(2, 4, 1, 3, 0).reshape(-1, n)
    psi_words = row_words(psi).reshape(k0 * k0, m * m, 1, -1)
    const = row_words(np.array([[False], [True]]).repeat(n, axis=1))
    atom_words = row_words(atoms).reshape(m * m, k1, -1)
    literals = np.concatenate(
        [np.broadcast_to(const, (m * m, *const.shape)), atom_words, atom_words ^ const[1]], axis=1
    )
    matched = (psi_words == literals).all(-1).any(-1)
    if not matched.all():
        ij, pair = np.unravel_index(np.argmin(matched), matched.shape)
        i, j = divmod(int(ij), k0)
        b, bp = divmod(int(pair), m)
        raise ValidationError(
            f"psi[{i}][{j}] at (b={int(B[b])}, b'={int(B[bp])}) is no delta1 literal"
        )
    return extents, types, atoms


def validate_certificate(instance: FullVCMinInstance, B: Sequence[int]) -> np.ndarray:
    """The psi-types of every carrier element over B, indexed by a1, once
    each psi instance is found to be a delta1 literal at its own (b, b'):
    the Boolean combination of delta1 instances that VC-minimality asks for.
    An instance that is none raises ValidationError naming psi[i][j] and
    (b, b')."""
    return _certified(instance, B)[1]


def dlo_instance(carrier_size: int) -> FullVCMinInstance:
    """Built-in linear-order instance: delta0 = {x0 < x1, x0 < y}, delta1 =
    final segments {x1 >= y'} and {x1 > y}."""
    carrier = OrderModel(carrier_size)

    d0_before_x1 = ParametrizedFormula("before-x1", 1, 2, lambda M, objs, p: objs[:, 0] < p[0])
    d0_before_y = ParametrizedFormula("before-y", 1, 2, lambda M, objs, p: objs[:, 0] < p[1])
    d1_geq_second = ParametrizedFormula("final-geq-y'", 1, 2, lambda M, objs, p: objs[:, 0] >= p[1])
    d1_gt_first = ParametrizedFormula("final-gt-y", 1, 2, lambda M, objs, p: objs[:, 0] > p[0])
    return FullVCMinInstance(carrier, (d0_before_x1, d0_before_y), (d1_geq_second, d1_gt_first))


# --- the incremental counting report ---------------------------------------


@dataclass(frozen=True)
class CountStep:
    dist: int
    new_entries: int
    ok: bool


@dataclass(frozen=True)
class IncrementalCountReport:
    b_size: int
    carrier_size: int
    n_delta0: int
    n_delta1: int
    n_psi_types: int
    steps: tuple[CountStep, ...]
    sum_dist: int
    sum_dist_bound: int
    first_space_size: int
    union_size: int
    aggregate_bound: int
    per_step_ok: bool
    sum_dist_ok: bool
    aggregate_ok: bool
    containment_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.per_step_ok and self.sum_dist_ok and self.aggregate_ok and self.containment_ok


def incremental_count_check(instance: FullVCMinInstance, B: Sequence[int]) -> IncrementalCountReport:
    """Run the full counting pipeline over the carrier and report every
    inequality: per-step growth of the virtual spaces against the distance of
    consecutive convex-ordered realized delta1-types, the summed distance
    against 2|B|^2|delta1|, and the union of virtual spaces against
    2|B|^2|delta1| + |B||delta0| + 1."""
    B = [int(b) for b in B]
    carrier = instance.carrier
    extents, types, atoms = _certified(instance, B)

    k0, k1, m = len(instance.delta0), len(instance.delta1), len(B)

    # realized psi-types, keyed by their matrix bytes, with a least realizer
    realizers: dict[bytes, int] = {}
    for a1, p in enumerate(types):
        realizers.setdefault(p.tobytes(), a1)

    # the delta1 forest over B x B and its convex order
    pairs = [(b, bp) for b in B for bp in B]
    d1_forest = build_forest(pairs, instance.delta1, carrier, atoms)
    tree = type_tree(d1_forest)
    order = convex_order(tree)
    spaces = {
        key: p_virtual_space(types[a1], B, k0).entry_set() for key, a1 in realizers.items()
    }

    # place each realized psi-type by the delta1-type of its least realizer:
    # the classes whose extents hold it, a down-set of the class order
    lifts = {key: d1_forest.extents[:, a1] for key, a1 in realizers.items()}
    entries: list[tuple[int, bytes]] = []  # (order position, psi key)
    containment_ok = True
    for key, lift in lifts.items():
        down = frozenset(np.flatnonzero(lift).tolist())
        if down not in tree.index:
            containment_ok = False
            continue
        entries.append((order.position[tree.index[down]], key))
    entries.sort()
    first = spaces[entries[0][1]] if entries else frozenset()

    # the raw Hamming distance of two lifts: the nodes of each class that
    # holds one of the two realizers and not the other
    weight = np.bincount(d1_forest.class_of, minlength=d1_forest.n_classes)
    steps = []
    union = set(first)
    sum_dist = 0
    for (_, prev), (_, key) in zip(entries, entries[1:]):
        dist = int(weight[lifts[prev] != lifts[key]].sum())
        new = len(spaces[key] - spaces[prev])
        steps.append(CountStep(dist, new, new <= dist))
        union |= spaces[key]
        sum_dist += dist

    # a1's realized types, the columns of its extents, are virtual: each
    # block's columns go to bytes in one call and are sliced apart
    width = extents.shape[1]
    for a1, block in enumerate(extents):
        flat = block.T.tobytes()
        realized = {flat[i : i + width] for i in range(0, len(flat), width)}
        if not realized <= spaces[types[a1].tobytes()]:
            containment_ok = False
            break

    sum_dist_bound = 2 * m * m * k1
    aggregate_bound = 2 * m * m * k1 + m * k0 + 1
    return IncrementalCountReport(
        b_size=m,
        carrier_size=carrier.size,
        n_delta0=k0,
        n_delta1=k1,
        n_psi_types=len(realizers),
        steps=tuple(steps),
        sum_dist=sum_dist,
        sum_dist_bound=sum_dist_bound,
        first_space_size=len(first),
        union_size=len(union),
        aggregate_bound=aggregate_bound,
        per_step_ok=all(s.ok for s in steps),
        sum_dist_ok=sum_dist <= sum_dist_bound,
        aggregate_ok=len(union) <= aggregate_bound,
        containment_ok=containment_ok,
    )
