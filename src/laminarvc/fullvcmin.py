"""Two-variable type counting over a directed base family.

The pipeline: inclusion predicates psi compare instances of a directed family
delta0 pointwise; the psi-type of a carrier element determines a quasi-forest
on B x delta0 and through it a virtual space of candidate one-variable types.
Enumerating realized psi-types along a convex order of the delta1 forest
bounds how many genuinely new candidates each step can add, which yields the
quadratic aggregate bound that the report checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import DomainError, ValidationError
from .forest import (
    QuasiForest,
    VirtualTypeSpace,
    build_forest,
    convex_order,
    type_tree,
    virtual_space_from_forest,
)
from .models import OrderModel
from .setsystem import ParametrizedFormula, SignVector, type_space


@dataclass(frozen=True)
class PsiFamily:
    """A directed family delta0(x0; x1, y) with its |delta0|^2 inclusion
    predicates psi[i][j](x1; y, y') = forall x0 (delta0[j](x0; x1, y') ->
    delta0[i](x0; x1, y))."""

    carrier: OrderModel
    delta0: tuple[ParametrizedFormula, ...]

    def __post_init__(self):
        for d in self.delta0:
            if d.object_arity != 1 or d.param_arity != 2:
                raise DomainError("delta0 formulas must have shape (x0; x1, y)")

    @property
    def n_formulas(self) -> int:
        return len(self.delta0)


def eval_psi(family: PsiFamily, a1: int, b: int, bp: int, i: int, j: int) -> bool:
    """Full-scan evaluation: every x0 satisfying delta0[j](x0; a1, bp) also
    satisfies delta0[i](x0; a1, b)."""
    di, dj = family.delta0[i], family.delta0[j]
    carrier = family.carrier
    return all(
        di.eval_fn(carrier, (x0,), (a1, b))
        for x0 in range(carrier.size)
        if dj.eval_fn(carrier, (x0,), (a1, bp))
    )


def _pair_pos(b_idx: int, bp_idx: int, m: int) -> int:
    return b_idx * m + bp_idx


def _psi_pos(i: int, j: int, k: int) -> int:
    return i * k + j


def psi_type(family: PsiFamily, a1: int, B: Sequence[int]) -> SignVector:
    """Sign vector of a1 over (B x B) x psi, pair-major then (i, j)-major."""
    m, k = len(B), family.n_formulas
    bits = bytearray(m * m * k * k)
    slot = 0
    for b in B:
        for bp in B:
            for i in range(k):
                for j in range(k):
                    if eval_psi(family, a1, b, bp, i, j):
                        bits[slot] = 1
                    slot += 1
    return SignVector(bytes(bits), m * m, k * k)


def forest_from_type(p: SignVector, B: Sequence[int], delta0_count: int) -> QuasiForest:
    """Quasi-forest on B x delta0 read off a psi-type: (b, i) below (b', j)
    exactly when p asserts psi[i][j] at (b, b').  Validates the forest axioms,
    so an unrealized p fails with the violated axiom named."""
    m, k = len(B), delta0_count
    if p.n_params != m * m or p.n_formulas != k * k:
        raise DomainError("psi-type shape does not match B and delta0")
    labels = tuple((bi, i) for bi in range(m) for i in range(k))

    def leq(bi, i, bpi, j):
        return bool(p.bit(_pair_pos(bi, bpi, m), _psi_pos(i, j, k)))

    rows = tuple(
        tuple(leq(bi, i, bpi, j) for bpi in range(m) for j in range(k))
        for bi in range(m)
        for i in range(k)
    )
    forest = QuasiForest(labels, rows)
    forest.validate()
    return forest


def p_virtual_space(p: SignVector, B: Sequence[int], delta0_count: int) -> VirtualTypeSpace:
    """Virtual one-variable type space determined by a psi-type: one generic
    per quotient node of the read-off forest, plus the all-negative root."""
    forest = forest_from_type(p, B, delta0_count)
    return virtual_space_from_forest(forest, len(B), delta0_count)


# --- boolean-combination certificates over delta1 --------------------------


@dataclass(frozen=True)
class Combo:
    """Boolean combination over delta1 instances: a constant, a (delta1 index,
    parameter tuple) atom, or the negation of a combination."""

    op: str  # 'const' | 'atom' | 'not'
    value: Optional[bool] = None
    atom: Optional[tuple[int, tuple[int, ...]]] = None
    args: tuple["Combo", ...] = ()

    @staticmethod
    def const(v: bool) -> "Combo":
        return Combo("const", value=bool(v))

    @staticmethod
    def of(d1_idx: int, params: tuple[int, ...]) -> "Combo":
        return Combo("atom", atom=(d1_idx, tuple(params)))

    def negate(self) -> "Combo":
        return Combo("not", args=(self,))


def eval_combo(combo: Combo, delta1: Sequence[ParametrizedFormula], carrier, a1: int) -> bool:
    if combo.op == "const":
        return combo.value
    if combo.op == "atom":
        idx, params = combo.atom
        return bool(delta1[idx].eval_fn(carrier, (a1,), params))
    if combo.op == "not":
        return not eval_combo(combo.args[0], delta1, carrier, a1)
    raise DomainError(f"unknown combo op {combo.op!r}")


@dataclass(frozen=True)
class DecompositionCertificate:
    """For each psi instance (i, j, b, b'), a boolean combination over delta1
    instances whose truth table matches the psi evaluation pointwise."""

    delta1: tuple[ParametrizedFormula, ...]
    combo_for: Callable[[int, int, int, int], Combo]

    def __post_init__(self):
        for d in self.delta1:
            if d.object_arity != 1 or d.param_arity != 2:
                raise DomainError("delta1 formulas must have shape (x1; y, y')")


@dataclass(frozen=True)
class FullVCMinInstance:
    carrier: OrderModel
    delta0: tuple[ParametrizedFormula, ...]
    certificate: DecompositionCertificate

    @property
    def psi_family(self) -> PsiFamily:
        return PsiFamily(self.carrier, self.delta0)


def validate_certificate(instance: FullVCMinInstance, B: Sequence[int]) -> None:
    """Truth-table match of every certificate combo against the psi oracle,
    over every carrier element."""
    family = instance.psi_family
    cert = instance.certificate
    k = family.n_formulas
    for i in range(k):
        for j in range(k):
            for b in B:
                for bp in B:
                    combo = cert.combo_for(i, j, b, bp)
                    for a1 in range(instance.carrier.size):
                        got = eval_combo(combo, cert.delta1, instance.carrier, a1)
                        want = eval_psi(family, a1, b, bp, i, j)
                        if got != want:
                            raise ValidationError(
                                f"certificate mismatch for psi[{i}][{j}] at "
                                f"(b={b}, b'={bp}), carrier point a1={a1}"
                            )


def dlo_instance(carrier_size: int) -> FullVCMinInstance:
    """Built-in linear-order instance: delta0 = {x0 < x1, x0 < y}, delta1 =
    final segments {x1 >= y'} and {x1 > y}."""
    carrier = OrderModel(carrier_size)

    d0_before_x1 = ParametrizedFormula(
        "before-x1", 1, 2, lambda M, x, p: x[0] < p[0],
        lambda M, objs, p: objs[:, 0] < p[0],
    )
    d0_before_y = ParametrizedFormula(
        "before-y", 1, 2, lambda M, x, p: x[0] < p[1],
        lambda M, objs, p: objs[:, 0] < p[1],
    )
    d1_geq_second = ParametrizedFormula(
        "final-geq-y'", 1, 2, lambda M, x, p: x[0] >= p[1],
        lambda M, objs, p: objs[:, 0] >= p[1],
    )
    d1_gt_first = ParametrizedFormula(
        "final-gt-y", 1, 2, lambda M, x, p: x[0] > p[0],
        lambda M, objs, p: objs[:, 0] > p[0],
    )

    A, B_ = 0, 1  # indices of before-x1 and before-y in delta0

    def combo_for(i: int, j: int, b: int, bp: int) -> Combo:
        if i == A and j == A:
            # [0, x1) included in [0, x1)
            return Combo.const(True)
        if i == A and j == B_:
            # [0, b') included in [0, x1)  <=>  x1 >= b'
            return Combo.of(0, (b, bp))
        if i == B_ and j == A:
            # [0, x1) included in [0, b)  <=>  not (x1 > b)
            return Combo.of(1, (b, bp)).negate()
        # [0, b') included in [0, b), independent of x1
        return Combo.const(bp <= b)

    cert = DecompositionCertificate((d1_geq_second, d1_gt_first), combo_for)
    return FullVCMinInstance(carrier, (d0_before_x1, d0_before_y), cert)


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


def _delta1_lift(cert: DecompositionCertificate, carrier, a1: int, B: Sequence[int]) -> bytes:
    """Realized delta1-type of a1 over B x B, pair-major then formula-major."""
    bits = bytearray(len(B) * len(B) * len(cert.delta1))
    slot = 0
    for b in B:
        for bp in B:
            for d in cert.delta1:
                if d.eval_fn(carrier, (a1,), (b, bp)):
                    bits[slot] = 1
                slot += 1
    return bytes(bits)


def _hamming(a: bytes, b: bytes) -> int:
    return sum(x != y for x, y in zip(a, b))


def incremental_count_check(instance: FullVCMinInstance, B: Sequence[int]) -> IncrementalCountReport:
    """Run the full counting pipeline over the carrier and report every
    inequality: per-step growth of the virtual spaces against the distance of
    consecutive convex-ordered realized delta1-types, the summed distance
    against 2|B|^2|delta1|, and the union of virtual spaces against
    2|B|^2|delta1| + |B||delta0| + 1."""
    B = [int(b) for b in B]
    carrier = instance.carrier
    family = instance.psi_family
    cert = instance.certificate
    validate_certificate(instance, B)

    k0, k1, m = len(instance.delta0), len(cert.delta1), len(B)

    # realized psi-types, keyed by their sign bits, with a least realizing element
    realizers: dict[bytes, int] = {}
    types_by_bits: dict[bytes, SignVector] = {}
    for a1 in range(carrier.size):
        p = psi_type(family, a1, B)
        if p.bits not in realizers:
            realizers[p.bits] = a1
            types_by_bits[p.bits] = p

    # the delta1 forest over B x B and its convex order
    pairs = [(b, bp) for b in B for bp in B]
    d1_forest = build_forest(pairs, cert.delta1, carrier)
    tree = type_tree(d1_forest)
    order = convex_order(tree)

    # lift each realized psi-type through its least realizer and place the lift
    entries: list[tuple[int, bytes, bytes]] = []  # (order position, lift bits, psi bits)
    containment_ok = True
    for bits, a1 in realizers.items():
        lift = _delta1_lift(cert, carrier, a1, B)
        ones = [s for s, v in enumerate(lift) if v]
        down = frozenset(d1_forest.class_of[s] for s in ones)
        if down not in tree.index:
            containment_ok = False
            continue
        entries.append((order.position[tree.index[down]], lift, bits))
    entries.sort()

    spaces = [
        p_virtual_space(types_by_bits[bits], B, k0).entry_set()
        for _, _, bits in entries
    ]

    steps = []
    union: set[bytes] = set(spaces[0]) if spaces else set()
    sum_dist = 0
    for t in range(1, len(entries)):
        dist = _hamming(entries[t - 1][1], entries[t][1])
        new = len(spaces[t] - spaces[t - 1])
        steps.append(CountStep(dist, new, new <= dist))
        union |= spaces[t]
        sum_dist += dist

    # every realized one-variable type lands in its own virtual space
    for a1 in range(carrier.size):
        p = psi_type(family, a1, B)
        realized = type_space(
            instance.delta0, [(a1, b) for b in B], carrier, 1
        ).vector_set()
        if not realized <= p_virtual_space(p, B, k0).entry_set():
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
        first_space_size=len(spaces[0]) if spaces else 0,
        union_size=len(union),
        aggregate_bound=aggregate_bound,
        per_step_ok=all(s.ok for s in steps),
        sum_dist_ok=sum_dist <= sum_dist_bound,
        aggregate_ok=len(union) <= aggregate_bound,
        containment_ok=containment_ok,
    )
