"""Finite set systems: traces, shatter functions, VC dimension, and type spaces.

Type counting here is *realized*: a sign vector is counted only if some tuple
of carrier elements actually produces it.  Realized counts under-approximate
abstract type spaces, so they are valid as growth lower bounds and as inputs
to upper-bound checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations
from random import Random
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, ResourceCapError

UNIVERSE_CAP = 4096
VC_UNIVERSE_CAP = 24
ENUM_CAP = 1 << 26
_PROFILE_BYTES = 1 << 23
_SWEEP_TUPLES = 1 << 18
_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class Universe:
    """Ground set {0, ..., size-1}."""

    size: int
    cap: int = UNIVERSE_CAP

    def __post_init__(self):
        if self.size < 1:
            raise DomainError(f"universe size must be >= 1, got {self.size}")
        if self.size > self.cap:
            raise DomainError(f"universe size {self.size} exceeds cap {self.cap}")

    def elements(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class SetFamily:
    """An indexed list of subsets of a universe.

    Duplicate member sets are retained (they keep distinct indices), but every
    trace is deduplicated.
    """

    universe: Universe
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        n = self.universe.size
        for i, s in enumerate(self.sets):
            for x in s:
                if not 0 <= x < n:
                    raise DomainError(f"set {i} contains {x}, outside universe of size {n}")

    @staticmethod
    def of(universe_size: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return SetFamily(Universe(universe_size), tuple(frozenset(s) for s in sets))

    def __len__(self) -> int:
        return len(self.sets)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << x for x in s) for s in self.sets)


def trace(family: SetFamily, probe: Iterable[int]) -> SetFamily:
    """Deduplicated family {S & probe : S in family}, members keeping their labels."""
    probe_set = frozenset(probe)
    n = family.universe.size
    for x in probe_set:
        if not 0 <= x < n:
            raise DomainError(f"probe element {x} outside universe of size {n}")
    seen: set[frozenset[int]] = set()
    out: list[frozenset[int]] = []
    for s in family.sets:
        t = s & probe_set
        if t not in seen:
            seen.add(t)
            out.append(t)
    return SetFamily(family.universe, tuple(out))


def _check_vc_cap(family: SetFamily, cap: int) -> None:
    if family.universe.size > cap:
        raise ResourceCapError(
            f"universe size {family.universe.size} exceeds exhaustive cap {cap}; "
            "reduce the universe or sample probe sets externally"
        )


def vc_dimension(family: SetFamily, cap: int = VC_UNIVERSE_CAP) -> int:
    """Largest d such that some d-subset of the universe is shattered.

    Climbs the subset lattice: a shattered (d+1)-set has all its d-subsets
    shattered, so candidates at level d+1 extend level-d survivors upward.
    """
    if not family.sets:
        raise DomainError("vc_dimension requires a nonempty family")
    _check_vc_cap(family, cap)
    n = family.universe.size
    masks = family.masks
    distinct = len(set(masks))
    max_d = min(n, max(0, distinct.bit_length() - 1) + 1)

    def shattered(probe_mask: int, size: int) -> bool:
        return len({m & probe_mask for m in masks}) == 1 << size

    level = [(1 << i, i) for i in range(n) if shattered(1 << i, 1)]
    if not level:
        return 0
    d = 1
    while d < max_d:
        nxt = []
        for pm, top in level:
            for j in range(top + 1, n):
                cand = pm | (1 << j)
                if shattered(cand, d + 1):
                    nxt.append((cand, j))
        if not nxt:
            return d
        level = nxt
        d += 1
    return d


def shatter_function(family: SetFamily, k: int, cap: int = ENUM_CAP) -> int:
    """Max over k-subsets A of the number of distinct traces on A."""
    n = family.universe.size
    if not 0 <= k <= n:
        raise DomainError(f"k={k} out of range for universe size {n}")
    if k == 0:
        return 1
    if math.comb(n, k) * max(1, len(family.sets)) > cap:
        raise ResourceCapError(f"shatter_function({n} choose {k}) exceeds enumeration cap")
    masks = family.masks
    best = 0
    for idx in combinations(range(n), k):
        pm = sum(1 << i for i in idx)
        best = max(best, len({m & pm for m in masks}))
        if best == 1 << k:
            break
    return best


def max_trace_profile(family: SetFamily, cap: int = VC_UNIVERSE_CAP) -> list[int]:
    """profile[k] = shatter_function(family, k), computed in one vectorized sweep
    over all 2^n probe masks.

    Equal member sets trace equally, so they are dropped first; probes then go
    in chunks whose (probe, set) working arrays fit _PROFILE_BYTES."""
    _check_vc_cap(family, cap)
    n = family.universe.size
    masks = np.array(sorted(set(family.masks)), dtype=np.uint32)
    profile = np.zeros(n + 1, dtype=np.int64)
    total = 1 << n
    # per (probe, set): a uint32 trace, a uint32 difference and a bool
    chunk = max(1, _PROFILE_BYTES // (9 * max(1, len(masks))))
    for lo in range(0, total, chunk):
        probes = np.arange(lo, min(lo + chunk, total), dtype=np.uint32)
        traced = probes[:, None] & masks[None, :]
        traced.sort(axis=1)
        distinct = 1 + np.count_nonzero(np.diff(traced, axis=1), axis=1)
        np.maximum.at(profile, np.bitwise_count(probes), distinct)
    return [int(x) for x in profile]


def sauer_check(family: SetFamily, cap: int = VC_UNIVERSE_CAP) -> bool:
    """True iff shatter_function(family, k) <= sum_{i<=d} C(k, i) for all k,
    where d = vc_dimension(family)."""
    profile = max_trace_profile(family, cap=cap)
    d = max(k for k, v in enumerate(profile) if v == 1 << k)
    for k, v in enumerate(profile):
        if v > sum(math.comb(k, i) for i in range(d + 1)):
            return False
    return True


# --- parametrized formulas and type spaces -------------------------------


@dataclass(frozen=True)
class ParametrizedFormula:
    """A total decidable predicate phi(x-tuple; y-tuple) over a carrier model.

    `batch(model, objs, params)` evaluates parameters against a whole
    (T, object_arity) int array of object tuples at once, and must agree with
    `eval_fn` pointwise.  `params` is either one plain tuple of ints, giving a
    (T,) bool array, or a block of k parameter tuples given as a tuple of
    `param_arity` int arrays of shape (k, 1), giving a (k, T) bool matrix
    whose row i belongs to the i-th tuple of the block.  Columns such as
    `objs[:, 0] < params[0]` broadcast to both forms; a result that does not
    depend on the parameters may stay (T,).  The refinement engine sizes its
    blocks so that one block's bits take at most _BLOCK_BYTES bytes, and
    passes a block of one as the plain tuple.
    """

    name: str
    object_arity: int
    param_arity: int
    eval_fn: Callable[[object, tuple[int, ...], tuple[int, ...]], bool]
    batch: Callable[[object, np.ndarray, tuple], np.ndarray]

    def __post_init__(self):
        if self.object_arity < 1 or self.param_arity < 1:
            raise DomainError("formula arities must be >= 1")

    def __call__(self, model, objs: tuple[int, ...], params: tuple[int, ...]) -> bool:
        return bool(self.eval_fn(model, objs, params))


@dataclass
class SweepCost:
    """What a refinement sweep cost: `batch` calls made and object tuples
    refined (a tuple refined in several chunks counts once per chunk)."""

    batch_calls: int = 0
    tuples_refined: int = 0


@dataclass(frozen=True, eq=False)
class TypeSpace:
    """Deduplicated realized sign vectors of carrier tuples over B x formulas.

    `complete` is False when the space was sampled rather than enumerated; the
    count is then only a lower bound.  `vectors`, in lexicographic order, hold
    one 0/1 byte per (parameter, formula) slot, param-major; they are built on
    first access from `_rows`, which yields one sign row per class.  `cost`
    counts the sweep that found the classes, not the building of `vectors`.
    """

    params: tuple[tuple[int, ...], ...]
    formula_names: tuple[str, ...]
    count: int
    complete: bool
    _rows: Callable[[], Sequence[bytes]] = field(repr=False)
    cost: SweepCost = field(default_factory=SweepCost)

    @cached_property
    def vectors(self) -> tuple[bytes, ...]:
        return tuple(self._rows())

    def vector_set(self) -> frozenset[bytes]:
        return frozenset(self.vectors)


def _tuple_count(carrier_size: int, arity: int) -> int:
    return carrier_size**arity


def _decode_tuples(indices: np.ndarray, carrier_size: int, arity: int) -> np.ndarray:
    """(T, arity) array of the object tuples with the given indices."""
    objs = np.empty((len(indices), arity), dtype=np.int64)
    rest = indices
    for pos in range(arity - 1, -1, -1):
        rest, objs[:, pos] = np.divmod(rest, carrier_size)
    return objs


def _slot_blocks(formulas, params, carrier, objs: np.ndarray, cost: Optional[SweepCost] = None):
    """The sign bits of `objs` over params x formulas, as one (slots, T) bool
    matrix per block of parameter tuples, slots in param-major order.

    A block holds k = max(1, _BLOCK_BYTES // (len(formulas) * T)) parameter
    tuples and costs one `batch` call per formula; a block of one is passed
    as the plain tuple."""
    t, n_f = len(objs), len(formulas)
    k = max(1, _BLOCK_BYTES // max(1, n_f * t))
    table = np.asarray(params, dtype=np.int64)
    for lo in range(0, len(params), k):
        hi = min(lo + k, len(params))
        if hi - lo == 1:
            block = params[lo]
        else:
            block = tuple(table[lo:hi, i : i + 1] for i in range(table.shape[1]))
        rows = [np.broadcast_to(f.batch(carrier, objs, block), (hi - lo, t)) for f in formulas]
        if cost is not None:
            cost.batch_calls += n_f
        yield rows[0] if n_f == 1 else np.stack(rows, axis=1).reshape(-1, t)


def _refine(formulas, params, carrier, objs: np.ndarray,
            cost: Optional[SweepCost] = None) -> np.ndarray:
    """Positions in `objs` of one tuple per distinct sign row, in lexicographic
    row order.

    Partition refinement: every tuple carries an integer class label, and the
    (parameter, formula) slots split the classes by their bits in param-major
    order, eight slots to a byte: label << 8 | byte.  Each tuple's byte is
    built in place, a slot at a time, on uint64 words that hold eight tuples'
    0/1 bytes; a 0/1 byte shifted by at most 7 stays inside its byte.  Before
    a label would overflow, np.unique renumbers the labels by rank, which
    keeps the lexicographic order of the row prefixes seen so far.

    Two kinds of slots split and reorder nothing, since rows that agree
    before such a slot agree on it: a slot whose bits over `objs` equal an
    earlier slot's, skipped while the packed bits of the slots seen, kept to
    at most _BLOCK_BYTES bytes, recognize it; and the zero slots that fill
    the last byte.
    """
    t = len(objs)
    t8 = -(-t // 8) * 8
    labels = np.zeros(t, dtype=np.int64)
    room = 56  # shifts left, a multiple of 8, before a label could overflow
    byte = np.zeros(t8 // 8, dtype=np.uint64)
    shifted = np.empty_like(byte)
    filled = 0
    seen: set[bytes] = set()
    seen_cap = _BLOCK_BYTES // max(1, t8 // 8)

    def fold():
        nonlocal labels, room, filled
        if room == 0:
            uniq, labels = np.unique(labels, return_inverse=True)
            room = (63 - (len(uniq) - 1).bit_length()) // 8 * 8
        labels <<= 8
        labels |= byte.view(np.uint8)[:t]
        room -= 8
        byte[:] = 0
        filled = 0

    for bits in _slot_blocks(formulas, params, carrier, objs, cost):
        if t == t8 and bits.dtype == bool and bits.flags.c_contiguous:
            words = bits.view(np.uint64)
        else:
            padded = np.zeros((len(bits), t8), dtype=np.uint8)
            padded[:, :t] = bits
            words = padded.view(np.uint64)
        for row, key in zip(words, np.packbits(bits, axis=1)):
            key = key.tobytes()
            if key in seen:
                continue
            if len(seen) < seen_cap:
                seen.add(key)
            np.left_shift(row, 7 - filled, out=shifted)
            byte |= shifted
            filled += 1
            if filled == 8:
                fold()
    if filled:
        fold()
    return np.unique(labels, return_index=True)[1]


def class_representatives(
    formulas: Sequence[ParametrizedFormula],
    params: Sequence[tuple[int, ...]],
    carrier,
    object_arity: int,
    tuple_indices: Optional[Sequence[int]] = None,
    cost: Optional[SweepCost] = None,
) -> np.ndarray:
    """Indices of one object tuple per distinct sign row over params x
    formulas, in lexicographic row order.

    Sweeps every carrier tuple, or only `tuple_indices`; a tuple's index is
    its base-`carrier.size` numeral.  The sweep
    runs in chunks of _SWEEP_TUPLES tuples, each refined together with the
    representatives found so far, so memory stays bounded by the chunk plus
    the classes.  `cost`, if given, accumulates what the sweep cost.
    """
    n = carrier.size
    if tuple_indices is None:
        total = _tuple_count(n, object_arity)
        chunks = (
            np.arange(lo, min(lo + _SWEEP_TUPLES, total), dtype=np.int64)
            for lo in range(0, total, _SWEEP_TUPLES)
        )
    else:
        indices = np.asarray(tuple_indices, dtype=np.int64)
        chunks = (
            indices[lo : lo + _SWEEP_TUPLES] for lo in range(0, len(indices), _SWEEP_TUPLES)
        )
    reps = np.empty(0, dtype=np.int64)
    for chunk in chunks:
        candidates = np.concatenate([reps, chunk])
        objs = _decode_tuples(candidates, n, object_arity)
        if cost is not None:
            cost.tuples_refined += len(candidates)
        reps = candidates[_refine(formulas, params, carrier, objs, cost)]
    return reps


def distinct_rows(packed: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D uint8 matrix, in lexicographic order.

    One 1-D np.unique over a void view, one item per row: far faster than
    np.unique(axis=0), which sorts structured rows."""
    packed = np.ascontiguousarray(packed)
    width = packed.shape[1]
    items = packed.view(np.dtype((np.void, width)))[:, 0]
    return np.unique(items).view(np.uint8).reshape(-1, width)


def _sign_rows(formulas, params, carrier, objs: np.ndarray) -> list[bytes]:
    """One 0/1 byte row per object tuple, param-major."""
    mat = np.empty((len(objs), len(params) * len(formulas)), dtype=np.uint8)
    col = 0
    for bits in _slot_blocks(formulas, params, carrier, objs):
        mat[:, col : col + len(bits)] = bits.T
        col += len(bits)
    return [row.tobytes() for row in mat]


def type_space(
    formulas: Sequence[ParametrizedFormula],
    params: Sequence[tuple[int, ...]],
    carrier,
    object_arity: int,
    cap: int = ENUM_CAP,
    sample: Optional[int] = None,
    seed: int = 0,
) -> TypeSpace:
    """Realized type space of carrier `object_arity`-tuples over params x formulas.

    Raises ResourceCapError when a full enumeration would exceed `cap`
    evaluations; pass `sample` (a tuple budget) to fall back to a seeded
    sample, which yields a lower bound flagged with complete=False.  The
    sample is drawn with random.Random(f"{seed}/type-space-sample"): of the
    T = carrier.size ** object_arity tuple indices, budget = min(sample, T)
    distinct ones by rng.sample(range(T), budget) when T <= 8 * budget, else
    budget independent rng.randrange(T) draws.
    """
    formulas = list(formulas)
    params = [tuple(b) for b in params]
    for f in formulas:
        if f.object_arity != object_arity:
            raise DomainError(f"formula {f.name} has object arity {f.object_arity}, expected {object_arity}")
    if params and formulas:
        pa = {f.param_arity for f in formulas}
        if len(pa) != 1:
            raise DomainError("formulas sharing a parameter set must share param arity")
        (pa,) = pa
        for b in params:
            if len(b) != pa:
                raise DomainError(f"parameter tuple {b} has arity {len(b)}, expected {pa}")
    n = carrier.size
    slots = len(params) * len(formulas)
    names = tuple(f.name for f in formulas)
    if slots == 0:
        return TypeSpace(tuple(params), names, 1, True, lambda: [b""])

    total = _tuple_count(n, object_arity)
    evals = total * slots
    complete = True
    tuple_indices = None
    if evals > cap:
        if sample is None:
            raise ResourceCapError(
                f"enumerating {total} tuples x {slots} slots = {evals} evaluations "
                f"exceeds cap {cap}; pass sample=<tuple budget> for a flagged lower bound"
            )
        rng = Random(f"{seed}/type-space-sample")
        budget = min(sample, total)
        if total <= 8 * budget:
            tuple_indices = rng.sample(range(total), budget)
        else:
            tuple_indices = [rng.randrange(total) for _ in range(budget)]
        complete = False

    cost = SweepCost()
    reps = class_representatives(formulas, params, carrier, object_arity, tuple_indices, cost)
    objs = _decode_tuples(reps, n, object_arity)
    return TypeSpace(
        tuple(params), names, len(reps), complete,
        partial(_sign_rows, formulas, params, carrier, objs), cost,
    )


# --- growth series and exponent fitting ----------------------------------


@dataclass(frozen=True)
class GrowthPoint:
    m: int
    count: int
    seed: int

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"growth point needs m >= 2, got {self.m}")
        if self.count < 1:
            raise DomainError(f"growth point needs count >= 1, got {self.count}")


@dataclass(frozen=True)
class GrowthSeries:
    points: tuple[GrowthPoint, ...]
    fitted_exponent: Optional[float] = None

    def with_fit(self) -> "GrowthSeries":
        return GrowthSeries(self.points, fit_codensity_exponent(self).slope)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residuals: tuple[float, ...]


def fit_codensity_exponent(series: GrowthSeries) -> FitResult:
    """Least-squares slope of log(count) against log(m), with per-point residuals."""
    pts = series.points
    if len({p.m for p in pts}) < 3:
        raise DomainError("exponent fitting needs at least 3 distinct m values")
    xs = [math.log(p.m) for p in pts]
    ys = [math.log(p.count) for p in pts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    residuals = tuple(y - (intercept + slope * x) for x, y in zip(xs, ys))
    return FitResult(slope, intercept, residuals)
