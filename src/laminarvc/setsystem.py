"""Finite set systems: traces, shatter functions, VC dimension, and type spaces.

Type counting here is *realized*: a sign vector is counted only if some tuple
of carrier elements actually produces it.  Realized counts under-approximate
abstract type spaces, so they are valid as growth lower bounds and as inputs
to upper-bound checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from random import Random
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, ResourceCapError

UNIVERSE_CAP = 4096
VC_UNIVERSE_CAP = 24
ENUM_CAP = 1 << 26
_PROFILE_BYTES = 1 << 23
# max_trace_profile's working bytes per probe of a chunk (its word, repeat
# count and place in the size order, the closure's scratch) and per pair
# of a seeding slice (the difference, its tests, the pair's indices)
_PROBE_BYTES = 32
_PAIR_BYTES = 64
_BLOCK_BYTES = 1 << 17
_SWEEP_CHUNK = 1 << 18


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

    @cached_property
    def member(self) -> np.ndarray:
        """(sets, universe) bool matrix: does set i hold element x."""
        member = np.zeros((len(self.sets), self.universe.size), dtype=bool)
        for i, s in enumerate(self.sets):
            member[i, list(s)] = True
        return member


def row_words(member: np.ndarray) -> np.ndarray:
    """The rows of an (n, U) bool matrix packed into (n, ceil(U/64)) uint64
    words, zero padded.  Bit order within a word is np.packbits', which
    every caller only ANDs and counts."""
    n, u = member.shape
    packed = np.zeros((n, -(-u // 64) * 8), dtype=np.uint8)
    packed[:, : -(-u // 8)] = np.packbits(member, axis=1)
    return packed.view(np.uint64)


def meets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) bool matrix: rows a[i] and b[j] of two (., U)
    bool matrices share a column.  "b[j] lies inside a[i]" is
    ~meets(~a, b), and the Boolean product of relations r and s is
    meets(r, s.T).

    On row_words, a pair meets when some word position ANDs to non-zero.
    Rows of a go in blocks, so that one word position's AND, a
    (rows, len(b)) uint64 array, takes at most _BLOCK_BYTES bytes; meets(a, a)
    packs a once."""
    wa = row_words(a)
    wb = wa if b is a else row_words(b)
    out = np.zeros((len(wa), len(wb)), dtype=bool)
    side = max(1, _BLOCK_BYTES // max(1, 8 * len(wb)))
    for lo in range(0, len(wa), side):
        block = out[lo : lo + side]
        for w in range(wa.shape[1]):
            block |= (wa[lo : lo + side, w, None] & wb[:, w]) != 0
    return out


def vc_dimension(family: SetFamily, cap: int = VC_UNIVERSE_CAP) -> int:
    """Largest d such that some d-subset is shattered: max_trace_profile's d-th entry is 2**d."""
    if not family.sets:
        raise DomainError("vc_dimension requires a nonempty family")
    profile = max_trace_profile(family, cap=cap)
    return max(s for s, v in enumerate(profile) if v == 1 << s)


@cache
def _probes_by_size(c: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^c probe masks of a max_trace_profile chunk grouped by their
    number of elements, s = 0 ... c, as int32 indices, and where each group
    starts.  Cached per c, read-only: 4 bytes a probe, so the cache holds
    under 128 KB for every c <= 14."""
    order = np.argsort(np.bitwise_count(np.arange(1 << c)), kind="stable").astype(np.int32)
    starts = np.cumsum([0] + [math.comb(c, s) for s in range(c)])
    order.flags.writeable = starts.flags.writeable = False
    return order, starts


def max_trace_profile(family: SetFamily, cap: int = VC_UNIVERSE_CAP) -> list[int]:
    """profile[s] = the shatter function at s, the most distinct traces on an
    s-subset of the universe, for every s, from one superset closure over
    the 2^n probe masks.

    With m_0 < ... < m_{k-1} the distinct member masks, set j's trace on a
    probe P repeats an earlier set's exactly when (m_i ^ m_j) & P == 0 for
    some i < j, that is when P lies below the probe ~(m_i ^ m_j).  So P has
    k distinct traces less the sets repeated at P.  For each block of 64
    sets [lo, lo + 64), bit j - lo of one uint64 word per probe is seeded
    at every probe ~(m_i ^ m_j), i < j, and ORed down into every subset of
    it, one element at a time (the zeta transform of Bjorklund, Husfeldt,
    Kaski and Koivisto, "Fourier meets Mobius", STOC 2007); the set bits of
    P's word are the block's sets repeated at P.

    The probes go in chunks of 2^c that share their bits >= c, H: only the
    pairs with (m_i ^ m_j) & H == 0 seed a chunk, at their c low bits, in
    slices of the sets i.  c and the slice length keep the chunk's
    per-probe arrays and a slice's per-pair arrays within _PROFILE_BYTES.
    The work is O(2^(n-c) k^2 / 2 + n 2^n ceil(k / 64))."""
    n = family.universe.size
    if n > cap:
        raise ResourceCapError(
            f"universe size {n} exceeds exhaustive cap {cap}; "
            "reduce the universe or sample probe sets externally"
        )
    masks = np.array(sorted(set(family.masks)), dtype=np.int64)
    k = len(masks)
    half = _PROFILE_BYTES // 2
    c = min(n, max(0, (half // _PROBE_BYTES).bit_length() - 1))
    rows = max(1, half // (64 * _PAIR_BYTES))
    low = (1 << c) - 1
    order, starts = _probes_by_size(c)
    profile = np.zeros(n + 1, dtype=np.int64)
    # one trace on the empty probe, even for the empty family
    profile[0] = 1
    for high in range(0, 1 << n, 1 << c):
        repeated = np.zeros(1 << c, dtype=np.int32)
        for lo in range(0, k, 64):
            hi = min(lo + 64, k)
            words = np.zeros(1 << c, dtype=np.uint64)
            bit = np.left_shift(np.uint64(1), np.arange(hi - lo, dtype=np.uint64))
            for a in range(0, hi - 1, rows):
                b = min(a + rows, hi - 1)
                d = masks[a:b, None] ^ masks[lo:hi]
                i, j = np.nonzero((d & high == 0) & (np.arange(a, b)[:, None] < np.arange(lo, hi)))
                np.bitwise_or.at(words, ~d[i, j] & low, bit[j])
            for e in range(c):
                split = words.reshape(-1, 2, 1 << e)
                split[:, 0] |= split[:, 1]
            repeated += np.bitwise_count(words)
        least = np.minimum.reduceat(repeated[order], starts)
        top = high.bit_count()
        np.maximum(profile[top : top + c + 1], k - least, out=profile[top : top + c + 1])
    return [int(x) for x in profile]


def sauer_check(family: SetFamily, cap: int = VC_UNIVERSE_CAP) -> bool:
    """True iff max_trace_profile(family)[k] <= sum_{i<=d} C(k, i) for all
    k, where d = vc_dimension(family)."""
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

    `batch(model, objs, params)` is its one evaluator: it evaluates a block
    of k parameter tuples against a whole (T, object_arity) int array of
    object tuples at once.  `params` is a tuple of `param_arity` int arrays
    of shape (k, 1), the block's columns, and the result is a (k, T) bool
    matrix whose row i belongs to the i-th tuple of the block.  Columns such
    as `objs[:, 0] < params[0]` broadcast to that shape; a result that does
    not depend on the parameters may stay (T,).  `sign_matrix` and
    type_space read every formula through `_slot_blocks`, which sizes the
    blocks so that one block's bits take at most _BLOCK_BYTES bytes.
    """

    name: str
    object_arity: int
    param_arity: int
    batch: Callable[[object, np.ndarray, tuple], np.ndarray]

    def __post_init__(self):
        if self.object_arity < 1 or self.param_arity < 1:
            raise DomainError("formula arities must be >= 1")


@dataclass(frozen=True, eq=False)
class TypeSpace:
    """Deduplicated realized sign vectors of carrier tuples over B x formulas.

    `complete` is False when the space was sampled rather than enumerated; the
    count is then only a lower bound.  `rows` holds the distinct sign rows
    packed eight slots to a byte, as distinct_rows returns them; `vectors`,
    in the same lexicographic order, hold one 0/1 byte per (parameter,
    formula) slot, param-major, and are unpacked on first access.
    """

    params: tuple[tuple[int, ...], ...]
    formula_names: tuple[str, ...]
    complete: bool
    rows: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.rows)

    @cached_property
    def vectors(self) -> tuple[bytes, ...]:
        slots = len(self.params) * len(self.formula_names)
        return tuple(row.tobytes() for row in np.unpackbits(self.rows, axis=1, count=slots))

    def vector_set(self) -> frozenset[bytes]:
        return frozenset(self.vectors)


def _decode_tuples(indices: np.ndarray, carrier_size: int, arity: int) -> np.ndarray:
    """(T, arity) array of the object tuples with the given indices."""
    objs = np.empty((len(indices), arity), dtype=np.int64)
    rest = indices
    for pos in range(arity - 1, -1, -1):
        rest, objs[:, pos] = np.divmod(rest, carrier_size)
    return objs


def _slot_blocks(formulas, params, carrier, objs: np.ndarray):
    """The sign bits of `objs` over params x formulas, as one (slots, T) bool
    matrix per block of parameter tuples, slots in param-major order.

    A block holds k = max(1, _BLOCK_BYTES // (len(formulas) * T)) parameter
    tuples, passed as (k, 1) columns, and costs one `batch` call per
    formula."""
    t, n_f = len(objs), len(formulas)
    k = max(1, _BLOCK_BYTES // max(1, n_f * t))
    table = np.asarray(params, dtype=np.int64)
    for lo in range(0, len(params), k):
        hi = min(lo + k, len(params))
        block = tuple(table[lo:hi, i : i + 1] for i in range(table.shape[1]))
        rows = [np.broadcast_to(f.batch(carrier, objs, block), (hi - lo, t)) for f in formulas]
        yield rows[0] if n_f == 1 else np.stack(rows, axis=1).reshape(-1, t)


def sign_matrix(formulas, params, carrier, objs: np.ndarray) -> np.ndarray:
    """The (slots, T) bool matrix of _slot_blocks' blocks stacked: row
    (parameter, formula), param-major, holds the formula's sign at each
    object tuple of `objs`.  No slots give a (0, T) matrix."""
    blocks = _slot_blocks(formulas, params, carrier, objs)
    return np.concatenate([np.empty((0, len(objs)), dtype=bool), *blocks])


def distinct_rows(packed: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D uint8 matrix, in lexicographic order.

    Each row, zero-padded to whole words (a copy only when the width is not
    a multiple of 8), is read as big-endian uint64 words, which compare in
    the order their bytes do.  np.lexsort sorts the rows by their words, the
    first word most significant; the sorted rows' words are gathered once,
    and a row is kept unless every word equals its sorted predecessor's.
    Zero-width rows are all equal: one of them, or none when there are no
    rows."""
    n, width = packed.shape
    if width == 0:
        return packed[:1]
    if width % 8:
        padded = np.zeros((n, width + -width % 8), dtype=np.uint8)
        padded[:, :width] = packed
    else:
        padded = np.ascontiguousarray(packed)
    order = np.lexsort(padded.view(">u8").T[::-1])
    words = padded.view(np.uint64)[order]
    keep = np.ones(n, dtype=bool)
    keep[1:] = (words[1:] != words[:-1]).any(axis=1)
    return packed[order[keep]]


def distinct_keys(keys: np.ndarray) -> np.ndarray:
    """The distinct non-negative int64 keys, ascending: each sorted key that
    differs from its predecessor (np.unique would import numpy.ma on its
    first call in a process).  Callers pack ints a, b into a key a * w + b,
    w past every b, in int64: products of int32 node ids could overflow."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def distinct_ranges(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sets among the int ranges [a[i], b[i]), as two int64
    arrays: every empty range (a >= b) is the empty set, given once as
    (0, 0), and the rest are sorted by (a, b), deduped as keys a * w + b."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    w = int(b.max(initial=0)) + 1
    return np.divmod(distinct_keys(np.where(a < b, a * w + b, 0)), w)


def range_set_count(a1, b1, a2, b2) -> int:
    """The number of distinct sets among the symmetric differences of the
    int ranges [a1[i], b1[i]) and [a2[i], b2[i]) (a <= b; (0, 0) stands
    for no second range).

    With its ends in order, e0 <= e1 <= e2 <= e3, such a set is
    [e0, e1) | [e2, e3): a point is in it when an odd number of ends are at
    or below it.  Touching parts (e1 = e2) merge.  A part is keyed
    e * w + e', w past every end, an empty part 0, and the set by its two
    part keys, smaller first: below w**4, which must stay below 2**63.
    Past w = 55108 the ends are replaced by their ranks among the distinct
    ends, at most 4L + 2 of them in a growth cell (L <= 4096)."""
    a1, b1, a2, b2 = (np.asarray(x, dtype=np.int64) for x in (a1, b1, a2, b2))
    # two ordered pairs merged
    mid0, mid1 = np.maximum(a1, a2), np.minimum(b1, b2)
    e = [np.minimum(a1, a2), np.minimum(mid0, mid1), np.maximum(mid0, mid1), np.maximum(b1, b2)]
    w = int(e[3].max(initial=0)) + 1
    if w**4 >= 1 << 63:
        values = distinct_keys(np.concatenate(e))
        e, w = [np.searchsorted(values, x) for x in e], len(values)
    e0, e1, e2, e3 = e
    touch = e1 == e2
    e1, e2 = np.where(touch, e3, e1), np.where(touch, e3, e2)
    p, q = np.where(e0 < e1, e0 * w + e1, 0), np.where(e2 < e3, e2 * w + e3, 0)
    return len(distinct_keys(np.minimum(p, q) * w * w + np.maximum(p, q)))


def laminar_union_count(a, b) -> tuple[int, int]:
    """(u, d) for a laminar family T of int ranges [a[i], b[i]) (any two
    nested or disjoint; empty and repeated ranges allowed): u distinct
    unions A | B over ordered pairs of members, A = B included, and d = |T|.

    Every member is a union (A | A), a nested pair gives its larger member,
    and two different disjoint pairs of non-empty members never give the
    same union.  A disjoint union is itself a member U exactly when U has two
    children (maximal proper subsets in T) and they partition U.  So
    u = |T| + (disjoint pairs of non-empty members) - (members split
    exactly by two children).  With the non-empty members sorted by (a, b),
    each is disjoint from the members that end by its start, and [a, c) is
    split exactly by [a, b) and [b, c), [a, b) then the member before it."""
    a, b = distinct_ranges(a, b)
    d = len(a)
    a, b = a[a < b], b[a < b]
    disjoint = int(np.searchsorted(np.sort(b), a, side="right").sum())
    w = int(b.max(initial=0)) + 1
    keys = a * w + b  # ascending
    left = np.flatnonzero(a[1:] == a[:-1])
    rest = b[left] * w + b[left + 1]
    at = np.minimum(np.searchsorted(keys, rest), len(keys) - 1)
    split = int(np.count_nonzero(keys[at] == rest))
    return d + disjoint - split, d


def segment_count(size: int, a1, b1, a2, b2) -> int:
    """The distinct sign rows of the points 0 <= r < size against m' sets,
    set j the symmetric difference of the ranges [a1[j], b1[j]) and
    [a2[j], b2[j]) (ends within [0, size]).

    A point's row changes only where some range starts or ends, so the
    cut points 0 and every end below size split [0, size) into S segments
    of equal rows.  Each end toggles its set's bit at the start of the
    segment it cuts, in an (S + 1, ceil(m'/64) words) matrix whose row S
    takes the ends at size; two toggles at one place cancel, as a
    symmetric difference does.  A running XOR down the rows gives each
    segment's packed row, and distinct_rows counts the first S of them."""
    ends = np.concatenate([a1, b1, a2, b2])
    m = len(a1)
    # cut[r]: a segment starts at r; seg[r]: the segment that holds r, and S
    # at r = size.  np.unique would import numpy.ma on its first call
    cut = np.bincount(ends, minlength=size + 1).astype(bool)
    cut[0] = cut[size] = True
    seg = np.cumsum(cut) - 1
    j = np.tile(np.arange(m), 4)
    toggles = np.zeros((seg[size] + 1, -(-m // 64) * 8), dtype=np.uint8)
    np.bitwise_xor.at(toggles, (seg[ends], j >> 3), (0x80 >> (j & 7)).astype(np.uint8))
    rows = np.bitwise_xor.accumulate(toggles.view(np.uint64), axis=0)
    return len(distinct_rows(rows[:-1].view(np.uint8)))


# the three masked delta swaps (shift, mask) of Hacker's Delight's transpose8
_TRANSPOSE8_SWAPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0),
    )
)


def packed_columns(packed: np.ndarray, size: int) -> np.ndarray:
    """The (size, ceil(m/8)) packed transpose of an (m, ceil(size/8)) uint8
    matrix of bit rows packed big-endian, as np.packbits packs them: row x
    holds bit x of every row, equal to np.packbits(np.unpackbits(packed,
    axis=1, count=size).T, axis=1), with no byte per bit.

    Eight rows of one byte column are an 8x8 bit block, loaded as one
    big-endian uint64 (row 0 in the high byte) and transposed in place by
    three masked delta swaps.  The rows go in groups of whole blocks, each
    group written into a column slice of the preallocated result, so that
    each of the two working arrays, the group's words and their scratch,
    holds at most _BLOCK_BYTES bytes.  Rows missing from the last block are
    zero, which leaves the padding bits of the result 0; the rows past
    `size` that the last byte column gives are dropped."""
    m, width = packed.shape
    blocks = -(-m // 8)
    out = np.empty((8 * width, blocks), dtype=np.uint8)
    group = max(1, _BLOCK_BYTES // max(1, 8 * width))
    for lo in range(0, blocks, group):
        hi = min(lo + group, blocks)
        rows = packed[8 * lo : 8 * hi]
        full, rest = divmod(len(rows), 8)
        # words[i, j] holds rows 8i..8i+7 of byte column j
        words = np.zeros((hi - lo, width, 8), dtype=np.uint8)
        words[:full] = rows[: 8 * full].reshape(full, 8, width).transpose(0, 2, 1)
        words[full:, :, :rest] = rows[8 * full :].T
        x = words.view(np.uint64)[..., 0]
        x.byteswap(inplace=True)
        t = np.empty_like(x)
        for shift, mask in _TRANSPOSE8_SWAPS:
            np.right_shift(x, shift, out=t)
            t ^= x
            t &= mask
            x ^= t
            t <<= shift
            x ^= t
        # byte c of words[i, j] is now byte lo + i of result row 8j + c
        x.byteswap(inplace=True)
        out[:, lo:hi] = words.transpose(1, 2, 0).reshape(8 * width, hi - lo)
    return out[:size]


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
    sample, which yields a lower bound flagged with complete=False.  Of the
    T = carrier.size ** object_arity tuple indices, a budget of sample >= T
    sweeps them all, in index order (a sample of every tuple is a
    permutation of them, which realizes the same rows).  A smaller budget
    is drawn with random.Random(f"{seed}/type-space-sample"): `sample`
    distinct indices by rng.sample(range(T), sample) when T <= 8 * sample,
    else `sample` independent rng.randrange(T) draws.

    The tuples are swept in chunks of at most _SWEEP_CHUNK, so memory grows
    with the chunk, not with T.  In each chunk, each _slot_blocks block is
    packed along the tuple axis into a (slots, ceil(t/8)) matrix, whose
    packed transpose (packed_columns) holds one sign row per tuple, and
    distinct_rows keeps the chunk's distinct rows; with more than one chunk,
    distinct_rows dedupes their survivors again.  Either way the rows come
    out distinct and in lexicographic order.
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
        return TypeSpace(tuple(params), names, True, np.zeros((1, 0), dtype=np.uint8))

    total = n**object_arity
    evals = total * slots
    complete = evals <= cap
    if not complete and sample is None:
        raise ResourceCapError(
            f"enumerating {total} tuples x {slots} slots = {evals} evaluations "
            f"exceeds cap {cap}; pass sample=<tuple budget> for a flagged lower bound"
        )
    swept = complete or sample >= total
    if swept:
        indices = range(total)
    else:
        rng = Random(f"{seed}/type-space-sample")
        if total <= 8 * sample:
            indices = rng.sample(range(total), sample)
        else:
            indices = [rng.randrange(total) for _ in range(sample)]
    chunks = []
    # one chunk, even of no tuples, is counted alone
    for lo in range(0, max(1, len(indices)), _SWEEP_CHUNK):
        hi = min(lo + _SWEEP_CHUNK, len(indices))
        # a sweep of every tuple goes in aranges: no Python int per tuple
        chunk = np.arange(lo, hi) if swept else np.asarray(indices[lo:hi], dtype=np.int64)
        objs = _decode_tuples(chunk, n, object_arity)
        packed = np.empty((slots, -(-len(objs) // 8)), dtype=np.uint8)
        row = 0
        for bits in _slot_blocks(formulas, params, carrier, objs):
            packed[row : row + len(bits)] = np.packbits(bits, axis=1)
            row += len(bits)
        chunks.append(distinct_rows(packed_columns(packed, len(objs))))
    rows = chunks[0] if len(chunks) == 1 else distinct_rows(np.concatenate(chunks))
    return TypeSpace(tuple(params), names, complete, rows)


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
