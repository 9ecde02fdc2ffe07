import ast
import math
from itertools import combinations, product
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import shatter_function, sign_rows, trace

from laminarvc import (
    DomainError,
    GrowthPoint,
    GrowthSeries,
    ParametrizedFormula,
    ResourceCapError,
    SetFamily,
    Universe,
    fit_codensity_exponent,
    max_trace_profile,
    sauer_check,
    type_space,
    vc_dimension,
)
from laminarvc import setsystem
from laminarvc.models import OrderModel, growth_formula


def initial_segments(n, include_all=True):
    top = n + 1 if include_all else n
    return SetFamily.of(n, [frozenset(range(c)) for c in range(top)])


def intervals(n):
    return SetFamily.of(n, [frozenset(range(a, b + 1)) for a in range(n) for b in range(a, n)])


def brute_trace(family, probe):
    return {s & frozenset(probe) for s in family.sets}


# --- trace ------------------------------------------------------------------


def test_member_matrix_marks_each_set():
    fam = SetFamily.of(4, [{0, 2}, set(), {3}, {0, 2}])
    assert fam.member.tolist() == [[x in s for x in range(4)] for s in fam.sets]
    assert SetFamily.of(2, []).member.shape == (0, 2)


def test_trace_identical_members_collapse():
    fam = SetFamily.of(3, [{0, 1}, {1, 2}])
    assert set(trace(fam, {1}).sets) == {frozenset({1})}


def test_trace_empty_probe():
    fam = SetFamily.of(3, [{0, 1}, {1, 2}])
    assert set(trace(fam, set()).sets) == {frozenset()}


def test_trace_initial_segments_derived():
    fam = initial_segments(3)
    got = set(trace(fam, {0, 2}).sets)
    assert got == brute_trace(fam, {0, 2})
    assert got == {frozenset(), frozenset({0}), frozenset({0, 2})}


def test_trace_out_of_range_probe():
    with pytest.raises(DomainError):
        trace(SetFamily.of(2, [{0}]), {5})


@given(st.integers(1, 8), st.integers(0, 2**6 - 1), st.data())
@settings(deadline=None, max_examples=60)
def test_trace_bounded_by_power_of_probe(n, _seed, data):
    rng = Random(_seed)
    sets = [frozenset(i for i in range(n) if rng.random() < 0.5) for _ in range(rng.randint(1, 10))]
    fam = SetFamily.of(n, sets)
    probe = data.draw(st.sets(st.integers(0, n - 1)))
    assert len(trace(fam, probe).sets) <= 2 ** len(probe)


# --- vc dimension and shatter function ---------------------------------------


def test_vc_dimension_derived_values():
    assert vc_dimension(initial_segments(6)) == 1
    assert vc_dimension(intervals(6)) == 2


def test_vc_dimension_trivial():
    assert vc_dimension(SetFamily.of(1, [set()])) == 0


def test_vc_dimension_brute_force_agreement():
    # independent oracle: try every subset of every size
    rng = Random(4)
    for _ in range(25):
        n = rng.randint(1, 7)
        fam = SetFamily.of(n, [
            frozenset(i for i in range(n) if rng.random() < 0.5)
            for _ in range(rng.randint(1, 8))
        ])
        best = 0
        for d in range(n + 1):
            for probe in combinations(range(n), d):
                if len(brute_trace(fam, probe)) == 2**d:
                    best = max(best, d)
        assert vc_dimension(fam) == best


def test_vc_dimension_cap():
    with pytest.raises(ResourceCapError):
        vc_dimension(SetFamily.of(30, [{0}]))
    # no sets is a domain error, whatever the universe
    with pytest.raises(DomainError):
        vc_dimension(SetFamily.of(30, []))


def test_shatter_function_values():
    assert shatter_function(initial_segments(5), 0) == 1
    assert shatter_function(initial_segments(5), 2) == 3
    assert shatter_function(intervals(5), 2) == 4


def test_shatter_function_range_error():
    with pytest.raises(DomainError):
        shatter_function(initial_segments(5), 6)
    with pytest.raises(DomainError):
        shatter_function(initial_segments(5), -1)


def profile_families():
    """The empty family, a single set, one set repeated, and random families
    at n <= 12, with repeated sets and up to 90 distinct ones (two words
    per probe when more than 64)."""
    rng = Random(11)
    yield SetFamily.of(3, [])
    yield SetFamily.of(5, [{1, 3}])
    yield SetFamily.of(4, [{0, 2}] * 3)
    for _ in range(8):
        n = rng.randint(1, 12)
        distinct = [
            frozenset(i for i in range(n) if rng.random() < 0.5)
            for _ in range(rng.randint(1, 90))
        ]
        yield SetFamily.of(n, distinct + [rng.choice(distinct) for _ in range(rng.randint(0, 20))])
    for n in (10, 12):
        masks = rng.sample(range(1 << n), 90)
        yield SetFamily.of(n, [frozenset(i for i in range(n) if m >> i & 1) for m in masks])


def test_profile_matches_shatter_function():
    rng = Random(2)
    for _ in range(20):
        n = rng.randint(1, 9)
        fam = SetFamily.of(n, [
            frozenset(i for i in range(n) if rng.random() < 0.4)
            for _ in range(rng.randint(1, 12))
        ])
        profile = max_trace_profile(fam)
        assert profile == [shatter_function(fam, k) for k in range(n + 1)]
    for fam in profile_families():
        n = fam.universe.size
        assert max_trace_profile(fam) == [shatter_function(fam, k) for k in range(n + 1)]


def test_profile_in_small_chunks_with_duplicate_sets(monkeypatch):
    from laminarvc import setsystem

    monkeypatch.setattr(setsystem, "_PROFILE_BYTES", 100)
    rng = Random(4)
    for _ in range(10):
        n = rng.randint(1, 9)
        distinct = [
            frozenset(i for i in range(n) if rng.random() < 0.5)
            for _ in range(rng.randint(1, 8))
        ]
        fam = SetFamily.of(n, [rng.choice(distinct) for _ in range(rng.randint(1, 30))])
        profile = max_trace_profile(fam)
        assert profile == [shatter_function(fam, k) for k in range(n + 1)]
    # 2^8 probes a chunk and two sets i a seeding slice: the n >= 9
    # families go in many high-bit chunks, and every one in many slices
    monkeypatch.setattr(setsystem, "_PROFILE_BYTES", 1 << 14)
    for fam in profile_families():
        n = fam.universe.size
        assert max_trace_profile(fam) == [shatter_function(fam, k) for k in range(n + 1)]


def test_profile_probe_order_is_cached_small_and_read_only():
    held = 0
    for c in range(15):
        order, starts = setsystem._probes_by_size(c)
        assert setsystem._probes_by_size(c)[0] is order
        assert not order.flags.writeable and not starts.flags.writeable
        sizes = np.bitwise_count(np.arange(1 << c))[order]
        assert sorted(order.tolist()) == list(range(1 << c))
        assert (np.diff(sizes) >= 0).all()
        assert starts.tolist() == [int(np.searchsorted(sizes, s)) for s in range(c + 1)]
        held += order.nbytes + starts.nbytes
    assert held < 256 * 1024


def test_profile_memory_bounded_by_budget():
    import tracemalloc

    from laminarvc import setsystem

    rng = Random(5)
    n = 14
    fam = SetFamily.of(n, [
        frozenset(i for i in range(n) if rng.random() < 0.5) for _ in range(400)
    ])
    tracemalloc.start()
    try:
        max_trace_profile(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk of 16384 probes x 400 sets would take more than 50 MB
    assert peak < 2 * setsystem._PROFILE_BYTES


def test_profile_memory_bounded_at_twenty_elements():
    import tracemalloc

    from laminarvc import setsystem

    rng = Random(6)
    n = 20
    fam = SetFamily.of(n, [
        frozenset(i for i in range(n) if rng.random() < 0.5) for _ in range(30)
    ])
    tracemalloc.start()
    try:
        max_trace_profile(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk of all 2^20 probes would hold 8 MB in its words alone,
    # and more in their counts and their order by size
    assert peak < 2 * setsystem._PROFILE_BYTES


def test_shatter_monotone_and_capped():
    rng = Random(3)
    for _ in range(20):
        n = rng.randint(2, 9)
        fam = SetFamily.of(n, [
            frozenset(i for i in range(n) if rng.random() < 0.5)
            for _ in range(rng.randint(1, 12))
        ])
        profile = max_trace_profile(fam)
        for k in range(n):
            assert profile[k] <= profile[k + 1]
            assert profile[k] <= 2 * profile[k + 1]
        for k, v in enumerate(profile):
            assert v <= 2**k


# --- sauer check -------------------------------------------------------------


def test_sauer_trivial_and_derived():
    assert sauer_check(SetFamily.of(1, [set(), {0}]))
    assert sauer_check(SetFamily.of(3, []))
    assert sauer_check(intervals(6))


def test_sauer_random_laminar_families():
    from laminarvc.models import ball_family, random_ultrametric

    rng = Random(9)
    for _ in range(50):
        model = random_ultrametric(rng.randint(2, 10), rng.randint(2, 4), rng.randrange(1 << 20))
        assert sauer_check(ball_family(model).base)


# --- the relation primitive -------------------------------------------------


def relation_matrices(rng):
    """(n, u) bool matrices of every width around a word boundary, sparse,
    even and dense, with no rows, and with an empty row and two equal rows
    among random ones."""
    for u in (1, 63, 64, 65, 130):
        for n in (0, 1, 5, 40):
            m = rng.random((n, u)) < rng.choice([0.05, 0.5, 0.95])
            if n >= 4:
                m[1] = False
                m[2] = m[3]
            yield m


@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_meets_matches_the_integer_products(block_rows, monkeypatch):
    # meets(a, b) against A Bᵀ > 0, the subset form against (1 - A) Bᵀ == 0
    # and the Boolean product against R S > 0; the rows of a go in blocks
    # of block_rows, or all in one block.  meets(a, a) packs a once
    def blocked(a, b):
        if block_rows is not None:
            monkeypatch.setattr(setsystem, "_BLOCK_BYTES", 8 * len(b) * block_rows)
        return setsystem.meets(a, b)

    packed = []
    pack = setsystem.row_words
    monkeypatch.setattr(setsystem, "row_words", lambda m: packed.append(m) or pack(m))
    ints = lambda m: m.astype(np.int64)
    rng = np.random.default_rng(0)
    for a in relation_matrices(rng):
        # a's rows reversed, then as many random rows
        b = np.concatenate([a[::-1], rng.random(a.shape) < 0.5])
        assert np.array_equal(blocked(a, b), ints(a) @ ints(b).T > 0)
        packed.clear()
        assert np.array_equal(blocked(a, a), ints(a) @ ints(a).T > 0)
        assert len(packed) == 1
        assert np.array_equal(~blocked(~a, b), (1 - ints(a)) @ ints(b).T == 0)
        assert np.array_equal(~blocked(~b, a), (1 - ints(b)) @ ints(a).T == 0)
    for n in (0, 1, 63, 64, 65, 130):
        r, s = rng.random((2, n, n)) < 0.05
        assert np.array_equal(blocked(r, s.T), ints(r) @ ints(s) > 0)


def matrix_products(source: str) -> list[int]:
    """The lines of `source` that multiply matrices: the @ operator, or a
    call of matmul, dot or einsum, as a function or a method."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in {"matmul", "dot", "einsum"}:
                lines.append(node.lineno)
    return sorted(lines)


def test_the_package_multiplies_no_matrices():
    # relations are composed and compared through setsystem.meets alone,
    # and no NumPy product starts BLAS threads on the lemma path
    sample = "a @ b\nnp.matmul(a, b)\nx.dot(y)\nnp.einsum('ij,jk', a, b)\na @= b\ndot(a, b)\n"
    assert matrix_products(sample) == [1, 2, 3, 4, 5, 6]
    package = Path(setsystem.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := matrix_products(path.read_text()))
    }
    assert found == {}


# --- type spaces -------------------------------------------------------------


def lt_formula():
    return ParametrizedFormula("lt", 1, 1, lambda M, objs, p: objs[:, 0] < p[0])


def test_type_space_three_element_order():
    ts = type_space([lt_formula()], [(1,), (2,)], OrderModel(3), 1)
    assert ts.count == 3
    assert set(ts.vectors) == {b"\x01\x01", b"\x00\x01", b"\x00\x00"}


def test_type_space_empty_params():
    ts = type_space([lt_formula()], [], OrderModel(3), 1)
    assert ts.count == 1
    assert ts.vectors == (b"",)


def test_type_space_equality_witness_eleven():
    B = [(0,), (1,), (2,), (3,)]
    ts = type_space([growth_formula("pair-equality", 2)], B, OrderModel(6), 2)
    assert ts.count == 1 + 4 + math.comb(4, 2)


def test_type_space_duplicated_formula_same_count():
    f = lt_formula()
    B = [(1,), (3,), (4,)]
    single = type_space([f], B, OrderModel(5), 1)
    doubled = type_space([f, f], B, OrderModel(5), 1)
    assert single.count == doubled.count


def test_type_space_batch_matches_reference():
    eq = growth_formula("pair-equality", 2)
    B = [(1,), (4,), (6,)]
    fast = type_space([eq], B, OrderModel(8), 2)
    ref = sign_rows([lambda v, u: u[0] in v], B, product(range(8), repeat=2))
    assert list(fast.vectors) == ref


def test_type_space_linear_bound_for_directed_formula():
    from laminarvc.models import random_ultrametric

    rng = Random(13)
    for _ in range(20):
        model = random_ultrametric(rng.randint(4, 24), 3, rng.randrange(1 << 20))
        delta = [growth_formula("lca-ball", 1)]
        C = [(rng.randrange(model.size), rng.randrange(model.size)) for _ in range(rng.randint(1, 10))]
        ts = type_space(delta, C, model, 1)
        assert ts.count <= len(C) + 1


def test_type_space_cap_and_sampling():
    eq = growth_formula("pair-equality", 2)
    model = OrderModel(64)
    B = [(i,) for i in range(32)]
    with pytest.raises(ResourceCapError):
        type_space([eq], B, model, 2, cap=1000)
    sampled = type_space([eq], B, model, 2, cap=1000, sample=50, seed=5)
    full = type_space([eq], B, model, 2)
    assert not sampled.complete
    assert sampled.count <= full.count
    again = type_space([eq], B, model, 2, cap=1000, sample=50, seed=5)
    assert sampled.vector_set() == again.vector_set()
    # a budget of no tuples realizes no type
    empty = type_space([eq], B, model, 2, cap=1000, sample=0)
    assert empty.count == 0 and empty.vectors == () and not empty.complete


def test_type_space_sample_of_every_tuple_is_the_sweep(monkeypatch):
    import tracemalloc

    from laminarvc import setsystem

    monkeypatch.setattr(setsystem, "_SWEEP_CHUNK", 4096)
    eq = growth_formula("pair-equality", 2)
    B = [(i,) for i in range(16)]
    model = OrderModel(256)
    total = model.size**2
    full = type_space([eq], B, model, 2)
    for sample in (total, 2 * total):
        tracemalloc.start()
        try:
            sampled = type_space([eq], B, model, 2, cap=1, sample=sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not sampled.complete
        assert sampled.rows.tolist() == full.rows.tolist()
        # a list of every index holds a pointer and an int object for each
        assert peak < 16 * total


def test_type_space_arity_mismatch():
    with pytest.raises(DomainError):
        type_space([lt_formula()], [(1,)], OrderModel(3), 2)


def test_universe_validation():
    with pytest.raises(DomainError):
        Universe(0)
    with pytest.raises(DomainError):
        Universe(5000)
    with pytest.raises(DomainError):
        SetFamily.of(2, [{3}])


# --- exponent fitting ---------------------------------------------------------


def test_fit_exact_powers():
    lin = GrowthSeries(tuple(GrowthPoint(m, m, 0) for m in (2, 4, 8)))
    quad = GrowthSeries(tuple(GrowthPoint(m, m * m, 0) for m in (2, 4, 8)))
    assert fit_codensity_exponent(lin).slope == pytest.approx(1.0, abs=1e-9)
    assert fit_codensity_exponent(quad).slope == pytest.approx(2.0, abs=1e-9)


def test_fit_exact_power_general_exponent():
    for ell in (0.5, 1.7, 3.0):
        series = GrowthSeries(
            tuple(GrowthPoint(m, max(1, round(m**ell)), 0) for m in (4, 16, 64, 256))
        )
        got = fit_codensity_exponent(series).slope
        # rounding the counts perturbs the fit slightly
        assert got == pytest.approx(ell, abs=0.02)


def test_fit_residuals_zero_on_exact_data():
    series = GrowthSeries(tuple(GrowthPoint(m, m * m, 0) for m in (2, 4, 8, 16)))
    fit = fit_codensity_exponent(series)
    assert all(abs(r) < 1e-9 for r in fit.residuals)


def test_fit_requires_three_distinct_sizes():
    with pytest.raises(DomainError):
        fit_codensity_exponent(GrowthSeries((GrowthPoint(2, 2, 0), GrowthPoint(4, 4, 0))))
    with pytest.raises(DomainError):
        fit_codensity_exponent(
            GrowthSeries((GrowthPoint(2, 2, 0), GrowthPoint(2, 3, 0), GrowthPoint(4, 4, 0)))
        )


def test_growth_point_validation():
    with pytest.raises(DomainError):
        GrowthPoint(1, 5, 0)
    with pytest.raises(DomainError):
        GrowthPoint(4, 0, 0)
