"""type_space, its sample path and its parameter blocks, and the growth
harness's factored counts at arity 1 and 2, checked against the brute-force
oracle in scalar_oracle: the same sign rows, and type_space's in the same
lexicographic order.  They count with packed_columns, distinct_rows,
segment_count and range_set_count, which are checked against their unpacked
NumPy equivalents."""

import json
import tracemalloc
from dataclasses import replace
from itertools import product
from random import Random

import numpy as np
import pytest
from scalar_oracle import Tree, caterpillar, corpus_rows, holds, shuffled_ids, with_unary_nodes

from laminarvc import ResourceCapError, harness, models, save_model, setsystem
from laminarvc.cli import main
from laminarvc.harness import ExperimentConfig, _sample_params, resolve_model, run_growth
from laminarvc.models import (
    CORPUS, GROWTH_KINDS, OrderModel, UltrametricModel, growth_formula, random_ultrametric,
)
from laminarvc.setsystem import (
    distinct_ranges, distinct_rows, laminar_union_count, packed_columns, range_set_count,
    segment_count, type_space,
)


def engine_rows(space):
    return list(space.vectors)


def random_models(seed):
    rng = Random(seed)
    models = [
        random_ultrametric(rng.randint(3, 14), rng.randint(2, 4), rng.randrange(1 << 20))
        for _ in range(3)
    ]
    return models + [OrderModel(rng.randint(3, 14), seed=seed)]


def growth_cases(model):
    """(kind, arity) pairs the model's carrier can evaluate."""
    for kind in GROWTH_KINDS:
        for arity in (1, 2):
            if kind == "pair-equality" and arity == 1:
                continue
            if isinstance(model, OrderModel) and kind != "pair-equality":
                continue
            yield kind, arity


def random_params(rng, model, param_arity, m):
    return [tuple(rng.randrange(model.size) for _ in range(param_arity)) for _ in range(m)]


@pytest.mark.parametrize("seed", range(4))
def test_full_sweep_matches_oracle(seed):
    rng = Random(seed)
    for model in random_models(seed):
        for kind, arity in growth_cases(model):
            f = growth_formula(kind, arity)
            params = random_params(rng, model, f.param_arity, rng.randint(1, 6))
            got = type_space([f], params, model, arity)
            assert engine_rows(got) == corpus_rows([kind], arity, params, model), (kind, arity)
            assert got.count == len(got.vectors) and got.complete


def documented_sample(seed, budget, total):
    """The tuple indices type_space's docstring says a sampled run draws."""
    rng = Random(f"{seed}/type-space-sample")
    budget = min(budget, total)
    if total <= 8 * budget:
        return rng.sample(range(total), budget)
    return [rng.randrange(total) for _ in range(budget)]


@pytest.mark.parametrize("seed", range(4))
def test_sample_path_matches_oracle(seed):
    rng = Random(100 + seed)
    for model in random_models(100 + seed):
        for kind, arity in growth_cases(model):
            f = growth_formula(kind, arity)
            params = random_params(rng, model, f.param_arity, rng.randint(1, 6))
            every = list(product(range(model.size), repeat=arity))
            total = len(every)
            # budgets on both sides of the distinct/independent draw switch
            for budget in (rng.randint(1, total // 8 + 1), rng.randint(1, 2 * total)):
                got = type_space([f], params, model, arity, cap=1, sample=budget, seed=seed)
                tuples = [every[i] for i in documented_sample(seed, budget, total)]
                assert not got.complete
                assert engine_rows(got) == corpus_rows([kind], arity, params, model, tuples), (
                    kind, arity, budget,
                )


@pytest.mark.parametrize("arity", [1, 2])
def test_multi_formula_delta_past_one_label_word(arity):
    # more than 63 slots: each packed sign row is wider than one uint64 word,
    # so distinct_rows sorts on more than one word
    rng = Random(arity)
    model = random_ultrametric(16, 3, 11)
    kinds = [k for k, a in growth_cases(model) if a == arity]
    delta = [growth_formula(k, arity) for k in kinds]
    params = random_params(rng, model, delta[0].param_arity, 14)
    assert len(params) * len(delta) > 63
    got = type_space(delta, params, model, arity)
    assert engine_rows(got) == corpus_rows(kinds, arity, params, model)


def test_single_formula_past_one_label_word():
    # 70 distinct slots: packed sign rows of 9 bytes, padded to two uint64
    # words, of which the second holds one byte
    model = OrderModel(72)
    f = growth_formula("pair-equality", 2)
    params = [(7 * i % 72,) for i in range(70)]
    got = type_space([f], params, model, 2)
    assert engine_rows(got) == corpus_rows(["pair-equality"], 2, params, model)


@pytest.mark.parametrize(
    "kind,arity,trials",
    [(k, 2, 2) for k in GROWTH_KINDS]
    + [(k, 1, 19) for k in GROWTH_KINDS if k != "pair-equality"],
)
def test_growth_counts_match_oracle(kind, arity, trials):
    config = ExperimentConfig(kind, arity, (2, 4, 8), trials=trials, seed=5)
    report = run_growth(config)
    model = resolve_model(config)
    f = growth_formula(kind, arity)
    space = model.size**f.param_arity
    for row in report.rows:
        params = _sample_params(
            Random(f"{config.seed}/{row.m}/{row.trial}"), space, f.param_arity, row.m,
            model.size, False,
        )
        assert row.type_count == len(corpus_rows([kind], arity, params, model))


# --- factored arity-2 rows ---------------------------------------------------------


def factored_models(seed):
    """Random trees, the same trees with unary nodes, and an order."""
    rng = Random(seed)
    trees = [random_ultrametric(rng.randint(2, 12), rng.randint(2, 4), rng.randrange(1 << 20))
             for _ in range(2)]
    unary = [with_unary_nodes(t, rng, rng.randint(1, 6)) for t in trees]
    return trees + unary + [OrderModel(rng.randint(2, 12), seed=seed)]


def unpacked(packed, m):
    return sorted(bytes(row) for row in np.unpackbits(packed, axis=1)[:, :m])


def packed_ranges(a, b, m, a2=(), b2=()):
    """Packed rows with the bits a[i] <= j < b[i] set, one bit per position,
    and then the bits a2[i] <= j < b2[i] flipped, when given."""
    rows = np.zeros((len(a), m), dtype=bool)
    for i, (lo, hi) in enumerate(zip(a, b)):
        rows[i, lo:hi] = True
    for i, (lo, hi) in enumerate(zip(a2, b2)):
        rows[i, lo:hi] ^= True
    return np.packbits(rows, axis=1)


def sorted_column(kind, model, xs):
    """xs in the order an arity-2 entry lays its parameters out: by leaf
    rank on a tree, by value for pair-equality."""
    key = np.asarray(xs) if kind == "pair-equality" else model.rank[xs]
    return np.asarray(xs)[np.argsort(key, kind="stable")]


def pair_unions(profiles):
    """a | b over every ordered pair (a, b) of distinct packed profile rows,
    a = b included: the rows of x in S(y0) or x in S(y1)."""
    d = distinct_rows(profiles)
    return (d[:, None] | d[None]).reshape(-1, d.shape[1])


def union_count_oracle(profiles):
    return len(distinct_rows(pair_unions(profiles)))


def is_laminar(packed):
    sets = [frozenset(np.flatnonzero(row).tolist()) for row in np.unpackbits(packed, axis=1)]
    return all(a <= b or b <= a or not a & b for a in sets for b in sets)


def arity_2_rows(spec, model, xs):
    """The distinct sign rows the corpus entry gives over the column xs, in
    its sorted order: the unions of two profile ranges, or the symmetric
    differences of its row ranges."""
    if spec.ranges is not None:
        profiles = packed_ranges(*spec.ranges(model, xs), len(xs))
        assert is_laminar(profiles)
        return distinct_rows(pair_unions(profiles))
    a1, b1, a2, b2 = spec.row_ranges(model, xs, lambda r: None)
    return distinct_rows(packed_ranges(a1, b1, len(xs), a2, b2))


def profile_counts(model, xs):
    """(d_pos, d_neg): the distinct xs ∩ ball_2(y) and xs ∩ ball_1(y),
    whose pairs give boolean-mix's candidate rows."""
    return tuple(
        len(distinct_ranges(*models._ball_ranges(model, model.ancestor_array(k), xs))[0])
        for k in (2, 1)
    )


@pytest.mark.parametrize("seed", range(5))
def test_factored_rows_match_oracle(seed):
    rng = Random(600 + seed)
    trees = factored_models(600 + seed)[:4]
    extra = [shuffled_ids(tree, rng) for tree in trees] + [caterpillar(rng.randint(3, 12))]
    for model in factored_models(600 + seed) + extra:
        # a few parameters, repeated ones, and every carrier element (m = L)
        columns = [
            rng.sample(range(model.size), rng.randint(1, model.size)),
            [rng.randrange(model.size) for _ in range(rng.randint(2, 20))],
            list(range(model.size)),
        ]
        for kind, spec in CORPUS.items():
            if not isinstance(model, spec.carriers):
                continue
            assert (spec.ranges is None) != (spec.row_ranges is None), kind
            for xs in columns:
                got = arity_2_rows(spec, model, np.array(xs))
                column = sorted_column(kind, model, xs)
                want = corpus_rows([kind], 2, [(x,) for x in column.tolist()], model)
                assert unpacked(got, len(xs)) == want, (kind, model, xs)
                if spec.ranges is not None:
                    unions, _ = laminar_union_count(*spec.ranges(model, np.array(xs)))
                    assert unions == len(want), (kind, model, xs)
                if spec.row_ranges is not None:
                    rows = []
                    ends = spec.row_ranges(model, np.array(xs), rows.append)
                    assert range_set_count(*ends) == len(want), (kind, model, xs)
                    for a1, b1, a2, b2 in zip(*(e.tolist() for e in ends)):
                        assert b1 <= a2 or b2 <= a1 or a1 <= a2 <= b2 <= b1, (kind, xs)
                    if kind == "boolean-mix":
                        # one row per candidate pair at most, afforded before
                        # the rows are built
                        d_pos, d_neg = profile_counts(model, np.array(xs))
                        assert rows == [len(ends[0])] and rows[0] <= d_pos * d_neg, xs


UNION_KINDS = [kind for kind, spec in CORPUS.items() if spec.ranges is not None]


def union_count_models(seed):
    """Random trees up to 512 leaves, the same trees with unary nodes, a star
    tree and an order."""
    rng = Random(seed)
    trees = [random_ultrametric(size, rng.randint(2, 4), rng.randrange(1 << 20))
             for size in (rng.randint(16, 64), rng.randint(100, 512))]
    unary = [with_unary_nodes(t, rng, rng.randint(1, 40)) for t in trees]
    star = UltrametricModel((-1,) + (0,) * rng.randint(2, 40))
    return trees + unary + [star, OrderModel(rng.randint(16, 512), seed=seed)]


@pytest.mark.parametrize("duplicates", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_laminar_union_count_matches_pair_unions(seed, duplicates):
    rng = Random(f"{seed}/{duplicates}")
    for model in union_count_models(seed):
        for m in (2, 8, 64, 256):
            if duplicates:
                xs = [rng.randrange(model.size) for _ in range(m)]
            else:
                xs = rng.sample(range(model.size), min(m, model.size))
            for kind in UNION_KINDS:
                if isinstance(model, CORPUS[kind].carriers):
                    a, b = CORPUS[kind].ranges(model, np.array(xs))
                    profiles = packed_ranges(a, b, len(xs))
                    got = laminar_union_count(a, b)
                    want = (union_count_oracle(profiles), len(distinct_rows(profiles)))
                    assert got == want, (kind, model.label, xs)


def random_laminar_ranges(rng, lo, hi, out):
    """Appends to `out` a random laminar family of ranges inside [lo, hi):
    maybe [lo, hi) itself, then, for most parts of a random cut of it into
    two to four parts, such a family inside the part."""
    if rng.random() < 0.7:
        out.append((lo, hi))
    if hi - lo < 2:
        return
    cuts = sorted(rng.sample(range(lo + 1, hi), rng.randint(1, min(3, hi - lo - 1))))
    for a, b in zip([lo] + cuts, cuts + [hi]):
        if rng.random() < 0.8:
            random_laminar_ranges(rng, a, b, out)


@pytest.mark.parametrize("seed", range(4))
def test_laminar_union_count_on_random_range_families(seed):
    # families with repeated ranges and empty ranges (a, a) anywhere,
    # shuffled, against the pairwise unions of their packed rows
    rng = Random(seed)
    for _ in range(60):
        m = rng.randint(1, 40)
        ranges = []
        random_laminar_ranges(rng, 0, m, ranges)
        ranges += rng.choices(ranges, k=rng.randint(0, 5)) if ranges else []
        ranges += [(a, a) for a in rng.choices(range(m + 1), k=rng.randint(0, 3))]
        rng.shuffle(ranges)
        a, b = (np.array(c, dtype=np.int64) for c in zip(*ranges)) if ranges else ([], [])
        profiles = packed_ranges(a, b, m)
        assert is_laminar(profiles)
        want = (union_count_oracle(profiles), len(distinct_rows(profiles)))
        assert laminar_union_count(a, b) == want, ranges


def growth_rows_match_oracle(config, model):
    report = run_growth(config)
    assert report.complete and report.engine == "ranges"
    for row in report.rows:
        params = _sample_params(
            Random(f"{config.seed}/{row.m}/{row.trial}"), model.size, 1, row.m, model.size,
            config.allow_duplicate_params,
        )
        assert row.type_count == len(corpus_rows([config.formula_kind], 2, params, model))
        assert row.type_count <= row.tuples_refined


@pytest.mark.parametrize("duplicates", [False, True])
def test_factored_growth_on_model_files_matches_oracle(duplicates, tmp_path):
    # 7 leaves and sizes up to 7: the last cell's parameters are the whole
    # carrier when drawn without duplicates; with duplicates a cell may hold
    # more parameters than the carrier has elements
    tree = with_unary_nodes(random_ultrametric(7, 3, 4), Random(4), 5)
    shuffled = shuffled_ids(tree, Random(5))
    star = UltrametricModel((-1,) + (0,) * 7)
    order = OrderModel(7, seed=1)
    for model in (tree, shuffled, caterpillar(7), star, order):
        path = tmp_path / f"{type(model).__name__}.model.json"
        save_model(model, path)
        for kind, spec in CORPUS.items():
            if isinstance(model, spec.carriers):
                config = ExperimentConfig(
                    kind, 2, (2, 5, 7, 20) if duplicates else (2, 5, 7), trials=3, seed=8,
                    model_path=str(path),
                    allow_duplicate_params=duplicates,
                )
                growth_rows_match_oracle(config, model)


def test_row_kinds_allocate_no_m_by_m_table():
    # m = 8000 parameters drawn with duplicates on 16 leaves: the cell holds
    # a few rows of m positions, where an (m + 1) x m bool table is 64 MB.
    # A repeated parameter repeats a column, so the count is the oracle's
    # over the distinct parameters
    model = random_ultrametric(16, 3, 1)
    params = _sample_params(Random(0), model.size, 1, 8000, model.size, True)
    distinct = [(x,) for x in sorted(set(params[:, 0].tolist()))]
    for kind in ("lca-ball", "boolean-mix"):
        config = ExperimentConfig(kind, 2, (2, 4, 8))
        tracemalloc.start()
        try:
            count, _ = harness._factored_count(config, model, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == len(corpus_rows([kind], 2, distinct, model)), kind
        assert peak < 4 << 20, (kind, peak)


def arity_2_cell_work(kind, model, xs):
    """What an arity-2 cell over the column xs may spend, and the term
    that names it: its L * m sign bits, or for boolean-mix the R * m bits of
    its R rows when they are more."""
    m, rows = len(xs), [0]
    if CORPUS[kind].row_ranges is not None:
        CORPUS[kind].row_ranges(model, xs, rows.append)
    return max((model.size * m, "elements"), (rows[-1] * m, "candidate rows"))


def test_factored_growth_keeps_the_enumeration_cap(capsys):
    # the cap bounds the work of the costliest cell: exit 0 at that work,
    # exit 3 one below it; the pair sweep's 16^2 * 8 evaluations would
    # allow more
    for kind in GROWTH_KINDS:
        argv = ["growth", "--formula", kind, "--arity", "2", "--sizes", "2,4,8",
                "--trials", "2", "--seed", "5"]
        model = resolve_model(ExperimentConfig(kind, 2, (2, 4, 8), trials=2, seed=5))
        work, _ = max(
            arity_2_cell_work(kind, model, _sample_params(
                Random(f"5/{m}/{t}"), model.size, 1, m, model.size, False)[:, 0])
            for m in (2, 4, 8) for t in range(2)
        )
        assert work < model.size**2 * 8, kind
        assert main(argv + ["--cap", str(work), "--json"]) == 0, kind
        out = capsys.readouterr()
        assert json.loads(out.out.splitlines()[-1])["cap_error"] is None, kind
        assert "resource cap" not in out.err, kind
        assert main(argv + ["--cap", str(work - 1), "--json"]) == 3, kind
        assert_cap_reported(capsys.readouterr(), f"= {work} exceeds cap {work - 1}")


def assert_cap_reported(out, tail):
    """A growth --json run that hit the cap names the failed cell's work on
    stderr and in its report, and its CSV header is the usual one."""
    doc = json.loads(out.out.splitlines()[-1])
    assert doc["complete"] is False
    assert doc["cap_error"].startswith("cell work ") and doc["cap_error"].endswith(tail)
    assert out.err.splitlines()[-1] == f"resource cap: {doc['cap_error']}"
    assert out.out.splitlines()[0] == "model,formula,arity,m,trial,seed,type_count,ms"


def test_arity_2_cap_names_the_cell_work_before_the_matrix_it_bounds(monkeypatch):
    # one short of a cell's work: a cell never starts the count, and the
    # message names what was counted; boolean-mix's rows outnumber the
    # leaves here
    model = random_ultrametric(64, 3, 2)
    xs = np.arange(0, 64, 2)

    def no_count(*ends):
        raise AssertionError("the count ran")

    monkeypatch.setattr(harness, "laminar_union_count", no_count)
    monkeypatch.setattr(harness, "range_set_count", no_count)
    for kind in CORPUS:
        work, what = arity_2_cell_work(kind, model, xs)
        assert (what == "candidate rows") == (kind == "boolean-mix"), kind
        config = ExperimentConfig(kind, 2, (2, 4, 8), cap=work - 1)
        with pytest.raises(ResourceCapError, match=f"{what}.* = {work} exceeds cap {work - 1}$"):
            harness._factored_count(config, model, xs[:, None])


def test_boolean_mix_cap_breaks_before_the_rows_are_built():
    # a 4096-leaf caterpillar at m = 2048: about 2.1 million rows, whose R * m
    # bits break the default cap; the cell raises before it allocates their
    # int64 ends (16 MB per array)
    model = caterpillar(4096)
    model.ancestor_array(1), model.ancestor_array(2)  # the views, built first
    params = _sample_params(Random(0), model.size, 1, 2048, model.size, False)
    config = ExperimentConfig("boolean-mix", 2, (2, 4, 8))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="candidate rows x 2048 parameters"):
            harness._factored_count(config, model, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_lca_ball_rows_are_the_distinct_balls_only():
    # a unary node's ball is its child's: the row ranges are the balls of
    # the leaves and branching nodes, each once, and at most 2L - 1 of them
    rng = Random(11)
    kind = "lca-ball"
    spec = CORPUS[kind]
    for _ in range(6):
        base = random_ultrametric(rng.randint(2, 40), 4, rng.randrange(1 << 20))
        model = with_unary_nodes(base, rng, rng.randint(0, 30))
        xs = np.arange(model.size)
        a, b, a2, b2 = spec.row_ranges(model, xs, None)
        rows = packed_ranges(a, b, len(xs))
        # the ranges lay the parameters out by leaf rank
        every_ball = np.packbits(model.ball_bool[:, sorted_column(kind, model, xs)], axis=1)
        assert len(a) <= 2 * model.size - 1 and not a2.any() and not b2.any()
        assert len(distinct_ranges(a, b)[0]) == len(distinct_rows(rows)) == len(a)
        assert (distinct_rows(rows) == distinct_rows(every_ball)).all()


def test_lca_ball_on_a_unary_chain_affords_the_distinct_rows(tmp_path, capsys):
    # a root chain of three unary nodes over two leaves: 6 nodes, 3 distinct
    # balls, so each cell counts 3 row ranges, and a cell of 4 parameters
    # costs its L * m = 8 profile bits, within the cap
    path = tmp_path / "chain.model.json"
    save_model(UltrametricModel((-1, 0, 1, 2, 3, 3)), path)
    argv = ["growth", "--formula", "lca-ball", "--arity", "2", "--model", str(path),
            "--sizes", "2,3,4", "--allow-duplicates", "--json"]
    assert main(argv + ["--cap", "16"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert [r["tuples_refined"] for r in doc["rows"]] == [3] * 15


# --- factored arity-1 sets ---------------------------------------------------------


ARITY_1_KINDS = [kind for kind, spec in CORPUS.items() if 1 in spec.arities]


def test_only_arity_1_entries_declare_sets():
    for kind, spec in CORPUS.items():
        assert (spec.set_ranges is not None) == (1 in spec.arities), kind


def realized_sets(kind, model, params):
    """The distinct sets {x : phi(x; y0, y1)} over the parameter pairs."""
    t = Tree(model)
    return {
        frozenset(x for x in range(model.size) if holds(kind, t, x, y0, y1))
        for y0, y1 in params
    }


def range_sets(model, a1, b1, a2, b2):
    """The carrier elements whose leaf ranks lie in exactly one of the
    ranges [a1[j], b1[j]) and [a2[j], b2[j]), one set per j."""
    by_rank = model.by_rank.tolist()
    return [frozenset(by_rank[a:b]) ^ frozenset(by_rank[c:d])
            for a, b, c, d in zip(a1.tolist(), b1.tolist(), a2.tolist(), b2.tolist())]


@pytest.mark.parametrize("seed", range(5))
def test_factored_sets_match_oracle(seed):
    rng = Random(700 + seed)
    trees = factored_models(700 + seed)[:4]  # the trees: an order has no arity 1
    for model in trees + [shuffled_ids(tree, rng) for tree in trees]:
        size = model.size
        pool = random_params(rng, model, 2, 3)
        # sampled pairs, repeated pairs, and as many pairs as elements (m = L)
        columns = [
            random_params(rng, model, 2, rng.randint(1, 12)),
            [rng.choice(pool) for _ in range(rng.randint(2, 20))],
            random_params(rng, model, 2, size),
        ]
        for kind in ARITY_1_KINDS:
            for params in columns:
                y0, y1 = np.array(params).T
                got = CORPUS[kind].set_ranges(model, y0, y1)
                assert len(got) == 4 and len({len(r) for r in got}) == 1, (kind, params)
                assert len(got[0]) <= len(params), (kind, params)
                # each entry's two ranges lie in [0, L] and nest or are disjoint
                for a1, b1, a2, b2 in zip(*(r.tolist() for r in got)):
                    assert 0 <= a1 <= b1 <= size and 0 <= a2 <= b2 <= size, (kind, params)
                    assert b1 <= a2 or b2 <= a1 or a1 <= a2 <= b2 <= b1 or a2 <= a1 <= b1 <= b2
                assert set(range_sets(model, *got)) == realized_sets(kind, model, params), (
                    kind, params,
                )


@pytest.mark.parametrize("block_sets", [1, 3, None])
@pytest.mark.parametrize("duplicates", [False, True])
def test_factored_arity_1_growth_on_model_files_matches_oracle(duplicates, block_sets, tmp_path,
                                                               monkeypatch):
    # 7 leaves and sizes up to 49: the last cell's parameters are every pair
    # when drawn without duplicates.  The segment counts equal the oracle's,
    # and type_space's over the same pairs, which reads them in blocks of
    # 8 * block_sets // 7 pairs (the 7 leaves take a byte per pair), or all
    # at once
    if block_sets is not None:
        monkeypatch.setattr(setsystem, "_BLOCK_BYTES", 8 * block_sets)
    model = shuffled_ids(with_unary_nodes(random_ultrametric(7, 3, 4), Random(4), 5), Random(4))
    path = tmp_path / "tree.model.json"
    save_model(model, path)
    for kind in ARITY_1_KINDS:
        config = ExperimentConfig(
            kind, 1, (2, 9, 49), trials=3, seed=8, model_path=str(path),
            allow_duplicate_params=duplicates,
        )
        arity_1_rows_match_oracle(config, model, type_space_too=True)


def arity_1_rows_match_oracle(config, model, type_space_too=False):
    report = run_growth(config)
    assert report.complete and report.engine == "segments"
    f = growth_formula(config.formula_kind, 1)
    for row in report.rows:
        params = _sample_params(
            Random(f"{config.seed}/{row.m}/{row.trial}"), model.size**2, 2, row.m,
            model.size, config.allow_duplicate_params,
        )
        want = len(corpus_rows([config.formula_kind], 1, params, model))
        assert row.type_count == want, (config.formula_kind, row)
        if type_space_too:
            assert type_space([f], params.tolist(), model, 1).count == want, row
        assert row.tuples_refined == row.m
    return report


def test_root_clamped_ancestors_on_a_star_tree(tmp_path):
    # every leaf hangs from the root, so the ancestors 1 and 2 levels up
    # clamp to the root, and every boolean-mix set ball(root) minus
    # ball(root) is empty: one type in every cell
    model = UltrametricModel((-1, 0, 0, 0, 0))
    path = tmp_path / "star.model.json"
    save_model(model, path)
    for kind in ARITY_1_KINDS:
        config = ExperimentConfig(kind, 1, (2, 5, 16), trials=3, seed=8, model_path=str(path))
        report = arity_1_rows_match_oracle(config, model)
        if kind == "boolean-mix":
            assert all(row.type_count == 1 for row in report.rows)


def test_factored_arity_1_growth_keeps_the_enumeration_cap(capsys):
    # 16 leaves and a largest size of 8: 16 * 8 evaluations
    argv = ["growth", "--formula", "boolean-mix", "--arity", "1", "--sizes", "2,4,8",
            "--trials", "2", "--seed", "5"]
    assert main(argv + ["--cap", str(16 * 8)]) == 0
    capsys.readouterr()
    assert main(argv + ["--cap", str(16 * 8 - 1), "--json"]) == 3
    assert_cap_reported(
        capsys.readouterr(), "16 elements x 8 parameters = 128 exceeds cap 127"
    )


SIDES = [1, 7, 8, 9, 63, 64, 65]


@pytest.mark.parametrize("group", [1, 2, None])
@pytest.mark.parametrize("size", SIDES)
def test_packed_columns_match_unpacked_transpose(size, group, monkeypatch):
    # row groups of 1 or 2 blocks of eight rows, or all rows in one group
    width = -(-size // 8)
    if group is not None:
        monkeypatch.setattr(setsystem, "_BLOCK_BYTES", 8 * group * width)
    rng = np.random.default_rng(size)
    for m in SIDES:
        packed = np.packbits(rng.integers(0, 2, (m, size), dtype=np.uint8), axis=1)
        want = np.packbits(np.unpackbits(packed, axis=1, count=size).T, axis=1)
        got = packed_columns(packed, size)
        assert got.dtype == np.uint8 and got.shape == want.shape, (m, size)
        assert (got == want).all(), (m, size)


def test_distinct_rows_match_numpy_unique():
    rng = np.random.default_rng(5)
    cases = [
        # bytes from {0, 1, 255}: rows often share their first words and
        # differ later, and some repeat
        rng.choice(np.array([0, 1, 255], dtype=np.uint8), (n, width))
        for width in (1, 3, 8, 9, 16, 17, 24) for n in (2, 40, 300)
    ]
    cases += [
        np.array([[7, 0, 3]], dtype=np.uint8),  # one row
        np.full((6, 11), 9, dtype=np.uint8),  # all rows equal
        # equal first words, different last ones, unsorted
        np.array([[0] * 8 + [2], [0] * 8 + [1], [0] * 8 + [2]], dtype=np.uint8),
        # zero-width rows: one distinct row, or none without rows; no rows
        np.zeros((3, 0), dtype=np.uint8),
        np.zeros((0, 0), dtype=np.uint8),
        np.zeros((0, 5), dtype=np.uint8),
    ]
    for packed in cases:
        want = np.unique(packed, axis=0)
        got = distinct_rows(packed)
        assert got.dtype == np.uint8 and got.shape == want.shape, packed.shape
        assert (got == want).all(), packed.shape


@pytest.mark.parametrize("sets,unions", [
    # each set a range [a, b) of positions
    # [0, 2) split exactly by its two children: the disjoint pair adds nothing
    ([(0, 2), (0, 1), (1, 2)], 3),
    # three children: three new pairwise unions
    ([(0, 3), (0, 1), (1, 2), (2, 3)], 7),
    # two children that miss a position of their parent, and a chain:
    # 6 members and 10 disjoint pairs
    ([(0, 3), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)], 16),
    # the empty range present, and absent
    ([(0, 0), (3, 4), (9, 10)], 4),
    ([(3, 4), (9, 10)], 3),
    # one range
    ([(3, 5)], 1),
    ([(2, 2)], 1),
    # every range equal; every range empty, at several positions
    ([(0, 9)] * 4, 1),
    ([(0, 0), (4, 4), (7, 7)], 1),
    # empty ranges at several positions among non-empty ones
    ([(3, 4), (5, 5), (9, 10), (0, 0), (10, 10)], 4),
])
def test_laminar_union_count_on_hand_built_families(sets, unions):
    a, b = (np.array(c) for c in zip(*sets))
    profiles = packed_ranges(a, b, 10)
    assert union_count_oracle(profiles) == unions
    assert laminar_union_count(a, b) == (unions, len(distinct_rows(profiles)))


def segment_oracle(size, a1, b1, a2, b2):
    """Distinct rows of the (size, m') bool matrix whose column j is the
    symmetric difference of the ranges [a1[j], b1[j]) and [a2[j], b2[j])."""
    cols = np.zeros((size, len(a1)), dtype=bool)
    for j, (a, b, c, d) in enumerate(zip(a1, b1, a2, b2)):
        cols[a:b, j] ^= True
        cols[c:d, j] ^= True
    return len({row.tobytes() for row in cols})


def random_range(rng, size):
    a = rng.randint(0, size)
    return a, rng.randint(a, size)


def special_range_pairs(rng, size):
    """Range pairs at the edges: empty ranges, ranges ending at size,
    adjacent ranges, nests that share an end, and equal ranges."""
    a, b = random_range(rng, size)
    c = rng.randint(b, size)
    return [
        (a, a, 0, 0), (0, 0, 0, 0), (size, size, b, b),  # empty
        (a, size, 0, 0), (0, size, 0, 0), (a, size, c, size),  # ending at size
        (a, b, b, c), (b, c, a, b),  # adjacent: their union
        (a, c, a, b), (a, c, b, c), (a, b, a, c),  # nested, sharing an end
        (a, b, a, b),  # equal: the empty set
    ]


@pytest.mark.parametrize("size", [1, 2, 7, 63, 64, 65, 200])
def test_segment_count_matches_unpacked_columns(size):
    rng = Random(size)
    for m in (1, 2, 5, 63, 64, 65, 130):
        pairs = []
        for _ in range(m):
            first = random_range(rng, size)
            pick = rng.random()
            if pick < 0.3:  # nested in the first range
                second = random_range(rng, first[1] - first[0])
                second = (first[0] + second[0], first[0] + second[1])
            elif pick < 0.6:  # anywhere: crossing ranges count as well
                second = random_range(rng, size)
            else:
                second = (0, 0)
            pairs.append(first + second)
        pairs += special_range_pairs(rng, size)
        # repeated sets: some entries again, in another order
        pairs += rng.sample(pairs, len(pairs) // 3)
        rng.shuffle(pairs)
        for cols in (pairs[:m], pairs):
            a1, b1, a2, b2 = (np.array(c, dtype=np.int64) for c in zip(*cols))
            assert segment_count(size, a1, b1, a2, b2) == segment_oracle(
                size, a1, b1, a2, b2), (size, m)


def range_set_oracle(a1, b1, a2, b2):
    """The distinct sets [a1[j], b1[j]) XOR [a2[j], b2[j]) as Python sets."""
    return len({frozenset(range(a, b)) ^ frozenset(range(c, d))
                for a, b, c, d in zip(a1, b1, a2, b2)})


@pytest.mark.parametrize("size", [1, 2, 7, 64, 200])
def test_range_set_count_matches_python_sets(size):
    # random pairs, nested, crossing or with no second range, and the edge
    # pairs: empty ranges, touching parts, nests that share an end, equal
    # ranges; then the same sets with their ends scaled past 55108, where
    # the count keys the ranks of the ends
    rng = Random(size)
    for m in (1, 2, 5, 64, 130):
        pairs = []
        for _ in range(m):
            first = random_range(rng, size)
            second = rng.choice([random_range(rng, size), (0, 0), (first[0], first[0]),
                                 (first[1], rng.randint(first[1], size))])
            pairs.append(first + second)
        pairs += special_range_pairs(rng, size)
        pairs += rng.sample(pairs, len(pairs) // 3)
        rng.shuffle(pairs)
        ends = [np.array(c, dtype=np.int64) for c in zip(*pairs)]
        want = range_set_oracle(*ends)
        assert range_set_count(*ends) == want, (size, m)
        assert range_set_count(*(e * 60001 for e in ends)) == want, (size, m)
    # two sets that differ in their first part only, with ends up to
    # 2**32 - 1: keyed with w = 2**32 unranked, both keys would wrap to the
    # same int64
    top = (1 << 32) - 1
    assert range_set_count([0, 2], [1, 3], [5, 5], [top, top]) == 2
    none = np.zeros(0, dtype=np.int64)
    assert range_set_count(none, none, none, none) == 0


def test_segment_count_of_no_sets_or_only_empty_ones_is_one_row():
    none = np.zeros(0, dtype=np.int64)
    assert segment_count(9, none, none, none, none) == 1
    ends = np.array([0, 4, 9]), np.array([0, 4, 9])
    assert segment_count(9, *ends, *ends) == 1


# --- parameter blocks ----------------------------------------------------------


def block_budget(k, n_formulas, model, arity):
    """The _BLOCK_BYTES that makes type_space pass k parameter tuples per
    block over every object tuple of the model."""
    return k * n_formulas * model.size**arity


def counting_batch(f, calls):
    """f, whose batch appends the parameters of each call to `calls`."""

    def batch(model, objs, params):
        calls.append(params)
        return f.batch(model, objs, params)

    return replace(f, batch=batch)


@pytest.mark.parametrize("k", [1, 7, 63, 64, 65])
def test_block_boundaries_match_oracle(k, monkeypatch):
    rng = Random(300 + k)
    for model in random_models(300 + k):
        for kind, arity in growth_cases(model):
            f = growth_formula(kind, arity)
            monkeypatch.setattr(setsystem, "_BLOCK_BYTES", block_budget(k, 1, model, arity))
            # whole blocks, a partial last block, and fewer tuples than one block
            for m in (k, 2 * k + 3, max(1, k // 2)):
                params = random_params(rng, model, f.param_arity, m)
                calls = []
                got = type_space([counting_batch(f, calls)], params, model, arity)
                want = corpus_rows([kind], arity, params, model)
                assert engine_rows(got) == want, (kind, arity, m)
                assert got.count == len(got.vectors)
                assert len(calls) == -(-m // k)
                # every block, a block of one too, is param_arity (k, 1) columns
                shapes = [[(min(k, m - lo), 1)] * f.param_arity for lo in range(0, m, k)]
                assert [[c.shape for c in p] for p in calls] == shapes, (kind, arity, m)


@pytest.mark.parametrize("k", [1, 5, 64])
def test_two_formulas_fold_param_major_within_blocks(k, monkeypatch):
    model = random_ultrametric(12, 3, 4)
    kinds = ["boolean-mix", "lca-ball"]
    delta = [growth_formula(kind, 1) for kind in kinds]
    monkeypatch.setattr(setsystem, "_BLOCK_BYTES", block_budget(k, 2, model, 1))
    params = random_params(Random(k), model, 2, 11)
    got = type_space(delta, params, model, 1)
    assert engine_rows(got) == corpus_rows(kinds, 1, params, model)


@pytest.mark.parametrize("arity", [1, 2])
def test_label_renumbering_inside_a_block(arity, monkeypatch):
    # one block of 70 tuples x 2 formulas, one batch call each: its 140
    # slots, interleaved param-major, give packed sign rows of three uint64
    # words
    model = random_ultrametric(8, 3, 9)
    kinds = ["twin-ball-1", "lca-ball"]
    calls = []
    delta = [counting_batch(growth_formula(kind, arity), calls) for kind in kinds]
    monkeypatch.setattr(setsystem, "_BLOCK_BYTES", block_budget(70, 2, model, arity))
    params = random_params(Random(arity), model, delta[0].param_arity, 70)
    got = type_space(delta, params, model, arity)
    assert len(calls) == 2
    assert engine_rows(got) == corpus_rows(kinds, arity, params, model)


def test_renumbering_with_more_classes_than_a_byte_holds():
    # 128 distinct slots over 600 sampled pairs: more than 256 distinct sign
    # rows, each two uint64 words wide, so rows that share their first word
    # are told apart by the second
    model = OrderModel(128)
    f = growth_formula("pair-equality", 2)
    params = [(b,) for b in Random(3).sample(range(128), 128)]
    got = type_space([f], params, model, 2, cap=1, sample=600, seed=3)
    every = list(product(range(128), repeat=2))
    tuples = [every[i] for i in documented_sample(3, 600, len(every))]
    assert got.count > 256
    assert engine_rows(got) == corpus_rows(["pair-equality"], 2, params, model, tuples)


@pytest.mark.parametrize("budget", [1, 64, setsystem._BLOCK_BYTES])
def test_repeated_slots_match_oracle_whatever_the_key_room(budget, monkeypatch):
    # repeated parameter tuples give repeated slots, in blocks of one
    # parameter tuple, of a few, or of all 40
    monkeypatch.setattr(setsystem, "_BLOCK_BYTES", budget)
    rng = Random(budget)
    for model in random_models(400):
        for kind, arity in growth_cases(model):
            f = growth_formula(kind, arity)
            pool = random_params(rng, model, f.param_arity, 4)
            params = [rng.choice(pool) for _ in range(40)]
            got = type_space([f], params, model, arity)
            assert engine_rows(got) == corpus_rows([kind], arity, params, model), (kind, arity)


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_tuple_chunks_match_oracle(chunk, monkeypatch):
    # tuples swept in chunks of one, of a few, or of more than some models
    # hold: the chunks' distinct rows, deduped again, in the same order
    monkeypatch.setattr(setsystem, "_SWEEP_CHUNK", chunk)
    rng = Random(600 + chunk)
    for model in random_models(600 + chunk):
        for kind, arity in growth_cases(model):
            f = growth_formula(kind, arity)
            params = random_params(rng, model, f.param_arity, rng.randint(1, 6))
            got = type_space([f], params, model, arity)
            assert engine_rows(got) == corpus_rows([kind], arity, params, model), (kind, arity)
            every = list(product(range(model.size), repeat=arity))
            budget = rng.randint(1, 2 * len(every))
            got = type_space([f], params, model, arity, cap=1, sample=budget, seed=chunk)
            tuples = [every[i] for i in documented_sample(chunk, budget, len(every))]
            assert engine_rows(got) == corpus_rows([kind], arity, params, model, tuples), (
                kind, arity, budget,
            )


def test_type_space_sweeps_many_tuples_in_bounded_memory():
    # all 2^22 pairs of a 2048-element order over 16 slots, 2^26 evaluations
    # at the default cap.  Swept in chunks of 2^18 tuples, the traced peak
    # was 15 MB; a sweep of every tuple at once peaked at 244 MB
    model = OrderModel(2048)
    params = [(7 * i % 2048,) for i in range(16)]
    tracemalloc.start()
    try:
        got = type_space([growth_formula("pair-equality", 2)], params, model, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sign rows are the sets of at most two of the 16 parameters
    assert got.complete and got.count == 1 + 16 + 16 * 15 // 2
    assert peak < 32 << 20, peak


@pytest.mark.parametrize("seed", range(3))
def test_block_batch_rows_equal_single_tuple_calls(seed):
    rng = Random(500 + seed)
    for model in random_models(500 + seed):
        for kind, arity in growth_cases(model):
            f = growth_formula(kind, arity)
            objs = setsystem._decode_tuples(np.arange(model.size**arity), model.size, arity)
            params = random_params(rng, model, f.param_arity, 9)
            block = tuple(np.array(column)[:, None] for column in zip(*params))
            got = f.batch(model, objs, block)
            ones = [tuple(np.array([[c]]) for c in p) for p in params]
            want = np.vstack([f.batch(model, objs, one) for one in ones])
            assert got.shape == want.shape and (got == want).all(), (kind, arity)


@pytest.mark.parametrize("seed", range(6))
def test_vectorized_lca_matches_scalar_lca(seed):
    rng = Random(seed)
    base = random_ultrametric(rng.randint(2, 24), rng.randint(2, 4), seed)
    trees = [base, with_unary_nodes(base, rng, rng.randint(1, 10)), shuffled_ids(base, rng)]
    # the six seeds share out the caterpillars with 2 to 40 leaves
    trees += [caterpillar(leaves) for leaves in range(2 + seed, 41, 6)]
    for model in trees:
        tree = Tree(model)
        y = np.arange(model.size)
        want = [[tree.lca(a, b) for b in y] for a in y]
        # a (k, 1) block against a (T,) column, (m,) against (m,) pairs, and
        # (k, 1) against (k, 1), both ways round
        assert model.lca_of(y[:, None], y).tolist() == want, model
        y0, y1 = np.divmod(np.arange(model.size**2), model.size)
        flat = [v for row in want for v in row]
        assert model.lca_of(y0, y1).tolist() == flat, model
        assert model.lca_of(y1[:, None], y0[:, None]).tolist() == [[v] for v in flat], model


def test_arity_1_growth_at_4096_leaves_builds_no_lca_matrix(monkeypatch):
    models = []

    def keep(config):
        models.append(resolve_model(config))
        return models[-1]

    monkeypatch.setattr(harness, "resolve_model", keep)
    report = run_growth(ExperimentConfig("lca-ball", 1, (8, 64, 2048), trials=1, seed=2))
    assert report.complete and models[0].size == 4096
    assert "lca_node_matrix" not in models[0].__dict__
