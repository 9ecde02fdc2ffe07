import json
import tracemalloc
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import (
    Tree, holds, positive_part, random_ultrametric_parent, shuffled_ids, with_unary_nodes,
)

from laminarvc import (
    CrossingPair,
    DirectedFamily,
    DomainError,
    ModelFormatError,
    OrderModel,
    SetFamily,
    ball_family,
    check_directed,
    components,
    harness,
    load_model,
    random_ultrametric,
    save_model,
)
from laminarvc import models
from laminarvc.models import GROWTH_KINDS, UltrametricModel, growth_formula


def block(params):
    """The (k, 1) columns of a list of parameter tuples, as batch takes them."""
    return tuple(np.array(column)[:, None] for column in zip(*params))


def extent(model, formula, params):
    """Extent of an arity-1 formula instance, from one batch call on a block
    of one."""
    hits = formula.batch(model, np.arange(model.size)[:, None], block([params]))
    return frozenset(np.flatnonzero(hits[0]).tolist())


# --- generation ---------------------------------------------------------------


def test_two_leaves_unique_shape():
    model = random_ultrametric(2, 2, 99)
    assert model.size == 2
    assert model.n_nodes == 3
    # indexed by node id: root first, then the two leaves
    assert set(ball_family(model).sets) == {frozenset({0}), frozenset({1}), frozenset({0, 1})}


def test_generation_deterministic_per_seed():
    a = random_ultrametric(8, 2, 1)
    b = random_ultrametric(8, 2, 1)
    c = random_ultrametric(8, 2, 2)
    assert a.parent == b.parent
    assert a.parent != c.parent


def test_generation_respects_parameters():
    rng = Random(0)
    for _ in range(30):
        leaves = rng.randint(2, 40)
        branching = rng.randint(2, 5)
        model = random_ultrametric(leaves, branching, rng.randrange(1 << 20))
        assert model.size == leaves
        assert all(len(k) <= branching for k in model.children if k)
        assert all(len(k) != 1 for k in model.children)


def assert_built_as_from_parent(model):
    """The generator sets the attributes that UltrametricModel(parent) derives
    in __post_init__; they must be equal, dtypes included."""
    want = UltrametricModel(model.parent, model.seed)
    assert (model.root, model.leaves, model.children) == (want.root, want.leaves, want.children)
    for name in ("depth", "lo", "hi", "rank", "by_rank", "non_unary", "lca_table"):
        got, ref = getattr(model, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name


@pytest.mark.parametrize("leaves, branching, seed", [(4096, 3, 7), (512, 3, 7), (2, 2, 0)])
def test_generation_matches_cpython_draws(leaves, branching, seed):
    model = random_ultrametric(leaves, branching, seed)
    assert model.parent == random_ultrametric_parent(leaves, branching, seed)
    assert_built_as_from_parent(model)


# branching up to 40 gives sample up to 39 cuts, whose pool/set threshold
# passes 21, so both of sample's paths are taken
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 600), st.integers(2, 40), st.integers(0, 1 << 30))
def test_generation_matches_cpython_draws_everywhere(leaves, branching, seed):
    model = random_ultrametric(leaves, branching, seed)
    assert model.parent == random_ultrametric_parent(leaves, branching, seed)
    assert_built_as_from_parent(model)


def test_generation_and_lca_table_stay_within_2_mb():
    # the tree's arrays come from the generating pass, and the sparse table
    # is filled in one (levels, 2L - 1) array: 1.7 MB peak at L = 4096,
    # where a second pass over the tree and a second copy of the rows took 2.6 MB
    tracemalloc.start()
    try:
        random_ultrametric(4096, 3, 7).lca_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_generation_reads_more_words_when_they_run_out(monkeypatch):
    # one word per read: every draw past the first refills the buffer
    read = models.mt_words
    monkeypatch.setattr(models, "mt_words", lambda rng, count: read(rng, 1))
    for leaves, branching, seed in [(2, 2, 0), (100, 3, 1), (300, 40, 2)]:
        assert random_ultrametric(leaves, branching, seed).parent == random_ultrametric_parent(
            leaves, branching, seed
        )


def test_generation_parameter_validation():
    with pytest.raises(DomainError):
        random_ultrametric(1, 2, 0)
    with pytest.raises(DomainError):
        random_ultrametric(4, 1, 0)
    with pytest.raises(DomainError, match="universe size 4097 exceeds cap 4096"):
        random_ultrametric(4097, 3, 0)


def test_ball_family_always_directed():
    rng = Random(7)
    for _ in range(40):
        model = random_ultrametric(rng.randint(2, 30), rng.randint(2, 5), rng.randrange(1 << 20))
        fam = ball_family(model)
        assert isinstance(check_directed(fam.base), DirectedFamily)
        assert all(s for s in fam.sets)  # no empty balls


def test_chain_shaped_tree_gives_nested_family():
    # parent array: 0 <- 1 <- 2, node 2 has two leaves
    model = UltrametricModel((-1, 0, 0, 1, 1, 2, 2))
    fam = ball_family(model)
    assert isinstance(check_directed(fam.base), DirectedFamily)


# --- formula corpus ---------------------------------------------------------------


def test_lca_ball_two_leaf_extent():
    model = random_ultrametric(2, 2, 5)
    f = growth_formula("lca-ball", 1)
    assert extent(model, f, (0, 1)) == frozenset({0, 1})
    assert components(extent(model, f, (0, 1)), ball_family(model)) == (frozenset({0, 1}),)


def test_twin_ball_zero_duplicates_merge():
    model = random_ultrametric(6, 3, 8)
    f = growth_formula("twin-ball-0", 1)
    b = 3
    assert extent(model, f, (b, b)) == frozenset({b})
    assert components(extent(model, f, (b, b)), ball_family(model)) == (frozenset({b}),)


# at most this many balls make up each kind's positive part
MAX_BALLS = {"lca-ball": 1, "twin-ball-0": 2, "twin-ball-1": 2, "twin-ball-2": 2, "boolean-mix": 1}


def test_corpus_certificates_match_components_oracle():
    # every u-ball kind's positive part is a union of at most 1 or 2 balls
    rng = Random(19)
    for _ in range(15):
        model = random_ultrametric(rng.randint(4, 16), rng.randint(2, 4), rng.randrange(1 << 20))
        pool = ball_family(model)
        for kind, most in MAX_BALLS.items():
            for _ in range(6):
                y0, y1 = rng.randrange(model.size), rng.randrange(model.size)
                part = positive_part(kind, model, y0, y1)
                balls = components(part, pool)
                assert isinstance(balls, tuple) and 1 <= len(balls) <= most, (kind, y0, y1)
                assert frozenset().union(*balls) == part
                if kind != "boolean-mix":
                    assert extent(model, growth_formula(kind, 1), (y0, y1)) == part


def test_boolean_mix_shape():
    model = random_ultrametric(12, 2, 21)
    tree = Tree(model)
    f = growth_formula("boolean-mix", 1)
    y = (4, 9)
    pos = model.ball(tree.up(y[0], 2))
    neg = model.ball(tree.up(y[1], 1))
    assert extent(model, f, y) == pos - neg
    assert f.name == "boolean-mix-2-1"


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        growth_formula("mystery", 1)
    with pytest.raises(DomainError):
        growth_formula("pair-equality", 1)
    with pytest.raises(DomainError):
        growth_formula("lca-ball", 3)


def test_growth_formula_partitions_agree():
    # both partitions evaluate the oracle's predicate
    model = random_ultrametric(10, 3, 4)
    tree = Tree(model)
    every = np.arange(model.size)
    rng = Random(3)
    for kind in GROWTH_KINDS:
        nat = growth_formula(kind, 1) if kind != "pair-equality" else None
        opp = growth_formula(kind, 2)
        for _ in range(40):
            x = rng.randrange(model.size)
            y0, y1 = rng.randrange(model.size), rng.randrange(model.size)
            want = holds(kind, tree, x, y0, y1)
            pair = np.array([[y0, y1]])
            assert opp.batch(model, pair, block([(x,)])).tolist() == [[want]]
            if nat is not None:
                assert nat.batch(model, every[:, None], block([(y0, y1)]))[0, x] == want


def test_batched_corpus_matches_scalar():
    rng = Random(5)
    for seed in (13, 14, 15):
        model = random_ultrametric(rng.randint(2, 14), rng.randint(2, 4), seed)
        tree = Tree(model)
        objs1 = np.arange(model.size)[:, None]
        objs2 = np.array([(a, b) for a in range(model.size) for b in range(model.size)])
        for kind in GROWTH_KINDS:
            for arity, objs in ((1, objs1), (2, objs2)):
                if kind == "pair-equality" and arity == 1:
                    continue
                f = growth_formula(kind, arity)
                # one block of five parameter tuples, one row each
                params = [
                    tuple(rng.randrange(model.size) for _ in range(f.param_arity))
                    for _ in range(5)
                ]
                fast = f.batch(model, objs, block(params)).tolist()
                if arity == 1:
                    want = [[holds(kind, tree, x, *p) for (x,) in objs.tolist()] for p in params]
                else:
                    want = [[holds(kind, tree, p[0], *row) for row in objs.tolist()] for p in params]
                assert fast == want, (kind, arity, params)


def test_ancestor_array_matches_tree_walk_with_unary_nodes():
    rng = Random(12)
    for _ in range(20):
        base = random_ultrametric(rng.randint(2, 30), rng.randint(2, 4), rng.randrange(1 << 20))
        model = with_unary_nodes(base, rng, rng.randint(1, 10))
        tree = Tree(model)
        for k in range(model.n_nodes):
            want = [tree.up(y, k) for y in range(model.size)]
            assert model.ancestor_array(k).tolist() == want, k


def test_ball_bool_matches_ancestor_walk():
    rng = Random(9)
    for _ in range(20):
        model = random_ultrametric(rng.randint(2, 30), rng.randint(2, 4), rng.randrange(1 << 20))
        tree = Tree(model)
        want = [[tree.in_ball(x, v) for x in range(model.size)] for v in range(model.n_nodes)]
        assert model.ball_bool.tolist() == want
    # the matrix is filled in blocks of 256 rows: trees with a partial last block
    for leaves in (300, 700):
        model = random_ultrametric(leaves, 2, leaves)
        want = np.zeros((model.n_nodes, model.size), dtype=bool)
        for v in range(model.n_nodes):
            want[v, list(model.ball(v))] = True
        assert model.n_nodes % 256 and (model.ball_bool == want).all()


def interval_models(seed):
    """Random trees with shuffled node ids, with unary nodes, and both."""
    rng = Random(seed)
    for _ in range(15):
        base = random_ultrametric(rng.randint(2, 30), rng.randint(2, 4), rng.randrange(1 << 20))
        unary = with_unary_nodes(base, rng, rng.randint(1, 10))
        yield from (shuffled_ids(base, rng), unary, shuffled_ids(unary, rng))


@pytest.mark.parametrize("seed", range(3))
def test_ball_intervals_match_tree_walk(seed):
    # every (node, x): x in ball(v) read off the rank interval [lo, hi)
    # equals the parent-array walk, and so do the views of one DFS pass and
    # the lca matrix built from the intervals
    moved = 0
    for model in interval_models(seed):
        tree = Tree(model)
        n, size = model.n_nodes, model.size
        want = [[tree.in_ball(x, v) for x in range(size)] for v in range(n)]
        assert model.in_ball(np.arange(size), np.arange(n)[:, None]).tolist() == want
        balls = [frozenset(x for x in range(size) if tree.in_ball(x, v)) for v in range(n)]
        assert [model.ball(v) for v in range(n)] == balls
        assert ball_family(model).sets == tuple(balls)
        for v, ball in enumerate(balls):
            assert sorted(model.rank[sorted(ball)].tolist()) == list(
                range(model.lo[v], model.hi[v])
            )
        assert sorted(model.rank.tolist()) == list(range(size))
        assert (model.by_rank[model.rank] == np.arange(size)).all()
        assert model.leaves == tuple(tree.leaves)
        assert model.root == model.parent.index(-1)
        assert model.depth.tolist() == [len(tree.chain_from(v)) - 1 for v in range(n)]
        assert model.children == tuple(
            tuple(c for c in range(n) if model.parent[c] == v) for v in range(n)
        )
        assert model.non_unary.tolist() == [
            v for v in range(n) if model.parent.count(v) != 1
        ]
        lcas = [[tree.lca(x, y) for y in range(size)] for x in range(size)]
        assert model.lca_node_matrix.tolist() == lcas
        moved += model.rank.tolist() != list(range(size))
    assert moved >= 10


@pytest.mark.parametrize("parent,message", [
    ((-1, -1, 0), "exactly one root, found 2"),
    ((1, 0), "exactly one root, found 0"),
    ((-1, 0, 9), r"parent\[2\] = 9 out of range"),
    ((-1, 0, -2), r"parent\[2\] = -2 out of range"),
    ((-1, 0, 0, 4, 3), "contains a cycle or unreachable nodes"),
    ((-1, 0), "needs at least 2 leaves"),
    ((-1,) + (0,) * 4097, "universe size 4097 exceeds cap 4096"),
])
def test_parent_array_errors_keep_their_messages(parent, message):
    with pytest.raises(ModelFormatError if "universe" not in message else DomainError,
                       match=message):
        UltrametricModel(parent)


def test_node_dedupes_keep_each_node_or_pair_once_in_order():
    # distinct_nodes and distinct_node_pairs dedupe without np.unique: the
    # same ascending ids, and each distinct (u, v) pair once in (u, v) order,
    # with v = n_nodes standing for no second node
    rng = np.random.default_rng(3)
    model = random_ultrametric(40, 3, 5)
    n = model.n_nodes
    for _ in range(5):
        u = rng.integers(0, n, 300, dtype=np.int32)
        v = rng.integers(0, n + 1, 300, dtype=np.int32)
        u[150:], v[150:] = u[:150], v[:150]  # every pair at least twice
        for ids in (u, u[:20]):
            assert (model.distinct_nodes(ids) == np.unique(ids)).all()
        got_u, got_v = model.distinct_node_pairs(u, v)
        assert list(zip(got_u.tolist(), got_v.tolist())) == sorted(set(zip(u.tolist(), v.tolist())))


def test_arity_1_growth_at_4096_leaves_builds_no_ball_bool(monkeypatch):
    # the cells read rank ranges only; the (nodes, L) bool matrix would be
    # about 29 MB here
    models = []
    resolve = harness.resolve_model

    def keep(config):
        models.append(resolve(config))
        return models[-1]

    monkeypatch.setattr(harness, "resolve_model", keep)
    for kind in ("lca-ball", "boolean-mix", "twin-ball-1"):
        report = harness.run_growth(harness.ExperimentConfig(kind, 1, (8, 64, 2048), trials=1, seed=2))
        assert report.complete and models[-1].size == 4096
        assert "ball_bool" not in models[-1].__dict__, kind


# --- model files -------------------------------------------------------------------


def test_round_trip_ultrametric(tmp_path):
    model = random_ultrametric(8, 2, 7)
    path = tmp_path / "tree.model.json"
    save_model(model, path)
    assert load_model(path) == model


def test_round_trip_order_and_family(tmp_path):
    order = OrderModel(5, seed=3)
    p1 = tmp_path / "order.model.json"
    save_model(order, p1)
    assert load_model(p1) == order

    fam = SetFamily.of(3, [{0, 1}, {1, 2}])
    p2 = tmp_path / "family.model.json"
    save_model(fam, p2)
    loaded = load_model(p2)
    assert loaded == fam
    assert isinstance(check_directed(loaded), CrossingPair)


def test_load_order_kind_literal(tmp_path):
    path = tmp_path / "o.model.json"
    path.write_text('{"kind": "order", "size": 5}\n')
    model = load_model(path)
    assert isinstance(model, OrderModel) and model.size == 5


def test_load_rejects_cycles_and_bad_json(tmp_path):
    bad = tmp_path / "cycle.model.json"
    bad.write_text(json.dumps({"kind": "ultrametric", "parent": [1, 0]}))
    with pytest.raises(ModelFormatError):
        load_model(bad)

    two_roots = tmp_path / "tworoots.model.json"
    two_roots.write_text(json.dumps({"kind": "ultrametric", "parent": [-1, -1]}))
    with pytest.raises(ModelFormatError):
        load_model(two_roots)

    out_of_range = tmp_path / "range.model.json"
    out_of_range.write_text(json.dumps({"kind": "ultrametric", "parent": [-1, 9]}))
    with pytest.raises(ModelFormatError):
        load_model(out_of_range)

    garbage = tmp_path / "garbage.model.json"
    garbage.write_text("{not json")
    with pytest.raises(ModelFormatError) as err:
        load_model(garbage)
    assert "line" in str(err.value)

    unknown = tmp_path / "weird.model.json"
    unknown.write_text(json.dumps({"kind": "hyperbolic"}))
    with pytest.raises(ModelFormatError):
        load_model(unknown)
