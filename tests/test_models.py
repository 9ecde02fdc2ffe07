import json
from random import Random

import numpy as np
import pytest
from scalar_oracle import Tree, holds, positive_part, with_unary_nodes

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
    load_model,
    order_family,
    random_ultrametric,
    save_model,
    vc_dimension,
)
from laminarvc.models import GROWTH_KINDS, UltrametricModel, growth_formula


def extent(model, formula, params):
    """Extent of an arity-1 formula instance, from one batch call."""
    hits = formula.batch(model, np.arange(model.size)[:, None], params)
    return frozenset(np.flatnonzero(hits).tolist())


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


def test_generation_parameter_validation():
    with pytest.raises(DomainError):
        random_ultrametric(1, 2, 0)
    with pytest.raises(DomainError):
        random_ultrametric(4, 1, 0)


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


# --- order model ----------------------------------------------------------------


def test_order_family_size_three():
    fam = order_family(OrderModel(3))
    assert set(fam.sets) == {frozenset({0}), frozenset({0, 1})}
    with_empty = order_family(OrderModel(3), include_empty=True)
    assert frozenset() in set(with_empty.sets)


def test_order_family_directed_and_vc_one():
    fam = order_family(OrderModel(8))
    assert isinstance(check_directed(fam.base), DirectedFamily)
    assert vc_dimension(fam.base) == 1


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
    f = growth_formula("boolean-mix", 1)
    y = (4, 9)
    pos = model.ball(model.ancestor_up(model.leaves[y[0]], 2))
    neg = model.ball(model.ancestor_up(model.leaves[y[1]], 1))
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
    # both partitions, scalar and batch, evaluate the oracle's predicate
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
            assert opp.eval_fn(model, (y0, y1), (x,)) == want
            pair = np.array([[y0, y1]])
            assert opp.batch(model, pair, (x,)).tolist() == [want]
            if nat is not None:
                assert nat.eval_fn(model, (x,), (y0, y1)) == want
                assert nat.batch(model, every[:, None], (y0, y1))[x] == want


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
                for _ in range(5):
                    p = tuple(rng.randrange(model.size) for _ in range(f.param_arity))
                    fast = f.batch(model, objs, p).tolist()
                    scalar = [f.eval_fn(model, tuple(row), p) for row in objs.tolist()]
                    if arity == 1:
                        want = [holds(kind, tree, x, *p) for (x,) in objs.tolist()]
                    else:
                        want = [holds(kind, tree, p[0], *row) for row in objs.tolist()]
                    assert fast == scalar == want, (kind, arity, p)


def test_ancestor_array_matches_ancestor_up_with_unary_nodes():
    rng = Random(12)
    for _ in range(20):
        base = random_ultrametric(rng.randint(2, 30), rng.randint(2, 4), rng.randrange(1 << 20))
        model = with_unary_nodes(base, rng, rng.randint(1, 10))
        for k in range(model.n_nodes):
            want = [model.ancestor_up(leaf, k) for leaf in model.leaves]
            assert model.ancestor_array(k).tolist() == want, k


def test_ball_bool_matches_ancestor_walk():
    rng = Random(9)
    for _ in range(20):
        model = random_ultrametric(rng.randint(2, 30), rng.randint(2, 4), rng.randrange(1 << 20))
        tree = Tree(model)
        want = [[tree.in_ball(x, v) for x in range(model.size)] for v in range(model.n_nodes)]
        assert model.ball_bool.tolist() == want


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
