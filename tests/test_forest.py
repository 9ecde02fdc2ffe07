from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laminarvc import (
    ComponentsFailure,
    ConvexOrder,
    CrossingPair,
    DirectedFamily,
    DomainError,
    QuasiForest,
    SetFamily,
    Universe,
    ValidationError,
    build_forest,
    check_convexity,
    check_directed,
    components,
    convex_order,
    forest_from_extents,
    sum_dist_check,
    type_tree,
    virtual_type_space,
)
from laminarvc import forest as forest_module
from laminarvc.forest import first_crossing
from laminarvc.models import ball_family, growth_formula, random_ultrametric
from laminarvc.verify import verify_directed_linear_bound


def balanced_binary_extents():
    # 7 balls over 4 leaves: root, two children, four singletons
    return [
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    ]


def random_ball_forest(rng, max_nodes=12):
    model = random_ultrametric(rng.randint(2, 8), rng.randint(2, 4), rng.randrange(1 << 30))
    chosen = [rng.randrange(model.n_nodes) for _ in range(rng.randint(1, max_nodes))]
    return forest_from_extents([model.ball(v) for v in chosen], model.size)


# --- directedness ------------------------------------------------------------


def test_check_directed_disjoint_chain_crossing():
    assert isinstance(check_directed(SetFamily.of(3, [{0}, {1}, {2}])), DirectedFamily)
    assert isinstance(check_directed(SetFamily.of(3, [{0}, {0, 1}, {0, 1, 2}])), DirectedFamily)
    got = check_directed(SetFamily.of(3, [{0, 1}, {1, 2}]))
    assert got == CrossingPair(0, 1)


def test_directed_families_are_scanned_once(monkeypatch):
    scans = []

    def counting(family):
        scans.append(family)
        return first_crossing(family)

    monkeypatch.setattr(forest_module, "first_crossing", counting)
    assert isinstance(check_directed(SetFamily.of(3, [{0}, {0, 1}, {2}])), DirectedFamily)
    assert len(scans) == 1
    assert check_directed(SetFamily.of(3, [{0, 1}, {1, 2}])) == CrossingPair(0, 1)
    assert len(scans) == 2
    scans.clear()
    # per trial: the ball family once, in check_directed, and the lca-ball
    # instance family once, in build_forest
    report = verify_directed_linear_bound(seed=3, trials=6)
    assert report.failures == 0 and len(scans) == 2 * 6


def test_directed_family_rejects_crossing():
    with pytest.raises(ValidationError):
        DirectedFamily(SetFamily.of(3, [{0, 1}, {1, 2}]))


def pair_loop_crossing(family):
    """The reference scan: the first (i, j), i < j, in loop order whose sets
    are neither nested nor disjoint."""
    masks = family.masks
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            inter = masks[i] & masks[j]
            if inter and inter != masks[i] and inter != masks[j]:
                return CrossingPair(i, j)
    return None


def random_families(rng):
    """Ball families (directed), the same with a few random sets mixed in
    (mostly crossing), and small random families with empty and repeated sets."""
    model = random_ultrametric(rng.randint(2, 40), rng.randint(2, 4), rng.randrange(1 << 20))
    balls = list(ball_family(model).sets)
    yield SetFamily(Universe(model.size), tuple(balls))
    for _ in range(rng.randint(1, 3)):
        balls.insert(
            rng.randrange(len(balls) + 1),
            frozenset(rng.sample(range(model.size), rng.randint(0, model.size))),
        )
    yield SetFamily(Universe(model.size), tuple(balls))
    n = rng.randint(1, 9)
    sets = [frozenset(x for x in range(n) if rng.random() < 0.4) for _ in range(rng.randint(0, 8))]
    yield SetFamily.of(n, sets + sets[:2])


@pytest.mark.parametrize("budget", [1, 4096, forest_module._CROSSING_BYTES])
@pytest.mark.parametrize("seed", range(4))
def test_first_crossing_matches_pair_loop(seed, budget, monkeypatch):
    # a budget of 1 byte takes one row and one column at a time, 4096 bytes a
    # few rows of these families
    monkeypatch.setattr(forest_module, "_CROSSING_BYTES", budget)
    rng = Random(seed)
    found = 0
    for _ in range(10):
        for family in random_families(rng):
            want = pair_loop_crossing(family)
            assert first_crossing(family) == want
            if want is None:
                assert isinstance(check_directed(family), DirectedFamily)
            else:
                found += 1
                with pytest.raises(ValidationError, match=f"sets {want.i} and {want.j} cross$"):
                    DirectedFamily(family)
    assert found > 5


# --- forest construction -------------------------------------------------------


def test_build_forest_shapes():
    model = random_ultrametric(2, 2, 0)
    delta = [growth_formula("lca-ball", 1)]
    single = build_forest([(0, 1)], delta, model)
    assert single.n_nodes == 1 and single.n_classes == 1

    chain = forest_from_extents([frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})], 3)
    assert chain.n_classes == 3
    assert chain.class_leq[2][0] and not chain.class_leq[0][2]  # bigger ball sits below

    # two parameter pairs with the same lca give equal balls: 2 raw, 1 class
    model = random_ultrametric(4, 2, 3)
    dup = build_forest([(0, 1), (1, 0)], delta, model)
    assert dup.n_nodes == 2 and dup.n_classes == 1


def test_build_forest_rejects_crossing_instances():
    crossing = SetFamily.of(3, [{0, 1}, {1, 2}])

    from laminarvc.setsystem import ParametrizedFormula

    member = ParametrizedFormula(
        "member", 1, 1, lambda M, x, p: x[0] in crossing.sets[p[0]],
        lambda M, objs, p: np.isin(objs[:, 0], list(crossing.sets[p[0]])),
    )

    class Carrier:
        size = 3

    with pytest.raises(DomainError):
        build_forest([(0,), (1,)], [member], Carrier())


def test_forest_chain_condition_guard():
    with pytest.raises(ValidationError):
        forest_from_extents([frozenset(), frozenset({0}), frozenset({1})], 2)


def first_axiom_failure(leq):
    """Reference for QuasiForest.validate's first two axioms, in the scalar
    (i, j, k) loop order: the message of the first failure, or None."""
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            return f"reflexivity fails at node {i}"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    return f"transitivity fails at nodes {i}, {j}, {k}"
    return None


def test_validate_names_first_failing_axiom():
    rng = Random(11)
    transitivity = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        density = rng.random()
        leq = [[rng.random() < density for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.9:
            for i in range(n):
                leq[i][i] = True
        want = first_axiom_failure(leq)
        forest = QuasiForest(tuple(range(n)), tuple(map(tuple, leq)))
        try:
            forest.validate()
            got = None
        except ValidationError as e:
            got = str(e)
        if want is None:
            assert got is None or got.startswith("forest chain condition fails")
        else:
            assert got == want
            transitivity += want.startswith("transitivity")
    assert transitivity > 500


# --- tree of types -------------------------------------------------------------


def test_type_tree_chain_and_disjoint():
    chain = forest_from_extents(
        [frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0})], 3
    )
    tt = type_tree(chain)
    assert len(tt.nodes) == 4
    sizes = sorted(len(p) for p in tt.nodes)
    assert sizes == [0, 1, 2, 3]

    two = forest_from_extents([frozenset({0}), frozenset({1})], 2)
    tt2 = type_tree(two)
    assert set(tt2.nodes) == {frozenset(), frozenset({0}), frozenset({1})}


def test_type_tree_balanced_binary_iso():
    f = forest_from_extents(balanced_binary_extents(), 4)
    tt = type_tree(f)
    assert len(tt.nodes) == 8
    # root has the two child subtrees, each with two leaf types
    kids = tt.children[tt.root]
    assert len(kids) == 1  # the ball covering everything is the unique minimum
    depth_one = tt.children[kids[0]]
    assert len(depth_one) == 2
    assert all(len(tt.children[c]) == 2 for c in depth_one)


def test_type_tree_meets_are_intersections():
    rng = Random(5)
    for _ in range(30):
        tt = type_tree(random_ball_forest(rng))
        for p in tt.nodes:
            for q in tt.nodes:
                assert p & q in tt.index


def test_quotient_partitions_and_class_order_antisymmetric():
    rng = Random(6)
    for _ in range(30):
        forest = random_ball_forest(rng)
        assert sorted(i for cls in forest.classes for i in cls) == list(range(forest.n_nodes))
        for a in range(forest.n_classes):
            for b in range(forest.n_classes):
                if a != b:
                    assert not (forest.class_leq[a][b] and forest.class_leq[b][a])
        for c in range(forest.n_classes):
            down = sorted(forest.class_down_set(c))
            for x in down:
                for y in down:
                    assert forest.class_leq[x][y] or forest.class_leq[y][x]


# --- convex order ---------------------------------------------------------------


def test_convex_order_chain_is_inclusion_order():
    chain = forest_from_extents(
        [frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0})], 3
    )
    order = convex_order(type_tree(chain))
    sizes = [len(order.tree.nodes[i]) for i in order.sequence]
    assert sizes == [0, 1, 2, 3]


def test_convex_order_sibling_rule():
    two = forest_from_extents([frozenset({0}), frozenset({1})], 2)
    tt = type_tree(two)
    a = tt.index[frozenset({0})]
    b = tt.index[frozenset({1})]
    fwd = convex_order(tt, sibling_orders={tt.root: [a, b]})
    assert list(fwd.sequence) == [tt.root, a, b]
    rev = convex_order(tt, sibling_orders={tt.root: [b, a]})
    assert list(rev.sequence) == [tt.root, b, a]


def test_convex_order_extends_inclusion_and_is_convex():
    f = forest_from_extents(balanced_binary_extents(), 4)
    tt = type_tree(f)
    order = convex_order(tt)
    assert check_convexity(order)
    for p in tt.nodes:
        for q in tt.nodes:
            if p < q:
                assert order.position[tt.index[p]] < order.position[tt.index[q]]


def test_convex_order_bad_sibling_orders():
    tt = type_tree(forest_from_extents([frozenset({0}), frozenset({1})], 2))
    with pytest.raises(DomainError):
        convex_order(tt, sibling_orders={tt.root: [tt.root]})


def test_adversarial_order_breaks_convexity():
    # interleave the two depth-1 subtrees of the balanced tree
    f = forest_from_extents(balanced_binary_extents(), 4)
    tt = type_tree(f)
    order = convex_order(tt)
    seq = list(order.sequence)
    left_leaf = tt.index[max(tt.nodes, key=lambda p: (len(p), sorted(p)))]
    # swap a deep node into the other subtree's block
    i = seq.index(left_leaf)
    swapped = seq.copy()
    swapped[1], swapped[i] = swapped[i], swapped[1]
    bad = ConvexOrder(tt, tuple(swapped), order.sibling_orders)
    assert not check_convexity(bad)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=80)
def test_convexity_random_forests_random_sibling_orders(seed):
    rng = Random(seed)
    tt = type_tree(random_ball_forest(rng))
    order = convex_order(tt, seed=seed)
    assert check_convexity(order)


# --- diff / dist / sum-dist ------------------------------------------------------


def test_diff_dist_basics():
    f = forest_from_extents(balanced_binary_extents(), 4)
    tt = type_tree(f)
    root = frozenset()
    assert tt.dist(root, root) == 0
    chain_member = next(p for p in tt.nodes if len(p) == 3)
    parent = next(p for p in tt.nodes if p < chain_member and len(p) == 2)
    assert tt.diff(parent, chain_member) == chain_member - parent
    assert tt.dist(parent, chain_member) == 1
    # proper inclusion with three intermediate classes
    assert tt.diff(root, chain_member) == chain_member
    assert tt.dist(root, chain_member) == 3
    siblings = [p for p in tt.nodes if len(p) == 2]
    assert tt.dist(siblings[0], siblings[1]) == 2


def test_diff_rejects_foreign_nodes():
    tt = type_tree(forest_from_extents([frozenset({0})], 1))
    with pytest.raises(DomainError):
        tt.dist(frozenset({41}), frozenset())


def test_sum_dist_balanced_binary():
    # hand enumeration of the depth-2 binary tree gives total distance 11
    f = forest_from_extents(balanced_binary_extents(), 4)
    order = convex_order(type_tree(f))
    rep = sum_dist_check(order)
    assert (rep.total, rep.bound, rep.ok) == (11, 14, True)


def test_sum_dist_singleton_sequence():
    f = forest_from_extents(balanced_binary_extents(), 4)
    order = convex_order(type_tree(f))
    rep = sum_dist_check(order, [frozenset()])
    assert rep.total == 0 and rep.ok


def test_sum_dist_rejects_non_increasing():
    f = forest_from_extents(balanced_binary_extents(), 4)
    tt = type_tree(f)
    order = convex_order(tt)
    last = tt.nodes[order.sequence[-1]]
    with pytest.raises(DomainError):
        sum_dist_check(order, [last, frozenset()])


def test_sum_dist_random_forests_and_subsequences():
    rng = Random(17)
    for _ in range(80):
        forest = random_ball_forest(rng)
        tt = type_tree(forest)
        order = convex_order(tt)
        rep = sum_dist_check(order)
        assert rep.ok and rep.bound == 2 * forest.n_nodes
        nodes = [tt.nodes[i] for i in order.sequence]
        idxs = sorted(rng.sample(range(len(nodes)), rng.randint(1, len(nodes))))
        assert sum_dist_check(order, [nodes[i] for i in idxs]).total <= rep.bound


# --- virtual type spaces ----------------------------------------------------------


def test_virtual_space_empty_params():
    model = random_ultrametric(4, 2, 1)
    delta = [growth_formula("lca-ball", 1)]
    assert virtual_type_space([], delta, model).count == 1


def test_virtual_space_nested_chain():
    model = random_ultrametric(8, 2, 2)
    # walk down from the root to get three nested balls
    v = model.root
    chain = [v]
    while model.children[chain[-1]]:
        chain.append(model.children[chain[-1]][0])
    picks = chain[:3]
    assert len(picks) == 3

    from laminarvc.setsystem import ParametrizedFormula

    node_ball = ParametrizedFormula(
        "node-ball", 1, 1, lambda M, x, p: bool(M.ball_bool[p[0], x[0]]),
        lambda M, objs, p: M.ball_bool[p[0], objs[:, 0]],
    )
    space = virtual_type_space([(v,) for v in picks], [node_ball], model)
    assert space.count == 4


def test_virtual_space_contains_realized_and_counts_classes():
    from laminarvc.setsystem import type_space

    rng = Random(23)
    for _ in range(40):
        model = random_ultrametric(rng.randint(4, 20), rng.randint(2, 4), rng.randrange(1 << 20))
        delta = [growth_formula("lca-ball", 1)]
        C = [(rng.randrange(model.size), rng.randrange(model.size)) for _ in range(rng.randint(1, 8))]
        space = virtual_type_space(C, delta, model)
        forest = build_forest(C, delta, model)
        assert space.count == forest.n_classes + 1
        realized = type_space(delta, C, model, 1)
        assert realized.vector_set() <= space.entry_set()
        assert space.count <= len(C) * len(delta) + 1


# --- components --------------------------------------------------------------------


def test_components_single_and_disjoint():
    model = random_ultrametric(8, 3, 6)
    pool = ball_family(model)
    one = model.ball(model.children[model.root][0])
    assert components(one, pool) == (one,)

    kids = model.children[model.root]
    b0, b1 = model.ball(kids[0]), model.ball(kids[1])
    got = components(b0 | b1, pool)
    if b0 | b1 == model.ball(model.root):
        assert got == (model.ball(model.root),)
    else:
        assert set(got) == {b0, b1}


def test_components_parent_presented_as_union_of_children():
    model = random_ultrametric(9, 3, 11)
    parent = model.root
    target = frozenset().union(*(model.ball(c) for c in model.children[parent]))
    assert target == model.ball(parent)
    assert components(target, ball_family(model)) == (model.ball(parent),)


def test_components_failure_witness():
    fam = DirectedFamily(SetFamily.of(4, [{0}, {1}]))
    got = components({0, 1, 3}, fam)
    assert isinstance(got, ComponentsFailure)
    assert got.uncovered == 3


def test_components_empty_target():
    fam = DirectedFamily(SetFamily.of(2, [{0}]))
    assert components(set(), fam) == ()


def test_components_pool_permutation_invariance():
    rng = Random(31)
    for _ in range(30):
        model = random_ultrametric(rng.randint(4, 12), rng.randint(2, 4), rng.randrange(1 << 20))
        pool = ball_family(model)
        picks = [rng.randrange(model.n_nodes) for _ in range(rng.randint(1, 3))]
        target = frozenset().union(*(model.ball(v) for v in picks))
        base = components(target, pool)
        shuffled = list(pool.sets)
        rng.shuffle(shuffled)
        assert components(target, DirectedFamily(SetFamily(pool.base.universe, tuple(shuffled)))) == base
        assert frozenset().union(*base) == target
