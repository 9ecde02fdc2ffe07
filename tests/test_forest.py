import json
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
from laminarvc import save_model
from laminarvc import verify as verify_module
from laminarvc.cli import main
from laminarvc.forest import (
    TypeTree,
    first_crossing,
    first_range_crossing,
    forest_from_ranges,
    virtual_space_from_forest,
)
from laminarvc.fullvcmin import dlo_instance, forest_from_type, psi_type
from laminarvc.models import OrderModel, ball_family, growth_formula, random_ultrametric
from laminarvc.setsystem import ParametrizedFormula
from laminarvc.verify import verify_directed_linear_bound

import scalar_oracle as oracle


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
    return forest_from_extents([model.ball(v) for v in chosen])


# --- directedness ------------------------------------------------------------


def test_check_directed_disjoint_chain_crossing():
    assert isinstance(check_directed(SetFamily.of(3, [{0}, {1}, {2}])), DirectedFamily)
    assert isinstance(check_directed(SetFamily.of(3, [{0}, {0, 1}, {0, 1, 2}])), DirectedFamily)
    got = check_directed(SetFamily.of(3, [{0, 1}, {1, 2}]))
    assert got == CrossingPair(0, 1)


def test_directed_families_are_scanned_once(monkeypatch, tmp_path, capsys):
    scans = []

    def counting(scan):
        def counted(*args):
            scans.append(scan.__name__)
            return scan(*args)
        return counted

    for scan in (first_crossing, first_range_crossing):
        for module in (forest_module, verify_module):
            if hasattr(module, scan.__name__):
                monkeypatch.setattr(module, scan.__name__, counting(scan))
    assert isinstance(check_directed(SetFamily.of(3, [{0}, {0, 1}, {2}])), DirectedFamily)
    assert scans == ["first_crossing"]
    assert check_directed(SetFamily.of(3, [{0, 1}, {1, 2}])) == CrossingPair(0, 1)
    assert len(scans) == 2
    scans.clear()
    # per trial: the tree's ball ranges once, and the lca-ball instances'
    # ranges once, in forest_from_ranges; no member matrix is scanned
    report = verify_directed_linear_bound(seed=3, trials=6)
    assert report.failures == 0 and scans == ["first_range_crossing"] * 2 * 6
    # check-directed scans its family once: an order's initial segments and
    # a tree's balls as ranges, a family file's sets as a member matrix
    for model, scan in (
        (OrderModel(40, seed=1), "first_range_crossing"),
        (random_ultrametric(30, 3, 2), "first_range_crossing"),
        (SetFamily.of(3, [{0}, {0, 1}, {2}]), "first_crossing"),
    ):
        scans.clear()
        path = tmp_path / "model.json"
        save_model(model, path)
        assert main(["check-directed", "--model", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["directed"] is True
        assert scans == [scan], model


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


@pytest.mark.parametrize("budget", [1, 4096, 1 << 23])
@pytest.mark.parametrize("seed", range(4))
def test_first_crossing_matches_pair_loop(seed, budget, monkeypatch):
    # a budget of 1 byte takes one row at a time, 4096 bytes a few rows of
    # these families, and 8 MB, like the default budget, all of them at once
    monkeypatch.setattr(forest_module, "_CROSSING_BYTES", budget)
    rng = Random(seed)
    found = 0
    for _ in range(10):
        for family in random_families(rng):
            want = pair_loop_crossing(family)
            assert first_crossing(family.member) == want
            if want is None:
                assert isinstance(check_directed(family), DirectedFamily)
            else:
                found += 1
                with pytest.raises(ValidationError, match=f"sets {want.i} and {want.j} cross$"):
                    DirectedFamily(family)
    assert found > 5


def wide_families(rng):
    """Families over 65 to 300 elements, several membership words per set:
    a tree's balls (directed), the same with a random set or a set shifted
    across a word boundary mixed in, and initial and final segments, which
    hold a run of sets at every word."""
    model = random_ultrametric(rng.randint(65, 300), rng.randint(2, 5), rng.randrange(1 << 20))
    u = model.size
    balls = list(ball_family(model).sets)
    yield SetFamily(Universe(u), tuple(balls))
    ball = max(balls[1:], key=len)
    for extra in (
        frozenset(rng.sample(range(u), rng.randint(1, u))),
        frozenset(x + 1 for x in ball if x + 1 < u) | {min(ball)},
    ):
        mixed = list(balls)
        mixed.insert(rng.randrange(len(mixed) + 1), extra)
        yield SetFamily(Universe(u), tuple(mixed))
    segments = [frozenset(range(c)) for c in range(1, u)]
    yield SetFamily(Universe(u), tuple(segments))
    cut = rng.randrange(1, u)
    yield SetFamily(Universe(u), (*segments, frozenset(range(cut, u))))


@pytest.mark.parametrize("budget", [1, 4096, forest_module._CROSSING_BYTES])
def test_first_crossing_on_wide_universes_matches_pair_loop(budget, monkeypatch):
    # the default budget takes these families (up to 600 sets) in chunks of
    # 109 rows or more
    monkeypatch.setattr(forest_module, "_CROSSING_BYTES", budget)
    rng = Random(11)
    found = 0
    for _ in range(4):
        for family in wide_families(rng):
            want = pair_loop_crossing(family)
            assert first_crossing(family.member) == want
            found += want is not None
    assert found >= 8


def range_member(lo, hi):
    """The (n, max hi) bool member matrix of the ranges [lo[i], hi[i])."""
    elements = np.arange(max(hi, default=0))
    return (np.array(lo)[:, None] <= elements) & (elements < np.array(hi)[:, None])


def random_range_families(rng):
    """A tree's balls as ranges, some of them, shuffled and repeated (never
    crossing); the same with random ranges mixed in, empty ones included;
    and small random families, mostly crossing."""
    model = random_ultrametric(rng.randint(2, 40), rng.randint(2, 4), rng.randrange(1 << 20))
    nodes = [rng.randrange(model.n_nodes) for _ in range(rng.randint(1, 2 * model.n_nodes))]
    ranges = [(int(model.lo[v]), int(model.hi[v])) for v in nodes]
    yield ranges
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randrange(model.size + 1), rng.randrange(model.size + 1)
        ranges.insert(rng.randrange(len(ranges) + 1), (min(a, b), max(a, b)))
    yield ranges
    ranges = [(rng.randrange(8), rng.randrange(9)) for _ in range(rng.randint(0, 8))]
    yield ranges + ranges[:2]


@pytest.mark.parametrize("seed", range(4))
def test_first_range_crossing_matches_first_crossing(seed):
    rng = Random(seed)
    found = 0
    for _ in range(50):
        for ranges in random_range_families(rng):
            lo, hi = [r[0] for r in ranges], [r[1] for r in ranges]
            want = first_crossing(range_member(lo, hi)) if ranges else None
            assert first_range_crossing(np.array(lo, dtype=int), np.array(hi, dtype=int)) == want
            found += want is not None
    assert found > 30


def test_forest_from_ranges_matches_forest_from_extents():
    rng = Random(31)
    for _ in range(200):
        model = random_ultrametric(rng.randint(2, 20), rng.randint(2, 4), rng.randrange(1 << 20))
        # up to twice the node count, so nodes repeat, and unary nodes share
        # their child's ball
        chosen = [rng.randrange(model.n_nodes) for _ in range(rng.randint(1, 2 * model.n_nodes))]
        labels = tuple(enumerate(chosen))
        got = forest_from_ranges(model.lo[chosen], model.hi[chosen], labels)
        want = forest_from_extents([model.ball(v) for v in chosen], labels)
        assert got.labels == labels and got.same_order(want)


def test_forest_from_ranges_rejects_empty_crossing_and_ragged_ranges():
    with pytest.raises(DomainError, match="instance c has an empty range"):
        forest_from_ranges([0, 0, 2, 3], [4, 2, 2, 3], "abcd")
    # the first crossing pair, named by label, as build_forest names it
    rng = Random(37)
    crossing = 0
    for _ in range(100):
        for ranges in random_range_families(rng):
            ranges = [(a, b) for a, b in ranges if a < b]
            lo, hi = [r[0] for r in ranges], [r[1] for r in ranges]
            labels = [(i, 0) for i in range(len(ranges))]
            want = first_crossing(range_member(lo, hi)) if ranges else None
            if want is None:
                forest_from_ranges(lo, hi, labels)
                continue
            with pytest.raises(DomainError) as err:
                forest_from_ranges(lo, hi, labels)
            assert str(err.value) == (
                f"instance family is not directed: instances ({want.i}, 0) and ({want.j}, 0) cross"
            )
            crossing += 1
    assert crossing > 50
    with pytest.raises(DomainError, match="equal length"):
        forest_from_ranges([0, 1], [1, 2], ["a"])


# --- forest construction -------------------------------------------------------


def test_build_forest_shapes():
    model = random_ultrametric(2, 2, 0)
    delta = [growth_formula("lca-ball", 1)]
    single = build_forest([(0, 1)], delta, model)
    assert single.n_nodes == 1 and single.n_classes == 1

    chain = forest_from_extents([frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})])
    assert chain.n_classes == 3
    assert chain.class_leq[2][0] and not chain.class_leq[0][2]  # bigger ball sits below

    # two parameter pairs with the same lca give equal balls: 2 raw, 1 class
    model = random_ultrametric(4, 2, 3)
    dup = build_forest([(0, 1), (1, 0)], delta, model)
    assert dup.n_nodes == 2 and dup.n_classes == 1


def test_build_forest_rejects_crossing_instances():
    crossing = SetFamily.of(3, [{0, 1}, {1, 2}])

    from laminarvc.setsystem import ParametrizedFormula

    # row p of the membership matrix holds set p
    rows = np.array([[x in s for x in range(3)] for s in crossing.sets])
    member = ParametrizedFormula("member", 1, 1, lambda M, objs, p: rows[p[0], objs[:, 0]])

    class Carrier:
        size = 3

    with pytest.raises(DomainError):
        build_forest([(0,), (1,)], [member], Carrier())


def test_crossing_witness_on_classes_is_the_first_raw_crossing():
    # build_forest scans the distinct rows of its sign matrix only; mapped
    # through each class's least node, its witness is the first crossing
    # pair of all the rows, repeats included
    rng = Random(29)
    row = ParametrizedFormula("row", 1, 1, None)  # never evaluated: the rows are given
    crossing = 0
    for _ in range(200):
        for family in random_families(rng):
            pool = family.member
            if not len(pool):
                continue
            rows = pool[[rng.randrange(len(pool)) for _ in range(rng.randint(1, 2 * len(pool)))]]
            want = first_crossing(rows)
            if want is None:
                continue
            with pytest.raises(DomainError) as err:
                build_forest([(i,) for i in range(len(rows))], [row], None, rows)
            assert str(err.value) == (
                f"instance family is not directed: instances ({want.i}, 0) and ({want.j}, 0) cross"
            )
            crossing += 1
    assert crossing > 150


def test_forest_chain_condition_guard():
    # {0, 1} and {0, 2} both contain {0}, so both sit below it, incomparable
    with pytest.raises(ValidationError, match="incomparable below 0"):
        forest_from_extents([frozenset({0}), frozenset({0, 1}), frozenset({0, 2})])


def test_empty_extent_is_named_when_it_breaks_the_chain_condition():
    # x = y for y > 0: the extent at parameter 0 is empty, and it sits above
    # the disjoint points {1} and {2}
    from laminarvc.setsystem import ParametrizedFormula

    point = ParametrizedFormula(
        "point-above-0", 1, 1, lambda M, objs, p: (objs[:, 0] == p[0]) & (p[0] > 0)
    )
    with pytest.raises(DomainError, match=r"instance \(0, 0\) has an empty extent"):
        build_forest([(0,), (1,), (2,)], [point], OrderModel(6))
    with pytest.raises(DomainError, match="instance 1 has an empty extent"):
        forest_from_extents([frozenset({0}), frozenset(), frozenset({1}), frozenset()])
    # above a chain the empty node is kept: it counts as a raw node
    chain = build_forest([(0,), (1,)], [point], OrderModel(6))
    assert chain.n_nodes == 2 and chain.n_classes == 2
    assert chain.class_leq[1][0] and not chain.class_leq[0][1]


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


def random_preorder(rng, n):
    """The reflexive-transitive closure of a sparse random relation on n
    nodes, by Warshall's loops."""
    leq = [[i == j or rng.random() < 0.15 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                leq[i] = [x or y for x, y in zip(leq[i], leq[k])]
    return leq


def validate_message(labels, leq):
    try:
        QuasiForest.from_preorder(labels, leq).validate()
    except ValidationError as e:
        return str(e)
    return None


def test_validate_names_first_failing_axiom():
    # the chain condition's witness, its two classes and the class above
    # them, is checked against the brute-force loops of scalar_oracle
    rng = Random(11)
    transitivity = chains = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        density = rng.random()
        leq = [[rng.random() < density for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.9:
            for i in range(n):
                leq[i][i] = True
        want = first_axiom_failure(leq) or oracle.chain_failure(leq, range(n))
        assert validate_message(range(n), leq) == want
        transitivity += want is not None and want.startswith("transitivity")
        chains += want is not None and want.startswith("forest chain")
    # preorders fail only the chain condition; labels name the classes
    passed = 0
    for _ in range(600):
        n = rng.randint(1, 9)
        leq = random_preorder(rng, n)
        labels = [f"v{i}" for i in range(n)]
        want = oracle.chain_failure(leq, labels)
        assert validate_message(labels, leq) == want
        chains += want is not None
        passed += want is None
    assert transitivity > 500 and chains > 150 and passed > 300


# --- tree of types -------------------------------------------------------------


def test_type_tree_chain_and_disjoint():
    chain = forest_from_extents([frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0})])
    tt = type_tree(chain)
    assert len(tt.nodes) == 4
    sizes = sorted(len(p) for p in tt.nodes)
    assert sizes == [0, 1, 2, 3]

    two = forest_from_extents([frozenset({0}), frozenset({1})])
    tt2 = type_tree(two)
    assert set(tt2.nodes) == {frozenset(), frozenset({0}), frozenset({1})}


def test_type_tree_balanced_binary_iso():
    f = forest_from_extents(balanced_binary_extents())
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


E, A, B, C = frozenset(), frozenset({0}), frozenset({1}), frozenset({2})


@pytest.mark.parametrize("nodes, message", [
    ((E, A, A), "type tree nodes must be distinct"),
    ((A, A | B), "type tree must contain the empty type"),
    # {0, 1} and {0, 2} meet in {0}, which is not a node
    ((E, A | B, A | C), "type tree is not meet-closed"),
    # {0} and {1} meet in the empty type, but both lie below {0, 1}
    ((E, A, B, A | B), "type tree has a node with incomparable subsets"),
])
def test_type_tree_rejects_each_broken_axiom(nodes, message):
    # the checks of the reference lattice, which type_tree must match
    with pytest.raises(ValueError, match=message):
        oracle.lattice(nodes)


def test_type_tree_accepts_a_hand_built_tree():
    # {0} below {0, 1}, and {2} beside them
    parent, children = oracle.lattice((E, A, C, A | B))
    assert parent == (-1, 0, 0, 1)
    assert children == ((1, 2), (3,), (), ())
    tt = TypeTree((E, A, C, A | B), parent, 3)
    assert tt.root == 0 and tt.children == children
    assert tt.dist(A | B, C) == 3


def assert_matches_oracle(forest, leq):
    """The forest's quotient, class order and tree of types are the scalar
    oracle's, for the oracle's order leq (lists of bools); returns the least
    node of each class."""
    cls = oracle.class_of(leq)
    reps = [cls.index(c) for c in range(max(cls, default=-1) + 1)]
    assert forest.class_of.tolist() == cls
    assert forest.reps.tolist() == reps
    assert forest.class_leq.tolist() == [[leq[a][b] for b in reps] for a in reps]
    assert forest.class_leq[np.ix_(forest.class_of, forest.class_of)].tolist() == leq
    tree = type_tree(forest)
    assert (tree.nodes, tree.parent, tree.children) == oracle.type_tree(leq)
    return reps


def test_matrix_forests_match_the_scalar_oracle():
    rng = Random(19)
    with_empty = rejected = 0
    for _ in range(300):
        model = random_ultrametric(rng.randint(2, 40), rng.randint(2, 4), rng.randrange(1 << 20))
        # balls with repeats, and now and then one or two empty extents
        extents = [model.ball(rng.randrange(model.n_nodes)) for _ in range(rng.randint(1, 16))]
        extents += rng.choices(extents, k=rng.randint(0, 4))
        extents += [frozenset()] * rng.choice((0, 0, 1, 2))
        rng.shuffle(extents)
        leq = oracle.extent_leq(extents)
        failure = oracle.chain_failure(leq, range(len(extents)))
        if failure is not None:
            # an empty extent sits above two disjoint balls
            with pytest.raises(DomainError, match="has an empty extent"):
                forest_from_extents(extents)
            rejected += 1
        else:
            assert_matches_oracle(forest_from_extents(extents), leq)
            # the same order read as a psi-type, one formula per node
            assert_matches_oracle(forest_from_type(np.array(leq), range(len(leq)), 1), leq)
            with_empty += frozenset() in extents
        # lca-ball instances, their extents walked by the oracle's tree
        C = [(rng.randrange(model.size), rng.randrange(model.size)) for _ in range(rng.randint(1, 8))]
        built = build_forest(C, [growth_formula("lca-ball", 1)], model)
        leq = oracle.extent_leq([oracle.positive_part("lca-ball", model, *c) for c in C])
        reps = assert_matches_oracle(built, leq)
        generics = [bytes(leq[j][r] for j in range(len(C))) for r in reps] + [bytes(len(C))]
        assert virtual_space_from_forest(built, len(C), 1).entries == tuple(generics)
    assert with_empty >= 10 and rejected > 100
    # forests read off psi-types
    for n, m in ((8, 2), (14, 4), (20, 6)):
        instance = dlo_instance(n)
        B = sorted(rng.sample(range(n), m))
        for a1 in range(n):
            p = psi_type(instance.psi_family, a1, B)
            assert_matches_oracle(forest_from_type(p, B, 2), p.tolist())


def test_quotient_partitions_and_class_order_antisymmetric():
    rng = Random(6)
    for _ in range(30):
        forest = random_ball_forest(rng)
        assert sorted(set(forest.class_of.tolist())) == list(range(forest.n_classes))
        for a in range(forest.n_classes):
            for b in range(forest.n_classes):
                if a != b:
                    assert not (forest.class_leq[a][b] and forest.class_leq[b][a])
        for c in range(forest.n_classes):
            down = np.flatnonzero(forest.class_leq[:, c])
            for x in down:
                for y in down:
                    assert forest.class_leq[x][y] or forest.class_leq[y][x]


# --- convex order ---------------------------------------------------------------


def test_convex_order_chain_is_inclusion_order():
    chain = forest_from_extents([frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0})])
    order = convex_order(type_tree(chain))
    sizes = [len(order.tree.nodes[i]) for i in order.sequence]
    assert sizes == [0, 1, 2, 3]


def test_convex_order_sibling_rule():
    two = forest_from_extents([frozenset({0}), frozenset({1})])
    tt = type_tree(two)
    a = tt.index[frozenset({0})]
    b = tt.index[frozenset({1})]
    fwd = convex_order(tt, sibling_orders={tt.root: [a, b]})
    assert list(fwd.sequence) == [tt.root, a, b]
    rev = convex_order(tt, sibling_orders={tt.root: [b, a]})
    assert list(rev.sequence) == [tt.root, b, a]


def test_convex_order_extends_inclusion_and_is_convex():
    f = forest_from_extents(balanced_binary_extents())
    tt = type_tree(f)
    order = convex_order(tt)
    assert check_convexity(order)
    for p in tt.nodes:
        for q in tt.nodes:
            if p < q:
                assert order.position[tt.index[p]] < order.position[tt.index[q]]


def test_convex_order_bad_sibling_orders():
    tt = type_tree(forest_from_extents([frozenset({0}), frozenset({1})]))
    with pytest.raises(DomainError):
        convex_order(tt, sibling_orders={tt.root: [tt.root]})


def test_adversarial_order_breaks_convexity():
    # interleave the two depth-1 subtrees of the balanced tree
    f = forest_from_extents(balanced_binary_extents())
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
    shuffle = Random(f"sibling-orders/{seed}")
    orders = {}
    for i, kids in enumerate(tt.children):
        orders[i] = list(kids)
        shuffle.shuffle(orders[i])
    assert check_convexity(convex_order(tt, sibling_orders=orders))


# --- diff / dist / sum-dist ------------------------------------------------------


def test_diff_dist_basics():
    f = forest_from_extents(balanced_binary_extents())
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
    tt = type_tree(forest_from_extents([frozenset({0})]))
    with pytest.raises(DomainError):
        tt.dist(frozenset({41}), frozenset())


def test_sum_dist_balanced_binary():
    # hand enumeration of the depth-2 binary tree gives total distance 11
    f = forest_from_extents(balanced_binary_extents())
    order = convex_order(type_tree(f))
    rep = sum_dist_check(order)
    assert (rep.total, rep.bound, rep.ok) == (11, 14, True)


def test_sum_dist_singleton_sequence():
    f = forest_from_extents(balanced_binary_extents())
    order = convex_order(type_tree(f))
    rep = sum_dist_check(order, [frozenset()])
    assert rep.total == 0 and rep.ok


def test_sum_dist_rejects_non_increasing():
    f = forest_from_extents(balanced_binary_extents())
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
        "node-ball", 1, 1, lambda M, objs, p: M.ball_bool[p[0], objs[:, 0]]
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


def test_lca_ball_forest_of_the_directed_suite_matches_the_sign_matrix_forest():
    # the directed suite reads its virtual space off the lca nodes' ranges;
    # built from the sign matrix instead, the forest and the space are equal
    rng = Random(41)
    delta = [growth_formula("lca-ball", 1)]
    for _ in range(60):
        model = random_ultrametric(rng.randint(4, 64), rng.randint(2, 4), rng.randrange(1 << 20))
        C = [(rng.randrange(model.size), rng.randrange(model.size)) for _ in range(rng.randint(1, 32))]
        forest = verify_module._lca_ball_forest(model, C)
        assert forest.same_order(build_forest(C, delta, model))
        assert virtual_space_from_forest(forest, len(C), 1) == virtual_type_space(C, delta, model)


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
