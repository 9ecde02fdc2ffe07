"""Seeded verification suites for the counting and ordering lemmas.

Each suite draws reproducible random instances at the scales the acceptance
criteria pin down and counts failures; the CLI and the acceptance tests both
run through these entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random

from .forest import (
    ComponentsFailure,
    DirectedFamily,
    check_directed,
    build_forest,
    check_convexity,
    components,
    convex_order,
    forest_from_extents,
    sum_dist_check,
    type_tree,
    virtual_type_space,
)
from .fullvcmin import (
    dlo_instance,
    forest_from_type,
    incremental_count_check,
    p_virtual_space,
    psi_type,
)
from .models import ball_family, growth_formula, random_ultrametric
from .setsystem import SetFamily, sauer_check, type_space


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    trials: int
    failures: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _random_forest(rng: Random, max_nodes: int = 12):
    """A random quasi-forest of ultrametric balls, duplicates allowed so the
    quotient is exercised."""
    leaves = rng.randint(2, 8)
    model = random_ultrametric(leaves, rng.randint(2, 4), rng.randrange(1 << 30))
    n = rng.randint(1, max_nodes)
    chosen = [rng.randrange(model.n_nodes) for _ in range(n)]
    extents = [model.ball(v) for v in chosen]
    return forest_from_extents(extents, model.size, labels=tuple(enumerate(chosen)))


def verify_directed_linear_bound(seed: int, trials: int = 500,
                                 max_leaves: int = 64, max_params: int = 32) -> LemmaReport:
    """Ball families are directed and realized type counts over them stay
    within |delta|*|C| + 1, with every realized type among the virtual ones."""
    failures = 0
    for t in range(trials):
        rng = Random(f"{seed}/linear/{t}")
        model = random_ultrametric(
            rng.randint(4, max_leaves), rng.randint(2, 4), rng.randrange(1 << 30)
        )
        fam = ball_family(model)
        if not isinstance(check_directed(fam.base), DirectedFamily):
            failures += 1
            continue
        delta = [growth_formula("lca-ball", 1)]
        n_params = rng.randint(1, max_params)
        C = [
            (rng.randrange(model.size), rng.randrange(model.size))
            for _ in range(n_params)
        ]
        realized = type_space(delta, C, model, 1)
        virtual = virtual_type_space(C, delta, model)
        if realized.count > len(delta) * len(C) + 1:
            failures += 1
        elif not realized.vector_set() <= virtual.entry_set():
            failures += 1
        elif virtual.count > len(delta) * len(C) + 1:
            failures += 1
    return LemmaReport("directedness+linear-bound", trials, failures)


def verify_convexity(seed: int, trials: int = 1000) -> LemmaReport:
    """Default-ordered convex orders keep every ball's type set an interval
    and extend inclusion."""
    failures = 0
    for t in range(trials):
        rng = Random(f"{seed}/convex/{t}")
        forest = _random_forest(rng)
        tree = type_tree(forest)
        order = convex_order(tree)
        if not check_convexity(order):
            failures += 1
            continue
        ok = True
        for p in tree.nodes:
            for q in tree.nodes:
                if p < q and order.position[tree.index[p]] >= order.position[tree.index[q]]:
                    ok = False
        if not ok:
            failures += 1
    return LemmaReport("convex-ordering", trials, failures)


def verify_sum_dist(seed: int, trials: int = 1000, subsequences: int = 3) -> LemmaReport:
    """Summed consecutive distances along the full convex enumeration (and
    along random subsequences) stay within twice the raw forest size."""
    failures = 0
    for t in range(trials):
        rng = Random(f"{seed}/sumdist/{t}")
        if t % 4 == 0:
            # the params x formulas form, so the bound reads 2|C||Delta|
            model = random_ultrametric(rng.randint(2, 8), rng.randint(2, 4), rng.randrange(1 << 30))
            C = [
                (rng.randrange(model.size), rng.randrange(model.size))
                for _ in range(rng.randint(1, 6))
            ]
            delta = [growth_formula("lca-ball", 1)]
            forest = build_forest(C, delta, model)
        else:
            forest = _random_forest(rng)
        tree = type_tree(forest)
        order = convex_order(tree)
        full = sum_dist_check(order)
        if not full.ok:
            failures += 1
            continue
        nodes_in_order = [tree.nodes[i] for i in order.sequence]
        for _ in range(subsequences):
            k = rng.randint(1, len(nodes_in_order))
            idxs = sorted(rng.sample(range(len(nodes_in_order)), k))
            sub = [nodes_in_order[i] for i in idxs]
            if not sum_dist_check(order, sub).ok:
                failures += 1
                break
    return LemmaReport("sum-of-distances", trials, failures)


def verify_sauer(seed: int, trials: int = 1000,
                 max_universe: int = 14, max_sets: int = 20) -> LemmaReport:
    failures = 0
    for t in range(trials):
        rng = Random(f"{seed}/sauer/{t}")
        n = rng.randint(1, max_universe)
        k_sets = rng.randint(1, max_sets)
        sets = []
        for _ in range(k_sets):
            mask = rng.getrandbits(n)
            sets.append(frozenset(i for i in range(n) if mask >> i & 1))
        fam = SetFamily.of(n, sets)
        if not sauer_check(fam):
            failures += 1
    return LemmaReport("sauer-shelah", trials, failures)


def verify_components(seed: int, trials: int = 500) -> LemmaReport:
    """Decompositions of <=3-ball unions: exact cover, brute-force minimal
    length, and invariance under pool permutation."""
    failures = 0
    for t in range(trials):
        rng = Random(f"{seed}/components/{t}")
        model = random_ultrametric(rng.randint(4, 16), rng.randint(2, 4), rng.randrange(1 << 30))
        pool = ball_family(model)
        picks = [rng.randrange(model.n_nodes) for _ in range(rng.randint(1, 3))]
        target = frozenset().union(*(model.ball(v) for v in picks))
        result = components(target, pool)
        if isinstance(result, ComponentsFailure):
            failures += 1
            continue
        if frozenset().union(*result) != target:
            failures += 1
            continue
        distinct = sorted(set(pool.sets) - {frozenset()}, key=lambda s: (min(s), len(s)))
        brute_min = None
        for size in range(1, 4):
            for combo in combinations(distinct, size):
                if frozenset().union(*combo) == target:
                    brute_min = size
                    break
            if brute_min is not None:
                break
        if brute_min is None or len(result) != brute_min:
            failures += 1
            continue
        shuffled = list(pool.sets)
        rng.shuffle(shuffled)
        permuted = DirectedFamily(SetFamily(pool.base.universe, tuple(shuffled)))
        if components(target, permuted) != result:
            failures += 1
    return LemmaReport("components-canonicity", trials, failures)


def verify_determination(seed: int, carrier_sizes=(5, 9, 14, 20), b_sizes=(2, 4, 6)) -> LemmaReport:
    """On the built-in linear-order instance: equal psi-types give identical
    forests (read off the type and rebuilt from extents), and every realized
    one-variable type lands in the matching virtual space."""
    failures = 0
    trials = 0
    for n in carrier_sizes:
        instance = dlo_instance(n)
        family = instance.psi_family
        for m in b_sizes:
            if m > n:
                continue
            trials += 1
            B = sorted(Random(f"{seed}/det/{n}/{m}").sample(range(n), m))
            groups: dict[bytes, list[int]] = {}
            types = {}
            for a1 in range(n):
                p = psi_type(family, a1, B)
                key = p.tobytes()
                groups.setdefault(key, []).append(a1)
                types[key] = p
            ok = True
            for key, members in groups.items():
                read_off = forest_from_type(types[key], B, len(instance.delta0))
                virtual = p_virtual_space(types[key], B, len(instance.delta0))
                built = [
                    build_forest([(a1, b) for b in B], instance.delta0, instance.carrier)
                    for a1 in members
                ]
                if any(not read_off.same_order(f) for f in built):
                    ok = False
                for a1 in members:
                    realized = type_space(
                        instance.delta0, [(a1, b) for b in B], instance.carrier, 1
                    )
                    if not realized.vector_set() <= virtual.entry_set():
                        ok = False
            if not ok:
                failures += 1
    return LemmaReport("forest+type-determination", trials, failures)


def verify_incremental(seed: int, b_sizes=(4, 8, 16)) -> LemmaReport:
    failures = 0
    for m in b_sizes:
        instance = dlo_instance(3 * m)
        B = sorted(Random(f"{seed}/fullvcmin/{m}").sample(range(instance.carrier.size), m))
        report = incremental_count_check(instance, B)
        if not report.all_ok:
            failures += 1
    return LemmaReport("incremental-count", len(b_sizes), failures)


def run_all(seed: int, trials: int = 1000) -> list[LemmaReport]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    half = max(1, trials // 2)
    return [
        verify_directed_linear_bound(seed, trials=half),
        verify_convexity(seed, trials=trials),
        verify_sum_dist(seed, trials=trials),
        verify_sauer(seed, trials=trials),
        verify_components(seed, trials=half),
        verify_determination(seed),
        verify_incremental(seed),
    ]
