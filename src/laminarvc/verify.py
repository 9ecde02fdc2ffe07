"""Seeded verification suites for the counting and ordering lemmas.

Each suite draws reproducible random instances at the scales the acceptance
criteria pin down and counts failures; the CLI and the acceptance tests both
run through these entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random

import numpy as np

from .forest import (
    ComponentsFailure,
    DirectedFamily,
    build_forest,
    check_convexity,
    components,
    convex_order,
    first_range_crossing,
    forest_from_ranges,
    sum_dist_check,
    type_tree,
    virtual_space_from_forest,
)
from .fullvcmin import dlo_instance, forest_from_type, incremental_count_check, psi_type
from .models import ball_family, growth_formula, random_ultrametric
from .setsystem import SetFamily, sauer_check, sign_matrix, type_space


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    trials: int
    failures: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0


class _Failures:
    """Failure count of a suite, and the first failure's RNG key and
    witness: LemmaReport.detail reads "<key>: <witness>"."""

    def __init__(self):
        self.count = 0
        self.detail = ""

    def add(self, key: str, witness: str) -> None:
        if not self.count:
            self.detail = f"{key}: {witness}"
        self.count += 1

    def report(self, lemma: str, trials: int) -> LemmaReport:
        return LemmaReport(lemma, trials, self.count, self.detail)


def _random_forest(rng: Random, max_nodes: int = 12):
    """A random quasi-forest of ultrametric balls, duplicates allowed so the
    quotient is exercised."""
    leaves = rng.randint(2, 8)
    model = random_ultrametric(leaves, rng.randint(2, 4), rng.randrange(1 << 30))
    n = rng.randint(1, max_nodes)
    chosen = [rng.randrange(model.n_nodes) for _ in range(n)]
    return forest_from_ranges(model.lo[chosen], model.hi[chosen], tuple(enumerate(chosen)))


def _lca_ball_forest(model, C):
    """The forest build_forest gives the lca-ball instances at the
    parameters C, labelled (param index, 0), read off the lca nodes' ranges."""
    v = model.lca_of(*np.array(C).T)
    return forest_from_ranges(model.lo[v], model.hi[v], [(ci, 0) for ci in range(len(C))])


def verify_directed_linear_bound(seed: int, trials: int = 500,
                                 max_leaves: int = 64, max_params: int = 32) -> LemmaReport:
    """Ball families are directed and realized type counts over them stay
    within |delta|*|C| + 1, with every realized type among the virtual ones."""
    fails = _Failures()
    for t in range(trials):
        key = f"{seed}/linear/{t}"
        rng = Random(key)
        model = random_ultrametric(
            rng.randint(4, max_leaves), rng.randint(2, 4), rng.randrange(1 << 30)
        )
        crossing = first_range_crossing(model.lo, model.hi)  # ball(v)'s ranks
        if crossing is not None:
            fails.add(key, f"balls {crossing.i} and {crossing.j} of {model.label} cross")
            continue
        delta = [growth_formula("lca-ball", 1)]
        n_params = rng.randint(1, max_params)
        C = [
            (rng.randrange(model.size), rng.randrange(model.size))
            for _ in range(n_params)
        ]
        # the realized types are the columns of the sign matrix, one per
        # element; the virtual ones come from the lca nodes' ranges
        signs = sign_matrix(delta, C, model, np.arange(model.size)[:, None])
        realized = {col.tobytes() for col in np.ascontiguousarray(signs.T).view(np.uint8)}
        virtual = virtual_space_from_forest(_lca_ball_forest(model, C), len(C), len(delta))
        bound = len(delta) * len(C) + 1
        if len(realized) > bound:
            fails.add(key, f"{len(realized)} realized types > {bound}")
        elif not realized <= virtual.entry_set():
            stray = min(realized - virtual.entry_set())
            fails.add(key, f"realized type {stray.hex()} is not virtual")
        elif virtual.count > bound:
            fails.add(key, f"{virtual.count} virtual types > {bound}")
    return fails.report("directedness+linear-bound", trials)


def verify_convexity(seed: int, trials: int = 1000) -> LemmaReport:
    """Default-ordered convex orders keep every ball's type set an interval
    and extend inclusion."""
    fails = _Failures()
    for t in range(trials):
        key = f"{seed}/convex/{t}"
        rng = Random(key)
        forest = _random_forest(rng)
        tree = type_tree(forest)
        order = convex_order(tree)
        if not check_convexity(order):
            fails.add(key, "some ball's types are not an interval of the order")
            continue
        broken = [
            (p, q) for p in tree.nodes for q in tree.nodes
            if p < q and order.position[tree.index[p]] >= order.position[tree.index[q]]
        ]
        if broken:
            p, q = broken[0]
            fails.add(key, f"type {sorted(p)} is placed after its superset {sorted(q)}")
    return fails.report("convex-ordering", trials)


def verify_sum_dist(seed: int, trials: int = 1000, subsequences: int = 3) -> LemmaReport:
    """Summed consecutive distances along the full convex enumeration (and
    along random subsequences) stay within twice the raw forest size."""
    fails = _Failures()
    for t in range(trials):
        key = f"{seed}/sumdist/{t}"
        rng = Random(key)
        if t % 4 == 0:
            # the params x formulas form, so the bound reads 2|C||Delta|
            model = random_ultrametric(rng.randint(2, 8), rng.randint(2, 4), rng.randrange(1 << 30))
            C = [
                (rng.randrange(model.size), rng.randrange(model.size))
                for _ in range(rng.randint(1, 6))
            ]
            forest = _lca_ball_forest(model, C)
        else:
            forest = _random_forest(rng)
        tree = type_tree(forest)
        order = convex_order(tree)
        full = sum_dist_check(order)
        if not full.ok:
            fails.add(key, f"full enumeration: distance sum {full.total} > {full.bound}")
            continue
        nodes_in_order = [tree.nodes[i] for i in order.sequence]
        for _ in range(subsequences):
            k = rng.randint(1, len(nodes_in_order))
            idxs = sorted(rng.sample(range(len(nodes_in_order)), k))
            sub = [nodes_in_order[i] for i in idxs]
            part = sum_dist_check(order, sub)
            if not part.ok:
                fails.add(key, f"subsequence {idxs}: distance sum {part.total} > {part.bound}")
                break
    return fails.report("sum-of-distances", trials)


def verify_sauer(seed: int, trials: int = 1000,
                 max_universe: int = 14, max_sets: int = 20) -> LemmaReport:
    fails = _Failures()
    for t in range(trials):
        key = f"{seed}/sauer/{t}"
        rng = Random(key)
        n = rng.randint(1, max_universe)
        k_sets = rng.randint(1, max_sets)
        sets = []
        for _ in range(k_sets):
            mask = rng.getrandbits(n)
            sets.append(frozenset(i for i in range(n) if mask >> i & 1))
        fam = SetFamily.of(n, sets)
        if not sauer_check(fam):
            fails.add(key, f"sets {[sorted(s) for s in sets]} over {n} elements")
    return fails.report("sauer-shelah", trials)


def verify_components(seed: int, trials: int = 500) -> LemmaReport:
    """Decompositions of <=3-ball unions: exact cover, brute-force minimal
    length, and invariance under pool permutation."""
    fails = _Failures()
    for t in range(trials):
        key = f"{seed}/components/{t}"
        rng = Random(key)
        model = random_ultrametric(rng.randint(4, 16), rng.randint(2, 4), rng.randrange(1 << 30))
        pool = ball_family(model)
        picks = [rng.randrange(model.n_nodes) for _ in range(rng.randint(1, 3))]
        target = frozenset().union(*(model.ball(v) for v in picks))
        result = components(target, pool)
        if isinstance(result, ComponentsFailure):
            fails.add(key, f"target {sorted(target)}: point {result.uncovered} is not covered")
            continue
        if frozenset().union(*result) != target:
            covered = sorted(frozenset().union(*result))
            fails.add(key, f"target {sorted(target)}: components cover {covered}")
            continue
        # a union equals the target only if each of its sets lies inside it
        distinct = sorted(
            {s for s in pool.sets if s and s <= target}, key=lambda s: (min(s), len(s))
        )
        brute_min = None
        for size in range(1, 4):
            for combo in combinations(distinct, size):
                if frozenset().union(*combo) == target:
                    brute_min = size
                    break
            if brute_min is not None:
                break
        if brute_min is None or len(result) != brute_min:
            fails.add(
                key, f"target {sorted(target)}: {len(result)} components, brute force {brute_min}"
            )
            continue
        shuffled = list(pool.sets)
        rng.shuffle(shuffled)
        permuted = DirectedFamily(SetFamily(pool.base.universe, tuple(shuffled)))
        if components(target, permuted) != result:
            fails.add(key, f"target {sorted(target)}: a shuffled pool gives other components")
    return fails.report("components-canonicity", trials)


def verify_determination(seed: int, carrier_sizes=(5, 9, 14, 20), b_sizes=(2, 4, 6)) -> LemmaReport:
    """On the built-in linear-order instance: equal psi-types give identical
    forests (read off the type and rebuilt from extents), and every realized
    one-variable type lands in the matching virtual space."""
    fails = _Failures()
    trials = 0
    for n in carrier_sizes:
        instance = dlo_instance(n)
        family = instance.psi_family
        for m in b_sizes:
            if m > n:
                continue
            trials += 1
            trial_key = f"{seed}/det/{n}/{m}"
            B = sorted(Random(trial_key).sample(range(n), m))
            groups: dict[bytes, list[int]] = {}
            types = {}
            for a1 in range(n):
                p = psi_type(family, a1, B)
                key = p.tobytes()
                groups.setdefault(key, []).append(a1)
                types[key] = p
            witnesses = []
            for key, members in groups.items():
                read_off = forest_from_type(types[key], B, len(instance.delta0))
                virtual = virtual_space_from_forest(read_off, len(B), len(instance.delta0))
                for a1 in members:
                    built = build_forest([(a1, b) for b in B], instance.delta0, instance.carrier)
                    if not read_off.same_order(built):
                        witnesses.append(f"a1={a1}: its forest is not the one its psi-type gives")
                for a1 in members:
                    realized = type_space(
                        instance.delta0, [(a1, b) for b in B], instance.carrier, 1
                    )
                    if not realized.vector_set() <= virtual.entry_set():
                        witnesses.append(f"a1={a1}: a realized type is not virtual")
            if witnesses:
                fails.add(trial_key, f"B={B}, {witnesses[0]}")
    return fails.report("forest+type-determination", trials)


def verify_incremental(seed: int, b_sizes=(4, 8, 16)) -> LemmaReport:
    fails = _Failures()
    for m in b_sizes:
        key = f"{seed}/fullvcmin/{m}"
        instance = dlo_instance(3 * m)
        B = sorted(Random(key).sample(range(instance.carrier.size), m))
        report = incremental_count_check(instance, B)
        if not report.all_ok:
            broken = [
                name for name in ("per_step_ok", "sum_dist_ok", "aggregate_ok", "containment_ok")
                if not getattr(report, name)
            ]
            fails.add(key, f"B={B}, {' and '.join(broken)} false")
    return fails.report("incremental-count", len(b_sizes))


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
