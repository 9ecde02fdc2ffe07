"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from random import Random

from laminarvc import dlo_instance, incremental_count_check, type_space
from laminarvc.harness import ExperimentConfig, run_growth
from laminarvc.models import OrderModel, growth_formula
from laminarvc.verify import (
    verify_components,
    verify_convexity,
    verify_determination,
    verify_directed_linear_bound,
    verify_incremental,
    verify_sauer,
    verify_sum_dist,
)

SEED = 11
GROWTH_SEED = 7


def _report(n, ok, detail):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_directedness_and_linear_bound():
    t0 = time.time()
    rep = verify_directed_linear_bound(SEED, trials=500, max_leaves=64, max_params=32)
    elapsed = time.time() - t0
    _report(1, rep.failures == 0 and elapsed < 30,
            f"500 ultrametric trials, failures={rep.failures}, {elapsed:.1f}s")


def test_criterion_2_convexity():
    t0 = time.time()
    rep = verify_convexity(SEED, trials=1000)
    elapsed = time.time() - t0
    _report(2, rep.failures == 0 and elapsed < 30,
            f"1000 forests, failures={rep.failures}, {elapsed:.1f}s")


def test_criterion_3_sum_of_distances():
    rep = verify_sum_dist(SEED, trials=1000)
    _report(3, rep.failures == 0, f"1000 forests, failures={rep.failures}")


def test_criterion_4_sauer_shelah():
    rep = verify_sauer(SEED, trials=1000, max_universe=14, max_sets=20)
    _report(4, rep.failures == 0, f"1000 families, failures={rep.failures}")


def test_criterion_5_components_canonicity():
    rep = verify_components(SEED, trials=500)
    _report(5, rep.failures == 0, f"500 targets, failures={rep.failures}")


def test_criterion_6_forest_and_type_determination():
    t0 = time.time()
    rep = verify_determination(SEED, carrier_sizes=(5, 9, 14, 20), b_sizes=(2, 4, 6))
    elapsed = time.time() - t0
    _report(6, rep.failures == 0 and elapsed < 60,
            f"{rep.trials} exhaustive configs, failures={rep.failures}, {elapsed:.1f}s")


def test_criterion_7_incremental_count():
    ok = True
    details = []
    for m in (4, 8, 16):
        inst = dlo_instance(3 * m)
        B = sorted(Random(f"{SEED}/fullvcmin/{m}").sample(range(inst.carrier.size), m))
        rep = incremental_count_check(inst, B)
        expected_bound = 2 * m * m * 2 + m * 2 + 1
        ok = ok and rep.per_step_ok and rep.aggregate_ok and rep.sum_dist_ok
        ok = ok and rep.containment_ok and rep.aggregate_bound == expected_bound
        details.append(f"|B|={m}: union={rep.union_size}<={rep.aggregate_bound}")
    assert verify_incremental(SEED).failures == 0
    _report(7, ok, "; ".join(details))


def test_criterion_8_linear_growth_single_ball():
    rep = run_growth(ExperimentConfig("lca-ball", 1, (8, 16, 32, 64), trials=5, seed=GROWTH_SEED))
    _report(8, rep.median_exponent <= 1.10,
            f"k=1 median exponent {rep.median_exponent:.3f} <= 1.10")


def test_criterion_9_quadratic_growth_uball_corpus():
    t0 = time.time()
    sizes = (8, 16, 32, 64, 128, 256)
    medians = {}
    for kind in ("lca-ball", "twin-ball-0", "twin-ball-1", "twin-ball-2", "boolean-mix"):
        rep = run_growth(ExperimentConfig(kind, 2, sizes, trials=5, seed=GROWTH_SEED))
        medians[kind] = rep.median_exponent
    elapsed = time.time() - t0
    ok = all(v <= 2.15 for v in medians.values()) and elapsed < 300
    summary = ", ".join(f"{k}={v:.3f}" for k, v in medians.items())
    _report(9, ok, f"k=2 medians {summary}; {elapsed:.0f}s < 300s")


def test_criterion_10_lower_bound_witness():
    # exact counts for small m against an independent brute-force oracle
    eq = growth_formula("pair-equality", 2)
    exact_ok = True
    for m in range(2, 11):
        carrier = OrderModel(24)
        B = sorted(Random(f"{SEED}/witness/{m}").sample(range(24), m))
        got = type_space([eq], [(b,) for b in B], carrier, 2).count
        brute = len({
            tuple(x0 == b or x1 == b for b in B)
            for x0 in range(24)
            for x1 in range(24)
        })
        expected = 1 + m + math.comb(m, 2)
        exact_ok = exact_ok and got == brute == expected

    rep = run_growth(
        ExperimentConfig("pair-equality", 2, (8, 16, 32, 64, 128, 256), trials=5, seed=GROWTH_SEED)
    )
    _report(10, exact_ok and rep.median_exponent >= 1.85,
            f"exact counts for m=2..10; fitted exponent {rep.median_exponent:.3f} >= 1.85")
