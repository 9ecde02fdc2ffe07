import hashlib
from dataclasses import asdict
from random import Random

import numpy as np
import pytest
from scalar_oracle import dlo_psi

from laminarvc import (
    DomainError,
    FullVCMinInstance,
    PsiFamily,
    ValidationError,
    build_forest,
    convex_order,
    dlo_instance,
    eval_psi,
    forest_from_type,
    incremental_count_check,
    p_virtual_space,
    psi_type,
    type_space,
    type_tree,
    validate_certificate,
)
from laminarvc.models import OrderModel
from laminarvc.setsystem import ParametrizedFormula, sign_matrix


# the linear-order semantics of dlo_instance's delta0, (x0; x1, y) -> bool
DLO_DELTA0 = {"before-x1": lambda x0, x1, y: x0 < x1, "before-y": lambda x0, x1, y: x0 < y}


def brute_psi(instance, a1, b, bp, i, j):
    # independent full-scan oracle over the order semantics of the formulas
    di, dj = (DLO_DELTA0[instance.delta0[k].name] for k in (i, j))
    return all(di(x0, a1, b) for x0 in range(instance.carrier.size) if dj(x0, a1, bp))


# --- psi evaluation ------------------------------------------------------------


def test_eval_psi_reflexive():
    fam = dlo_instance(10).psi_family
    for a1 in (0, 4, 9):
        for b in (1, 7):
            assert eval_psi(fam, a1, b, b, 0, 0)
            assert eval_psi(fam, a1, b, b, 1, 1)


def test_eval_psi_vacuous_on_empty_instance():
    fam = dlo_instance(10).psi_family
    # delta0[0] is x0 < x1; at a1 = 0 its extent is empty, so it implies anything
    assert eval_psi(fam, a1=0, b=3, bp=5, i=1, j=0)


def test_eval_psi_order_oracle():
    inst = dlo_instance(9)
    fam = inst.psi_family
    # psi for x0 < y against itself holds iff b' <= b
    for b in range(9):
        for bp in range(9):
            assert eval_psi(fam, 4, b, bp, 1, 1) == (bp <= b)
            for i in range(2):
                for j in range(2):
                    assert eval_psi(fam, 4, b, bp, i, j) == brute_psi(inst, 4, b, bp, i, j)


def test_psi_family_shape_validation():
    bad = ParametrizedFormula("unary", 1, 1, lambda M, objs, p: objs[:, 0] >= 0)
    with pytest.raises(DomainError):
        PsiFamily(OrderModel(4), (bad,))
    with pytest.raises(DomainError, match="delta1 formulas must have shape"):
        FullVCMinInstance(OrderModel(4), (), (bad,))


# --- psi types ------------------------------------------------------------------


def test_psi_type_one_bit():
    inst = dlo_instance(6)
    fam = PsiFamily(inst.carrier, (inst.delta0[1],))
    p = psi_type(fam, 3, [2])
    assert p.shape == (1, 1) and p.dtype == bool
    assert p[0, 0]


@pytest.mark.parametrize("n, m", [(3, 1), (5, 2), (8, 3), (11, 4), (12, 6)])
def test_psi_type_matches_brute_force(n, m):
    # every carrier point, a1 = 0 included, where before-x1 has an empty extent
    inst = dlo_instance(n)
    fam = inst.psi_family
    B = sorted(Random(f"psi/{n}/{m}").sample(range(n), m)) + [0, n - 1]
    k = fam.n_formulas
    for a1 in range(n):
        want = [
            [brute_psi(inst, a1, b, bp, i, j) for bp in B for j in range(k)]
            for b in B
            for i in range(k)
        ]
        assert psi_type(fam, a1, B).tolist() == want


def test_psi_type_all_true_when_instances_empty():
    inst = dlo_instance(6)
    fam = PsiFamily(inst.carrier, (inst.delta0[0],))  # x0 < x1 only
    p = psi_type(fam, 0, [1, 4])
    assert p.shape == (2, 2) and p.all()


def test_psi_type_constant_on_order_intervals():
    fam = dlo_instance(12).psi_family
    B = [2, 5, 9]
    assert (psi_type(fam, 3, B) == psi_type(fam, 4, B)).all()
    assert (psi_type(fam, 6, B) == psi_type(fam, 8, B)).all()
    assert (psi_type(fam, 3, B) != psi_type(fam, 6, B)).any()


# --- forests read off types -------------------------------------------------------


def test_forest_from_type_chain_configuration():
    inst = dlo_instance(8)
    fam = inst.psi_family
    B = [2, 5]
    p = psi_type(fam, 4, B)
    forest = forest_from_type(p, B, 2)
    forest.validate()
    # initial segments are nested, so the class order is a chain
    for a in range(forest.n_classes):
        for b in range(forest.n_classes):
            assert forest.class_leq[a][b] or forest.class_leq[b][a]


def test_forest_from_type_matches_built_forest():
    inst = dlo_instance(14)
    fam = inst.psi_family
    for m, seed in ((2, 0), (4, 1), (6, 2)):
        B = sorted(Random(f"{seed}").sample(range(14), m))
        for a1 in range(14):
            p = psi_type(fam, a1, B)
            read = forest_from_type(p, B, 2)
            built = build_forest([(a1, b) for b in B], inst.delta0, inst.carrier)
            assert read.same_order(built)
            assert read.labels == tuple((bi, di) for bi in range(m) for di in range(2))


def test_equal_types_give_equal_forests_exhaustive():
    inst = dlo_instance(16)
    fam = inst.psi_family
    B = [3, 7, 12]
    groups = {}
    for a1 in range(16):
        groups.setdefault(psi_type(fam, a1, B).tobytes(), []).append(a1)
    assert len(groups) > 1
    for members in groups.values():
        forests = [
            build_forest([(a1, b) for b in B], inst.delta0, inst.carrier) for a1 in members
        ]
        assert all(f.same_order(forests[0]) for f in forests)


def test_forest_from_type_rejects_inconsistent_types():
    # not reflexive
    with pytest.raises(ValidationError, match="reflexivity fails at node \\(0, 0\\)"):
        forest_from_type(np.zeros((1, 1), dtype=bool), [5], 1)
    # two incomparable nodes below a third: chain condition fails
    p = np.eye(3, dtype=bool)
    p[0, 2] = p[1, 2] = True
    with pytest.raises(ValidationError, match="chain"):
        forest_from_type(p, [0, 1, 2], 1)
    # (0) <= (1) <= (2) but not (0) <= (2)
    p = np.eye(3, dtype=bool)
    p[0, 1] = p[1, 2] = True
    with pytest.raises(
        ValidationError, match="transitivity fails at nodes \\(0, 0\\), \\(1, 0\\), \\(2, 0\\)"
    ):
        forest_from_type(p, [0, 1, 2], 1)


def test_forest_from_type_shape_mismatch():
    with pytest.raises(DomainError):
        forest_from_type(np.ones((1, 1), dtype=bool), [1, 2], 1)
    with pytest.raises(DomainError):
        forest_from_type(np.ones(4, dtype=bool), [1, 2], 1)


# --- virtual spaces -----------------------------------------------------------------


def test_p_virtual_space_empty_params():
    inst = dlo_instance(6)
    p = psi_type(inst.psi_family, 2, [])
    assert p_virtual_space(p, [], 2).count == 1


def test_p_virtual_space_chain_counts():
    inst = dlo_instance(9)
    fam = PsiFamily(inst.carrier, (inst.delta0[1],))  # x0 < y only
    B = [2, 5, 7]
    p = psi_type(fam, 4, B)
    space = p_virtual_space(p, B, 1)
    assert space.count == 4  # three distinct segments plus the root generic


def test_realized_types_contained_in_virtual_space():
    inst = dlo_instance(14)
    fam = inst.psi_family
    for m, seed in ((2, 3), (4, 4), (6, 5)):
        B = sorted(Random(f"{seed}").sample(range(14), m))
        for a1 in range(14):
            p = psi_type(fam, a1, B)
            space = p_virtual_space(p, B, 2)
            assert space.count <= 2 * m + 1
            realized = type_space(inst.delta0, [(a1, b) for b in B], inst.carrier, 1)
            assert realized.vector_set() <= space.entry_set()


# --- certificates and the incremental count -------------------------------------------


def test_builtin_certificate_validates():
    inst = dlo_instance(10)
    validate_certificate(inst, [1, 4, 8])


def test_builtin_psi_instances_match_dlo_oracle():
    # every psi instance at every carrier point is the literal the DLO
    # closure of scalar_oracle names
    for n, m in ((6, 2), (9, 4), (12, 5)):
        B = sorted(Random(f"oracle/{n}/{m}").sample(range(n), m))
        types = validate_certificate(dlo_instance(n), B)
        want = [
            [[dlo_psi(i, j, a1, b, bp) for bp in B for j in range(2)] for b in B for i in range(2)]
            for a1 in range(n)
        ]
        assert types.tolist() == want


def test_corrupt_certificate_reports_witness():
    # without final-gt-y, psi[1][0] at (2, 2), x1 <= 2, is neither constant
    # nor x1 >= 2 nor its complement; the instances before it all match
    inst = dlo_instance(8)
    broken = FullVCMinInstance(inst.carrier, inst.delta0, inst.delta1[:1])
    message = "psi[1][0] at (b=2, b'=2) is no delta1 literal"
    with pytest.raises(ValidationError) as err:
        validate_certificate(broken, [2, 5])
    assert str(err.value) == message
    with pytest.raises(ValidationError) as err:
        incremental_count_check(broken, [2, 5])
    assert str(err.value) == message


@pytest.mark.parametrize("m, b, bp", [(4, 0, 4), (8, 2, 5), (16, 5, 12)])
def test_swapped_delta1_parameters_leave_instances_unmatched(m, b, bp):
    # delta1 read at (y', y) instead of (y, y'): psi[0][1] at (b, b') is
    # x1 >= b', which is then a literal only where b = b'
    swapped = (
        ParametrizedFormula("final-geq-y", 1, 2, lambda M, objs, p: objs[:, 0] >= p[0]),
        ParametrizedFormula("final-gt-y'", 1, 2, lambda M, objs, p: objs[:, 0] > p[1]),
    )
    inst = dlo_instance(3 * m)
    B = sorted(Random(f"0/fullvcmin/{m}").sample(range(3 * m), m))
    with pytest.raises(ValidationError) as err:
        validate_certificate(FullVCMinInstance(inst.carrier, inst.delta0, swapped), B)
    assert str(err.value) == f"psi[0][1] at (b={b}, b'={bp}) is no delta1 literal"


def test_incremental_count_single_parameter():
    report = incremental_count_check(dlo_instance(9), [4])
    assert report.all_ok
    assert report.aggregate_bound == 2 * 1 * 2 + 1 * 2 + 1
    assert report.union_size < report.aggregate_bound  # holds with slack


def test_incremental_count_small_instance_quantities():
    report = incremental_count_check(dlo_instance(12), [2, 5, 8, 11])
    assert report.per_step_ok and report.sum_dist_ok and report.aggregate_ok
    assert report.containment_ok
    assert report.sum_dist <= 2 * 16 * 2
    assert report.union_size <= 2 * 16 * 2 + 4 * 2 + 1
    assert report.n_psi_types == len(report.steps) + 1


def test_incremental_count_sizes_four_and_eight():
    for m in (4, 8):
        inst = dlo_instance(3 * m)
        B = sorted(Random(f"acc/{m}").sample(range(inst.carrier.size), m))
        report = incremental_count_check(inst, B)
        assert report.all_ok
        assert report.aggregate_bound == 2 * m * m * 2 + m * 2 + 1


def test_step_distances_are_raw_hamming_distances():
    # a step's dist sums the sizes of the classes that hold one realizer and
    # not the other: the Hamming distance of their raw delta1 lifts, every
    # instance over B x B read off the carrier, placed as the report places
    # them (by convex-order position, then raw lift, then psi-type)
    for m, seed in ((3, 0), (5, 1), (8, 2)):
        inst = dlo_instance(3 * m)
        B = sorted(Random(f"hamming/{seed}").sample(range(3 * m), m))
        pairs = [(b, bp) for b in B for bp in B]
        delta1 = inst.delta1
        signs = sign_matrix(delta1, pairs, inst.carrier, np.arange(3 * m)[:, None])
        forest = build_forest(pairs, delta1, inst.carrier)
        order = convex_order(type_tree(forest))
        realizers = {}
        for a1 in range(3 * m):
            realizers.setdefault(psi_type(inst.psi_family, a1, B).tobytes(), a1)
        placed = sorted(
            (order.position[order.tree.index[frozenset(forest.class_of[lift].tolist())]],
             lift.tobytes(), key)
            for key, lift in ((key, signs[:, a1]) for key, a1 in realizers.items())
        )
        hamming = [sum(x != y for x, y in zip(p[1], q[1])) for p, q in zip(placed, placed[1:])]
        report = incremental_count_check(inst, B)
        assert [step.dist for step in report.steps] == hamming
        assert max(hamming) > 1  # classes of several raw nodes differ


def test_incremental_count_at_b_size_128():
    # fullvcmin-demo's seed-0 parameters at |B| = 128, which the command does
    # not offer; the values were recorded from the certificate-evaluating
    # pipeline that the literal match replaced
    inst = dlo_instance(384)
    B = sorted(Random("0/fullvcmin/128").sample(range(384), 128))
    report = asdict(incremental_count_check(inst, B))
    steps = report.pop("steps")
    assert report == {
        "b_size": 128, "carrier_size": 384, "n_delta0": 2, "n_delta1": 2, "n_psi_types": 222,
        "sum_dist": 32640, "sum_dist_bound": 65536, "first_space_size": 130,
        "union_size": 257, "aggregate_bound": 65793, "per_step_ok": True, "sum_dist_ok": True,
        "aggregate_ok": True, "containment_ok": True,
    }
    assert len(steps) == 221 and all(step["ok"] for step in steps)
    digest = hashlib.sha256(
        ",".join(f"{step['dist']}:{step['new_entries']}" for step in steps).encode()
    ).hexdigest()
    assert digest[:16] == "3381c495e502c2c0"
