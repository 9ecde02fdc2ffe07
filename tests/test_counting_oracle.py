"""The refinement engine behind type_space, its sample path and
class_representatives, and the growth harness's factored arity-2 count,
checked against the brute-force oracle in scalar_oracle: the same sign rows,
in the same order where the engine gives an order."""

import json
from itertools import product
from random import Random

import numpy as np
import pytest
from scalar_oracle import Tree, corpus_rows, with_unary_nodes

from laminarvc import harness, save_model, setsystem
from laminarvc.cli import main
from laminarvc.harness import ExperimentConfig, _sample_params, resolve_model, run_growth
from laminarvc.models import CORPUS, GROWTH_KINDS, OrderModel, growth_formula, random_ultrametric
from laminarvc.setsystem import class_representatives, distinct_rows, type_space


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


@pytest.mark.parametrize("sweep_tuples", [setsystem._SWEEP_TUPLES, 5])
@pytest.mark.parametrize("seed", range(4))
def test_full_sweep_matches_oracle(seed, sweep_tuples, monkeypatch):
    # a small chunk makes every sweep merge its chunks through the
    # representatives found so far
    monkeypatch.setattr(setsystem, "_SWEEP_TUPLES", sweep_tuples)
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


@pytest.mark.parametrize("seed", range(4))
def test_representatives_path_matches_oracle(seed):
    # one tuple per class over every carrier parameter tuple, in row order
    for model in random_models(200 + seed):
        for kind, arity in growth_cases(model):
            f = growth_formula(kind, arity)
            every = list(product(range(model.size), repeat=f.param_arity))
            reps = class_representatives([f], every, model, arity)
            tuples = setsystem._decode_tuples(reps, model.size, arity).tolist()
            got = [corpus_rows([kind], arity, every, model, [tuple(t)])[0] for t in tuples]
            assert got == corpus_rows([kind], arity, every, model), (kind, arity)


@pytest.mark.parametrize("arity", [1, 2])
def test_multi_formula_delta_past_one_label_word(arity):
    # more than 63 slots: the labels are renumbered at least once
    rng = Random(arity)
    model = random_ultrametric(16, 3, 11)
    kinds = [k for k, a in growth_cases(model) if a == arity]
    delta = [growth_formula(k, arity) for k in kinds]
    params = random_params(rng, model, delta[0].param_arity, 14)
    assert len(params) * len(delta) > 63
    got = type_space(delta, params, model, arity)
    assert engine_rows(got) == corpus_rows(kinds, arity, params, model)


def test_single_formula_past_one_label_word():
    # 70 distinct slots: the engine skips repeated ones, so repeats would
    # never fill a label word
    model = OrderModel(72)
    f = growth_formula("pair-equality", 2)
    params = [(7 * i % 72,) for i in range(70)]
    got = type_space([f], params, model, 2)
    assert engine_rows(got) == corpus_rows(["pair-equality"], 2, params, model)


@pytest.mark.parametrize(
    "kind,arity,trials",
    [(k, 2, 2) for k in GROWTH_KINDS] + [("lca-ball", 1, 19), ("boolean-mix", 1, 19)],
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


@pytest.mark.parametrize("seed", range(5))
def test_factored_rows_match_oracle(seed):
    rng = Random(600 + seed)
    for model in factored_models(600 + seed):
        # a few parameters, repeated ones, and every carrier element (m = L)
        columns = [
            rng.sample(range(model.size), rng.randint(1, model.size)),
            [rng.randrange(model.size) for _ in range(rng.randint(2, 20))],
            list(range(model.size)),
        ]
        for kind, spec in CORPUS.items():
            if not isinstance(model, spec.carriers):
                continue
            for xs in columns:
                got = distinct_rows(spec.rows(model, np.array(xs)))
                want = corpus_rows([kind], 2, [(x,) for x in xs], model)
                assert unpacked(got, len(xs)) == want, (kind, model, xs)


def growth_rows_match_oracle(config, model):
    report = run_growth(config)
    assert report.complete and report.engine == "factored"
    for row in report.rows:
        params = _sample_params(
            Random(f"{config.seed}/{row.m}/{row.trial}"), model.size, 1, row.m, model.size,
            config.allow_duplicate_params,
        )
        assert row.type_count == len(corpus_rows([config.formula_kind], 2, params, model))
        assert row.batch_calls == 0 and row.type_count <= row.tuples_refined


@pytest.mark.parametrize("duplicates", [False, True])
def test_factored_growth_on_model_files_matches_oracle(duplicates, tmp_path):
    # 7 leaves and sizes up to 7: the last cell's parameters are the whole
    # carrier when drawn without duplicates
    tree = with_unary_nodes(random_ultrametric(7, 3, 4), Random(4), 5)
    order = OrderModel(7, seed=1)
    for model in (tree, order):
        path = tmp_path / f"{type(model).__name__}.model.json"
        save_model(model, path)
        for kind, spec in CORPUS.items():
            if isinstance(model, spec.carriers):
                config = ExperimentConfig(
                    kind, 2, (2, 5, 7), trials=3, seed=8, model_path=str(path),
                    allow_duplicate_params=duplicates,
                )
                growth_rows_match_oracle(config, model)


def test_factored_growth_keeps_the_enumeration_cap(tmp_path, capsys):
    # 16 leaves and a largest size of 8: 16^2 * 8 evaluations
    argv = ["growth", "--formula", "twin-ball-1", "--arity", "2", "--sizes", "2,4,8",
            "--trials", "2", "--seed", "5"]
    assert main(argv + ["--cap", str(16**2 * 8)]) == 0
    capsys.readouterr()
    assert main(argv + ["--cap", str(16**2 * 8 - 1), "--json"]) == 3
    doc = [line for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    assert json.loads(doc[0])["complete"] is False


# --- parameter blocks ----------------------------------------------------------


def block_budget(k, n_formulas, model, arity):
    """The _BLOCK_BYTES that makes the engine pass k parameter tuples per block
    over every object tuple of the model."""
    return k * n_formulas * model.size**arity


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
                got = type_space([f], params, model, arity)
                want = corpus_rows([kind], arity, params, model)
                assert engine_rows(got) == want, (kind, arity, m)
                assert got.count == len(got.vectors)
                assert got.cost.batch_calls == -(-m // k)


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
    # one block of 70 tuples x 2 formulas: the labels run out of room, and
    # are renumbered, in the middle of the block
    model = random_ultrametric(8, 3, 9)
    kinds = ["twin-ball-1", "lca-ball"]
    delta = [growth_formula(kind, arity) for kind in kinds]
    monkeypatch.setattr(setsystem, "_BLOCK_BYTES", block_budget(70, 2, model, arity))
    params = random_params(Random(arity), model, delta[0].param_arity, 70)
    got = type_space(delta, params, model, arity)
    assert got.cost.batch_calls == 2
    assert engine_rows(got) == corpus_rows(kinds, arity, params, model)


def test_renumbering_with_more_classes_than_a_byte_holds():
    # 128 distinct slots over 600 sampled pairs: the labels are renumbered
    # after 56 slots, when the hundreds of classes need 10 bits, and the
    # room left for the next 56 slots must allow for those bits
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
    # repeated parameter tuples give repeated slots, which the engine skips
    # only while its bounded store of slot keys recognizes them
    monkeypatch.setattr(setsystem, "_BLOCK_BYTES", budget)
    rng = Random(budget)
    for model in random_models(400):
        for kind, arity in growth_cases(model):
            f = growth_formula(kind, arity)
            pool = random_params(rng, model, f.param_arity, 4)
            params = [rng.choice(pool) for _ in range(40)]
            got = type_space([f], params, model, arity)
            assert engine_rows(got) == corpus_rows([kind], arity, params, model), (kind, arity)


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
            want = np.array([f.batch(model, objs, p) for p in params])
            assert got.shape == want.shape and (got == want).all(), (kind, arity)


@pytest.mark.parametrize("seed", range(6))
def test_vectorized_lca_matches_scalar_lca(seed):
    rng = Random(seed)
    model = random_ultrametric(rng.randint(2, 24), rng.randint(2, 4), seed)
    tree = Tree(model)
    pairs = np.array(list(product(range(model.size), repeat=2)))
    got = model.lca_of(pairs[:, :1], pairs[:, 1:])[:, 0].tolist()
    assert got == [model.lca(model.leaves[a], model.leaves[b]) for a, b in pairs]
    assert got == [tree.lca(a, b) for a, b in pairs]


def test_arity_1_growth_at_4096_leaves_builds_no_lca_matrix(monkeypatch):
    models = []

    def keep(config):
        models.append(resolve_model(config))
        return models[-1]

    monkeypatch.setattr(harness, "resolve_model", keep)
    report = run_growth(ExperimentConfig("lca-ball", 1, (8, 64, 2048), trials=1, seed=2))
    assert report.complete and models[0].size == 4096
    assert "lca_node_matrix" not in models[0].__dict__
