import json
import math
import re
import threading
import time
from random import Random

import pytest

from laminarvc import (
    DomainError, OrderModel, ResourceCapError, UltrametricModel, harness, save_model, type_space,
    verify,
)
from laminarvc.cli import main
from laminarvc.harness import (
    CSV_HEADER, ExperimentConfig, _sample_params, csv_text, run_growth, thread_budget,
)
from laminarvc.models import SetFamily, growth_formula, random_ultrametric
from laminarvc.setsystem import sauer_check


def rows_without_ms(report):
    return [(r.model, r.formula, r.arity, r.m, r.trial, r.seed, r.type_count) for r in report.rows]


# --- config validation ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig("lca-ball", 3, (4, 8, 16))
    with pytest.raises(DomainError):
        ExperimentConfig("lca-ball", 1, (4, 8, 16), trials=0)
    with pytest.raises(DomainError):
        ExperimentConfig("lca-ball", 1, (8, 4, 16))
    with pytest.raises(DomainError):
        ExperimentConfig("lca-ball", 1, (4, 8))
    with pytest.raises(DomainError):
        ExperimentConfig("no-such-kind", 1, (4, 8, 16))
    assert ExperimentConfig("lca-ball", 1, (4, 8, 16)).ceiling == pytest.approx(1.15)


# --- growth runs ------------------------------------------------------------------


def small_config(**kw):
    base = dict(formula_kind="lca-ball", arity=1, sizes=(4, 8, 16), trials=2, seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


def test_growth_rows_deterministic_across_runs(monkeypatch):
    a = run_growth(small_config())
    b = run_growth(small_config())
    assert rows_without_ms(a) == rows_without_ms(b)
    assert a.exponents == b.exponents
    monkeypatch.setenv("LAMINAR_VC_THREADS", "3")
    c = run_growth(small_config())
    assert rows_without_ms(a) == rows_without_ms(c)


def test_growth_rows_sorted_and_csv_header():
    report = run_growth(small_config())
    keys = [(r.m, r.trial) for r in report.rows]
    assert keys == sorted(keys)
    text = csv_text(report)
    assert text.splitlines()[0] == "model,formula,arity,m,trial,seed,type_count,ms"
    assert len(text.splitlines()) == 1 + len(report.rows)
    assert ",".join(CSV_HEADER) == "model,formula,arity,m,trial,seed,type_count,ms"


def test_growth_exponent_pipeline_on_exact_quadratic():
    cfg = ExperimentConfig("pair-equality", 2, (8, 16, 32), trials=2, seed=1)
    report = run_growth(cfg)
    for r in report.rows:
        assert r.type_count == 1 + r.m + math.comb(r.m, 2)
    assert report.passed  # quadratic growth sits under ceiling 2.15
    assert report.median_exponent > 1.5


def test_default_tolerance_separates_quadratic_from_cubic():
    from laminarvc import GrowthPoint, GrowthSeries, fit_codensity_exponent

    ceiling = 2 + 0.15
    quad = GrowthSeries(tuple(GrowthPoint(m, m * m, 0) for m in (8, 16, 32, 64)))
    cubic = GrowthSeries(tuple(GrowthPoint(m, m**3, 0) for m in (8, 16, 32, 64)))
    assert fit_codensity_exponent(quad).slope <= ceiling
    assert fit_codensity_exponent(cubic).slope > ceiling + 0.5  # fails decisively


def test_duplicate_parameter_columns_do_not_change_counts():
    model = OrderModel(24)
    eq = growth_formula("pair-equality", 2)
    B = [(3,), (7,), (11,)]
    base = type_space([eq], B, model, 2).count
    assert type_space([eq], B + [B[0]], model, 2).count == base


def divmod_loop_params(rng, space, arity, m, carrier_size, with_replacement):
    """The parameter tuples of one cell, each draw decoded by a divmod loop."""
    if with_replacement:
        idxs = [rng.randrange(space) for _ in range(m)]
    else:
        idxs = rng.sample(range(space), m)
    out = []
    for idx in idxs:
        t = []
        for _ in range(arity):
            idx, r = divmod(idx, carrier_size)
            t.append(r)
        out.append(tuple(reversed(t)))
    return out


@pytest.mark.parametrize("with_replacement", [False, True])
def test_sample_params_decode_matches_divmod_loop(with_replacement):
    for seed in range(4):
        for carrier_size, arity, m in ((2, 1, 2), (7, 2, 49), (512, 1, 300), (4096, 2, 64), (3, 3, 20)):
            space = carrier_size**arity
            args = (space, arity, m, carrier_size, with_replacement)
            got = _sample_params(Random(f"{seed}/{m}"), *args)
            assert got == divmod_loop_params(Random(f"{seed}/{m}"), *args)
            assert all(type(v) is int for t in got for v in t)


def test_growth_with_duplicates_flag_runs():
    report = run_growth(small_config(allow_duplicate_params=True, sizes=(4, 8, 16)))
    assert report.complete


def test_growth_cap_marks_incomplete():
    report = run_growth(small_config(cap=10))
    assert not report.complete and not report.passed


def test_growth_cancels_queued_cells_after_cap_error(monkeypatch):
    monkeypatch.setenv("LAMINAR_VC_THREADS", "2")
    calls = []
    lock = threading.Lock()

    def over_cap(*args, **kwargs):
        with lock:
            calls.append(None)
            first = len(calls) == 1
        # the first cell outlasts the rest, so the run learns of a later failure
        # while the first cell is still running
        time.sleep(0.3 if first else 0.005)
        raise ResourceCapError("over the cap")

    monkeypatch.setattr(harness, "type_space", over_cap)
    report = run_growth(small_config(sizes=(4, 8, 16, 32), trials=10))
    assert not report.complete
    assert len(calls) < 40


def test_growth_model_path(tmp_path):
    path = tmp_path / "m.model.json"
    save_model(random_ultrametric(32, 3, 5), path)
    report = run_growth(small_config(model_path=str(path)))
    assert report.model_label == "ultrametric-L32-s5"


def test_report_json_round_trip():
    report = run_growth(small_config())
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["passed"] is True
    assert doc["rows"][0]["m"] == 4
    assert doc["median_exponent"] == pytest.approx(report.median_exponent)


def test_report_json_carries_cell_cost_and_quotient():
    # 32 leaves: every cell sweeps the 32 carrier elements in one block
    doc = run_growth(small_config()).to_json()
    assert doc["engine"] == "refine" and "quotient" not in doc
    assert [(r["batch_calls"], r["tuples_refined"]) for r in doc["rows"]] == [(1, 32)] * 6
    # arity 2: cells dedupe the corpus entry's candidate rows, with no batch call
    report = run_growth(small_config(formula_kind="twin-ball-1", arity=2, sizes=(2, 4, 8)))
    doc = report.to_json()
    assert doc["engine"] == "factored"
    assert all(r["batch_calls"] == 0 for r in doc["rows"])
    assert all(r["type_count"] <= r["tuples_refined"] <= 16**2 for r in doc["rows"])
    assert csv_text(report).splitlines()[0] == ",".join(CSV_HEADER)
    assert all(len(line.split(",")) == len(CSV_HEADER) for line in csv_text(report).splitlines())


# --- CLI -------------------------------------------------------------------------


def test_cli_gen_model_and_check_directed(tmp_path, capsys):
    path = tmp_path / "t.model.json"
    assert main(["gen-model", "--kind", "ultrametric", "--leaves", "12", "--seed", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["check-directed", "--model", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["directed"] is True


def test_cli_check_directed_crossing_family(tmp_path, capsys):
    path = tmp_path / "crossing.model.json"
    save_model(SetFamily.of(3, [{0, 1}, {1, 2}]), path)
    assert main(["check-directed", "--model", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"directed": False, "violation": [0, 1]}


def test_cli_check_directed_missing_file(tmp_path):
    assert main(["check-directed", "--model", str(tmp_path / "nope.model.json")]) == 2


@pytest.mark.parametrize("content", [
    b'{"kind": "family", "universe": 3, "sets": [[0.5]]}',
    b'{"kind": "family", "universe": 3, "sets": [[true]]}',
    b'{"kind": "ultrametric", "parent": [-1, 0, 0.0]}',
    b'{"kind": "order", "size": Infinity}',
    b"\xff\xfe{",
    b"[" * 100000,
])
def test_cli_check_directed_rejects_malformed_model(content, tmp_path, capsys):
    path = tmp_path / "bad.model.json"
    path.write_bytes(content)
    assert main(["check-directed", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and str(path) in err


def test_cli_growth_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main([
        "growth", "--formula", "lca-ball", "--arity", "1",
        "--sizes", "4,8,16", "--trials", "2", "--seed", "3", "--out", str(out), "--json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    lines = out.read_text().splitlines()
    assert lines[0] == "model,formula,arity,m,trial,seed,type_count,ms"
    assert len(lines) == 1 + 3 * 2


@pytest.mark.parametrize("seed, accepted", [
    ('"a,b"', False), ("1.5", False), ("true", False), ("[1]", False), ("null", True), ("5", True),
])
def test_cli_growth_model_seed_must_be_integer_or_null(seed, accepted, tmp_path, capsys):
    path = tmp_path / "seeded.model.json"
    path.write_text(f'{{"kind": "ultrametric", "parent": [-1, 0, 0, 0, 0, 0], "seed": {seed}}}')
    code = main([
        "growth", "--formula", "lca-ball", "--arity", "1", "--sizes", "2,3,4",
        "--trials", "1", "--model", str(path),
    ])
    captured = capsys.readouterr()
    if accepted:
        # the fitted exponent of this tiny tree may miss the ceiling: exit 0 or 1
        assert code in (0, 1)
        lines = captured.out.splitlines()
        assert len(lines) == 4 and all(len(line.split(",")) == len(CSV_HEADER) for line in lines)
    else:
        assert code == 2 and captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1 and "seed must be" in captured.err


def test_cli_growth_caps_ultrametric_leaves_before_building_views(monkeypatch, tmp_path, capsys):
    def no_views(self):
        raise AssertionError("a model view was built")

    monkeypatch.setattr(UltrametricModel, "ball_bool", property(no_views))
    argv = ["growth", "--formula", "lca-ball", "--arity", "1", "--sizes", "8,16,3000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "exceeds cap 4096" in err
    # a model file over the cap too
    path = tmp_path / "wide.model.json"
    path.write_text(json.dumps({"kind": "ultrametric", "parent": [-1] + [0] * 4097}))
    assert main(argv[:-2] + ["--sizes", "2,3,4", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "exceeds cap 4096" in err


def test_cli_growth_usage_error():
    assert main(["growth", "--formula", "lca-ball", "--arity", "1", "--sizes", "4,8"]) == 2


@pytest.mark.parametrize("kind", ["lca-ball", "twin-ball-1", "boolean-mix"])
def test_cli_growth_rejects_order_model_for_ball_formulas(kind, tmp_path, capsys):
    path = tmp_path / "order.model.json"
    save_model(OrderModel(32, seed=1), path)
    code = main([
        "growth", "--formula", kind, "--arity", "2", "--sizes", "4,8,16",
        "--model", str(path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "order model" in err


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_thread_budget_rejects_bad_values(value, monkeypatch, capsys):
    monkeypatch.setenv("LAMINAR_VC_THREADS", value)
    with pytest.raises(DomainError):
        thread_budget()
    code = main(["growth", "--formula", "lca-ball", "--arity", "1", "--sizes", "4,8,16"])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "LAMINAR_VC_THREADS" in err


def test_thread_budget_reads_positive_values(monkeypatch):
    monkeypatch.setenv("LAMINAR_VC_THREADS", " 3 ")
    assert thread_budget() == 3
    monkeypatch.setenv("LAMINAR_VC_THREADS", "")
    assert thread_budget() >= 1


def test_cli_growth_cap_exit_code(tmp_path):
    out = tmp_path / "partial.csv"
    code = main([
        "growth", "--formula", "lca-ball", "--arity", "1",
        "--sizes", "4,8,16", "--trials", "1", "--cap", "10", "--out", str(out),
    ])
    assert code == 3


def test_cli_fullvcmin_demo(capsys):
    assert main(["fullvcmin-demo", "--b-size", "4"]) == 0
    out = capsys.readouterr().out
    assert "sum dist" in out and "FAIL" not in out
    with pytest.raises(SystemExit) as err:
        main(["fullvcmin-demo", "--b-size", "3"])
    assert err.value.code == 2


def test_cli_verify_lemmas_usage_error():
    assert main(["verify-lemmas", "--trials", "0"]) == 2


def test_cli_verify_lemmas_small_run(capsys):
    assert main(["verify-lemmas", "--trials", "2", "--seed", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {entry["lemma"] for entry in doc}
    assert names == {
        "directedness+linear-bound",
        "convex-ordering",
        "sum-of-distances",
        "sauer-shelah",
        "components-canonicity",
        "forest+type-determination",
        "incremental-count",
    }
    assert all(entry["failures"] == 0 for entry in doc)


def test_lemma_failure_names_trial_key_and_witness(monkeypatch, capsys):
    drawn = []

    def sauer_failing_third_trial(family):
        drawn.append(family)
        return len(drawn) != 3 and sauer_check(family)

    monkeypatch.setattr(verify, "sauer_check", sauer_failing_third_trial)
    assert main(["verify-lemmas", "--trials", "4", "--seed", "5"]) == 1
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    line = lines["sauer-shelah"]
    # the prefix that the benchmark parses is unchanged
    prefix = re.match(r"^(\S+)\s+trials=\s*(\d+)\s+failures=\s*(\d+)", line)
    assert prefix.groups() == ("sauer-shelah", "4", "1")
    sets = [sorted(x) for x in drawn[2].sets]
    assert line.endswith(f" FAIL 5/sauer/2: sets {sets} over {drawn[2].universe.size} elements")
    assert lines["convex-ordering"].endswith(" ok")
    drawn.clear()
    report = verify.verify_sauer(5, trials=4)
    assert report.failures == 1 and report.detail.startswith("5/sauer/2: ")
