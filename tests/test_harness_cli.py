import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import caterpillar

from laminarvc import (
    DomainError, OrderModel, ResourceCapError, UltrametricModel, harness, save_model, type_space,
    verify,
)
from laminarvc.cli import main
from laminarvc.harness import (
    CSV_HEADER, ExperimentConfig, _sample_params, csv_text, run_growth,
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


def test_growth_rows_deterministic_across_runs():
    a = run_growth(small_config())
    b = run_growth(small_config())
    assert rows_without_ms(a) == rows_without_ms(b)
    assert a.exponents == b.exponents


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


class CountingRandom(Random):
    """A Random that counts its getrandbits calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


# (carrier size, arity, m); random.sample keeps a set of seen indices when
# the space is larger than 21 + 4 ** ceil(log(3m, 4)) (21 when m <= 5), and
# draws from a pool of the space otherwise
SAMPLE_CASES = (
    (2, 1, 2), (7, 2, 49), (512, 1, 300), (4096, 2, 64), (3, 3, 20),
    # the set path one above its threshold 85, with many redraws of seen
    # indices, and the pool path at it
    (86, 1, 6), (85, 1, 6),
    # m on both sides of the threshold: 5 of 22 and 85 of 278 take the set
    # path, 6 of 22 and 86 of 278 the pool
    (22, 1, 5), (22, 1, 6), (278, 1, 85), (278, 1, 86),
    # 25-bit draws from 4096^2 = 2^24, about half of them redrawn, and
    # 13-bit draws from 2^13 - 1
    (4096, 2, 2048), (8191, 1, 200),
    # 341 of 1046: the first batch of words holds too few distinct draws
    (1046, 1, 341),
)


@pytest.mark.parametrize("with_replacement", [False, True])
def test_sample_params_decode_matches_divmod_loop(with_replacement):
    batches = {}
    for seed in range(4):
        for carrier_size, arity, m in SAMPLE_CASES:
            space = carrier_size**arity
            args = (space, arity, m, carrier_size, with_replacement)
            rng = CountingRandom(f"{seed}/{m}")
            got = _sample_params(rng, *args)
            want = np.array(divmod_loop_params(Random(f"{seed}/{m}"), *args), dtype=np.int64)
            assert got.dtype == np.int64 and got.shape == (m, arity)
            assert (got == want).all(), (seed, carrier_size, arity, m)
            batches.setdefault((carrier_size, m), []).append(rng.calls)
    # one getrandbits call per batch of words: 341 of 1046 needs a second
    # batch at some seed, and the pool path calls once per draw
    if not with_replacement:
        assert max(batches[1046, 341]) >= 2 and min(batches[22, 6]) >= 6


@settings(max_examples=150, deadline=None)
@given(
    space=st.integers(2, 1 << 24), m=st.integers(2, 600), seed=st.integers(0, 1 << 32),
    with_replacement=st.booleans(),
)
def test_sample_params_match_random_on_any_space(space, m, seed, with_replacement):
    m = m if with_replacement else min(m, space)
    args = (space, 1, m, space, with_replacement)
    got = _sample_params(Random(seed), *args)
    want = np.array(divmod_loop_params(Random(seed), *args), dtype=np.int64)
    assert (got == want).all()


NUMPY_MA_PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from laminarvc.cli import main
sizes = ["--sizes", "4,8,16", "--trials", "2", "--seed", "3"]
wide = ["--sizes", "512,1024,2048", "--trials", "1", "--seed", "7"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for kind in ("lca-ball", "twin-ball-1", "boolean-mix"):
        assert main(["growth", "--formula", kind, "--arity", "1"] + sizes) == 0
    assert main(["growth", "--formula", "twin-ball-1", "--arity", "2"] + sizes) == 0
    assert main(["growth", "--formula", "boolean-mix", "--arity", "2"] + wide) == 0
assert "concurrent.futures" not in sys.modules
loaded = "numpy.ma" in sys.modules
np.unique(np.arange(3))
print(loaded, "numpy.ma" in sys.modules)
"""


def test_growth_cells_do_not_import_numpy_ma():
    """np.unique with no return_* flag imports numpy.ma the first time a
    process calls it, which took 14.5 ms of a growth command in a fresh
    interpreter on a shared 2-core VM.  Arity-1 cells of every kind, and
    twin-ball-k and boolean-mix cells at arity 2 (on 4096 leaves up to
    m = 2048), must not pay it; nor do they import concurrent.futures, as
    every cell runs in the calling thread.  The probe's own np.unique
    shows the check can fail; on a NumPy whose np.unique leaves numpy.ma
    alone there is no cost to guard, and the test skips."""
    src = Path(harness.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, str(src)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after_growth, after_unique = proc.stdout.split()
    assert after_growth == "False"
    if after_unique == "False":
        pytest.skip("this NumPy's np.unique does not import numpy.ma")


def test_growth_with_duplicates_flag_runs():
    report = run_growth(small_config(allow_duplicate_params=True, sizes=(4, 8, 16)))
    assert report.complete


def test_growth_cap_marks_incomplete():
    report = run_growth(small_config(cap=10))
    assert not report.complete and not report.passed


def no_thread(monkeypatch):
    def start(self):
        raise AssertionError("a growth run started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)


def test_growth_cancels_queued_cells_after_cap_error(monkeypatch):
    # cells run one after another: after the first one over the cap, no
    # later cell starts
    sizes = []

    def over_cap_at_4(config, model, params):
        sizes.append(len(params))
        if len(params) == 4:
            raise ResourceCapError("over the cap")
        return 1, len(params)

    monkeypatch.setattr(harness, "_factored_count", over_cap_at_4)
    report = run_growth(small_config(arity=2, sizes=(2, 4, 8, 16), trials=3))
    assert report.cap_error == "over the cap" and not report.complete
    assert sizes == [2, 2, 2, 4]


def test_cap_error_in_an_inline_cell_starts_no_pooled_cell(monkeypatch):
    # every cell runs inline: a cap error part way up the sizes starts no
    # thread for the cells that would have followed it
    no_thread(monkeypatch)
    sizes = []

    def over_cap_at_8(config, model, params):
        sizes.append(len(params))
        if len(params) == 8:
            raise ResourceCapError("over the cap")
        return 1, len(params)

    monkeypatch.setattr(harness, "_factored_count", over_cap_at_8)
    report = run_growth(small_config(arity=2, sizes=(2, 4, 8, 16), trials=3))
    assert report.cap_error == "over the cap" and not report.complete
    assert sizes == [2, 2, 2, 4, 4, 4, 8]


def test_small_growth_runs_start_no_thread(monkeypatch):
    no_thread(monkeypatch)
    report = run_growth(small_config(arity=2, sizes=(8, 64, 256), trials=3))
    assert report.complete and len(report.rows) == 9


@pytest.mark.parametrize("kind", ["lca-ball", "boolean-mix"])
def test_arity_1_cells_of_many_sign_bits_start_no_thread(kind, monkeypatch):
    # L = 4096: the m = 2048 cells have 2^23 sign bits
    no_thread(monkeypatch)
    report = run_growth(small_config(formula_kind=kind, sizes=(8, 1024, 2048), trials=2))
    assert report.complete and len(report.rows) == 6
    assert report.model_label == "ultrametric-L4096-s3"


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
    # arity 1: cells count the segments their m parameters' sets cut
    doc = run_growth(small_config()).to_json()
    assert doc["engine"] == "segments" and "quotient" not in doc
    assert [r["tuples_refined"] for r in doc["rows"]] == [4, 4, 8, 8, 16, 16]
    # arity 2: a union kind counts the d^2 pairs of its d profile ranges,
    # lca-ball and boolean-mix dedupe row ranges
    report = run_growth(small_config(formula_kind="twin-ball-1", arity=2, sizes=(2, 4, 8)))
    doc = report.to_json()
    assert doc["engine"] == "ranges"
    assert run_growth(small_config(formula_kind="lca-ball", arity=2)).engine == "ranges"
    assert run_growth(small_config(formula_kind="boolean-mix", arity=2)).engine == "ranges"
    assert all(r["type_count"] <= r["tuples_refined"] <= 16**2 for r in doc["rows"])
    assert csv_text(report).splitlines()[0] == ",".join(CSV_HEADER)
    assert all(len(line.split(",")) == len(CSV_HEADER) for line in csv_text(report).splitlines())


def test_growth_json_carries_an_environment_stamp(monkeypatch, capsys):
    # a variable the program no longer reads leaves no trace in the stamp
    monkeypatch.setenv("LAMINAR_VC_THREADS", "3")
    argv = ["growth", "--formula", "lca-ball", "--arity", "1", "--sizes", "4,8,16",
            "--trials", "2", "--seed", "3"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    doc = json.loads(lines[-1])
    root = Path(harness.__file__).resolve().parents[2]
    assert doc["env"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": harness.git_sha(root),
    }
    # the CSV is the same with and without the stamp, but for the ms column
    csv = lines[:-1]
    assert csv[0] == ",".join(CSV_HEADER)
    assert [line.rsplit(",", 1)[0] for line in csv] == [
        line.rsplit(",", 1)[0] for line in plain.splitlines()
    ]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git executable")
def test_git_sha_names_the_checkout_at_its_top_only(tmp_path):
    assert harness.git_sha(tmp_path) is None  # not a checkout
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    assert harness.git_sha(tmp_path) is None  # a checkout with no commit
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "c"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    assert harness.git_sha(tmp_path) == head.stdout.strip()
    (tmp_path / "sub").mkdir()
    assert harness.git_sha(tmp_path / "sub") is None  # inside, not at the top


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


def test_cli_check_directed_reads_no_ball_matrix_of_a_tree(monkeypatch, tmp_path, capsys):
    def no_view(self):
        raise AssertionError("the ball matrix was built")

    model = random_ultrametric(64, 3, 5)
    path = tmp_path / "tree.model.json"
    save_model(model, path)
    monkeypatch.setattr(UltrametricModel, "ball_bool", property(no_view))
    assert main(["check-directed", "--model", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"directed": True, "sets": model.n_nodes}


def test_cli_check_directed_missing_file(tmp_path):
    assert main(["check-directed", "--model", str(tmp_path / "nope.model.json")]) == 2


PEAK_RSS_PROBE = """
import json
import sys
sys.path.insert(0, sys.argv[1])
from laminarvc.cli import main
from laminarvc.models import load_model

def peak():
    # this process's own high-water RSS in bytes; ru_maxrss would start from
    # the forking test process's RSS, which exec carries over
    with open("/proc/self/status") as status:
        return 1024 * int(next(l for l in status if l.startswith("VmHWM")).split()[1])

argv = json.loads(sys.argv[2])
if argv[0] == "check-directed":
    load_model(argv[-1])
before = peak()
code = main(argv)
print(before, peak(), file=sys.stderr)
sys.exit(code)
"""


def cli_peak(argv):
    """Run a CLI command in a fresh interpreter: its stdout, its peak RSS
    before the command (after loading the model of check-directed) and its
    peak at the end, in bytes."""
    src = Path(harness.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_PROBE, str(src), json.dumps(argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stderr.split()[-2:])
    return proc.stdout, before, after


def check_directed_peak(path):
    """cli_peak of check-directed on a model file, its JSON parsed."""
    out, before, after = cli_peak(["check-directed", "--model", str(path)])
    return json.loads(out), before, after


needs_proc_status = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc/self/status"
)


@needs_proc_status
def test_cli_check_directed_scans_a_wide_order_in_little_memory(tmp_path):
    """check-directed on a 4096-element order scans its initial segments as
    the ranges [0, c).  As frozensets, the same family held 8.4 million ints
    and the command peaked at 790 MB on a 2-core VM; the scan of their
    (4095, 4096) bool member matrix peaked at about 52 MB there, and the
    range scan peaks at about 31 MB, 0.5 MB over the loaded model."""
    path = tmp_path / "order.model.json"
    save_model(OrderModel(4096), path)
    out, _, peak = check_directed_peak(path)
    assert out == {"directed": True, "sets": 4095}
    assert peak < 200 * 2**20


@needs_proc_status
def test_cli_check_directed_holds_no_ball_matrix_of_a_wide_tree(tmp_path):
    """check-directed on a 4096-leaf tree scans its balls as leaf-rank
    ranges and builds no (nodes, L) ball matrix, 29 MB here.  Over the
    loaded model, on a 2-core VM, the peak rose 58 MB when that matrix came
    from two full comparisons, 40 MB with the frozenset family of the
    balls, 37 MB with the matrix built in row blocks, and 0.6 MB with the
    range scan."""
    path = tmp_path / "tree.model.json"
    model = random_ultrametric(4096, 3, 7)
    save_model(model, path)
    out, before, after = check_directed_peak(path)
    assert out == {"directed": True, "sets": model.n_nodes}
    assert after - before < 1.5 * model.n_nodes * model.size


@needs_proc_status
def test_cli_growth_on_a_deep_tree_holds_no_table_of_its_height(tmp_path):
    """Arity-1 lca-ball growth on a 4096-leaf caterpillar, height 4095.  A
    per-leaf table of ancestors at every depth, 64 MB here, raised the peak
    139 MB on a 2-core VM; the sparse table over the leaf order holds
    0.85 MB, and the peak rose 5 MB."""
    path = tmp_path / "caterpillar.model.json"
    save_model(caterpillar(4096), path)
    out, before, after = cli_peak([
        "growth", "--formula", "lca-ball", "--arity", "1", "--sizes", "512,1024,2048",
        "--trials", "1", "--model", str(path),
    ])
    assert len(out.splitlines()) == 4
    assert after - before < 24 * 2**20


@needs_proc_status
def test_cli_fullvcmin_demo_at_b_size_64_runs_in_little_memory():
    """fullvcmin-demo --b-size 64 builds the delta1 forest on 64² × 2 = 8192
    instances over 192 carrier points once per class, 107 of them.  With an
    (8192, 8192) inclusion product of the raw instances, the same library
    call peaked at 555 MB on a 2-core VM."""
    out, _, peak = cli_peak(["fullvcmin-demo", "--b-size", "64", "--seed", "0", "--json"])
    report = json.loads(out)
    assert report["b_size"] == 64 and report["aggregate_ok"]
    assert peak < 150 * 2**20


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

    for view in ("ball_bool", "lca_table"):
        monkeypatch.setattr(UltrametricModel, view, property(no_views))
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


def test_cli_growth_cap_exit_code(tmp_path):
    out = tmp_path / "partial.csv"
    code = main([
        "growth", "--formula", "lca-ball", "--arity", "1",
        "--sizes", "4,8,16", "--trials", "1", "--cap", "10", "--out", str(out),
    ])
    assert code == 3


def test_cli_growth_json_of_an_incomplete_run_is_strict_json(capsys):
    # no exponent is fitted, and NaN is not JSON (RFC 8259): null stands in
    code = main([
        "growth", "--formula", "lca-ball", "--arity", "1", "--sizes", "8,16,32",
        "--cap", "100", "--json",
    ])
    assert code == 3

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(capsys.readouterr().out.splitlines()[-1], parse_constant=reject)
    assert doc["complete"] is False and doc["median_exponent"] is None


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_cli_growth_rejects_a_non_finite_tol(tol, capsys):
    code = main(["growth", "--formula", "lca-ball", "--arity", "1", "--sizes", "4,8,16",
                 "--tol", tol])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: tol must be finite, got {tol}\n"


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
