"""Fuzz of the command line: whatever the model file or the flags hold, a
command ends in exit code 0, 1, 2 or 3 without a traceback, and every CSV row growth writes has one field per header column.

Values stay tiny so that every example runs in milliseconds.  verify-lemmas
is drawn with its rejected --trials values only: any accepted value runs the
fixed-size incremental suite, about a second per call.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from laminarvc.cli import main
from laminarvc.harness import CSV_HEADER
from laminarvc.models import GROWTH_KINDS

odd_numbers = st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e30, 2**70, 0.5, True])
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(width=32), st.text(max_size=3),
    odd_numbers,
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
model_docs = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("ultrametric"), "parent": st.lists(st.integers(-2, 10) | scalars, max_size=12)},
        optional={"seed": json_values},
    ),
    st.fixed_dictionaries({"kind": st.just("order"), "size": st.integers(-2, 40) | odd_numbers | json_values}),
    st.fixed_dictionaries({
        "kind": st.just("family"),
        "universe": st.integers(-1, 8) | odd_numbers | json_values,
        "sets": st.lists(st.lists(st.integers(-1, 9) | scalars, max_size=4), max_size=5) | json_values,
    }),
    json_values,
)
model_files = st.one_of(
    model_docs.map(lambda doc: json.dumps(doc).encode()), st.binary(max_size=24)
)
numbers = st.integers(-3, 40).map(str) | st.sampled_from(["", "x", "1.5", "nan", "inf", "-inf"])


@st.composite
def invocations(draw):
    """(argv, model file bytes or None); the literal MODEL in argv stands for
    the path the model file is written to."""
    command = draw(st.sampled_from(
        ["gen-model", "check-directed", "growth", "fullvcmin-demo", "verify-lemmas"]
    ))
    model = None
    if command == "gen-model":
        argv = ["gen-model", "--kind", draw(st.sampled_from(["ultrametric", "order", "tree"]))]
        for flag in ("--leaves", "--branching", "--size", "--seed"):
            if draw(st.booleans()):
                argv += [flag, draw(numbers)]
        argv += ["--out", draw(st.sampled_from(["MODEL", "."]))]
    elif command == "check-directed":
        model = draw(model_files)
        argv = ["check-directed", "--model", "MODEL"]
    elif command == "growth":
        sizes = draw(st.lists(st.integers(-1, 12), max_size=4))
        argv = [
            "growth",
            "--formula", draw(st.sampled_from(GROWTH_KINDS + ("mystery",))),
            "--arity", draw(st.sampled_from(["1", "2", "3"])),
            "--sizes", draw(st.just(",".join(map(str, sizes))) | st.sampled_from(["", "a,b"])),
            "--trials", draw(st.sampled_from(["-1", "0", "1", "2"])),
        ]
        for flag in ("--seed", "--tol", "--cap"):
            if draw(st.booleans()):
                argv += [flag, draw(numbers)]
        if draw(st.booleans()):
            model = draw(model_files)
            argv += ["--model", "MODEL"]
        argv += draw(st.lists(st.sampled_from(["--allow-duplicates", "--json"]), max_size=2))
    elif command == "fullvcmin-demo":
        argv = ["fullvcmin-demo", "--b-size", draw(st.sampled_from(["4", "3", "x"]))]
        argv += draw(st.lists(st.sampled_from(["--json", "--seed", "2"]), max_size=2))
    else:
        argv = ["verify-lemmas", "--trials", draw(st.sampled_from(["0", "-1", "x"]))]
    return argv, model


def run_cli(argv, model):
    """Run argv with the model file bytes written to MODEL, then check the
    documented exit codes, the absence of a traceback and the growth CSV."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.model.json")
        if model is not None:
            with open(path, "wb") as fh:
                fh.write(model)
        argv = [path if a == "MODEL" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse rejects the flags
                code = e.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    lines = out.getvalue().splitlines()
    if argv[0] == "growth" and lines[:1] == [",".join(CSV_HEADER)]:
        # with --json the JSON report follows the rows
        rows = [line for line in lines[1:] if not line.startswith("{")]
        assert all(len(row.split(",")) == len(CSV_HEADER) for row in rows), (argv, rows)
    return code


@settings(max_examples=150, deadline=None, derandomize=True)
@given(invocations())
def test_cli_exits_with_a_documented_code(invocation):
    run_cli(*invocation)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(json_values, st.sampled_from(GROWTH_KINDS), st.booleans())
def test_growth_rows_fit_the_header_whatever_the_model_seed(seed, kind, as_json):
    # a valid tree whose seed is fuzzed: the seed goes into every row's label
    model = json.dumps({"kind": "ultrametric", "parent": [-1, 0, 0, 0, 0, 0], "seed": seed})
    argv = ["growth", "--formula", kind, "--arity", "2", "--sizes", "2,3,4", "--trials", "1",
            "--model", "MODEL"] + ["--json"] * as_json
    assert run_cli(argv, model.encode()) in (0, 1, 2)
