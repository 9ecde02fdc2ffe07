"""Regression guard: the stdout of pinned CLI commands, byte for byte.

The recorded outputs in pinned_outputs.json are the lemma report and the
incremental-count reports at seed 0, and the CSV rows of seven growth runs
at seed 7, without their `ms` column (a timing): four at arity 2, and at
arity 1 lca-ball and boolean-mix on 4096 leaves up to 2048 parameters, and
a small twin-ball-1 run.  Every growth
run builds its carrier with random_ultrametric or OrderModel and draws its
parameters from the Mersenne Twister stream, so these pin both.  A change
that moves any of them
changes what the program computes, not how fast; such a change has to
re-record them on purpose:

    PYTHONPATH=src python tests/test_pinned_outputs.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from laminarvc.cli import main

PINS = Path(__file__).with_name("pinned_outputs.json")
COMMANDS = [
    *(["fullvcmin-demo", "--b-size", str(b), "--seed", "0", "--json"] for b in (4, 8, 16, 32, 64)),
    ["verify-lemmas", "--json", "--trials", "40", "--seed", "0"],
    *(["growth", "--arity", "2", "--sizes", "8,16,32,64,128,256", "--trials", "5",
       "--seed", "7", "--formula", f]
      for f in ("lca-ball", "twin-ball-1", "pair-equality", "boolean-mix")),
    *(["growth", "--arity", "1", "--sizes", "64,128,256,512,1024,2048", "--trials", "20",
       "--seed", "7", "--formula", f] for f in ("lca-ball", "boolean-mix")),
    ["growth", "--arity", "1", "--sizes", "8,16,32,64,128,256", "--trials", "5",
     "--seed", "7", "--formula", "twin-ball-1"],
]


def recorded():
    # a missing file pins nothing here, and fails test_every_command_is_pinned
    return json.loads(PINS.read_text()) if PINS.exists() else []


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    stdout = out.getvalue()
    if argv[0] == "growth":
        stdout = "".join(line.rsplit(",", 1)[0] + "\n" for line in stdout.splitlines())
    return {"argv": argv, "exit": code, "stdout": stdout}


@pytest.mark.parametrize("pin", recorded(), ids=lambda pin: " ".join(pin["argv"]))
def test_pinned_output(pin):
    assert run(pin["argv"]) == pin


def test_every_command_is_pinned():
    assert [pin["argv"] for pin in recorded()] == COMMANDS


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    PINS.write_text(json.dumps([run(argv) for argv in COMMANDS], indent=1) + "\n")
