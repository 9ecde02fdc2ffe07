"""Regression guard: the stdout of pinned CLI commands, byte for byte.

The recorded outputs in pinned_outputs.json are the lemma report and the
incremental-count reports at seed 0.  A change that moves any of them
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
    *(["fullvcmin-demo", "--b-size", str(b), "--seed", "0", "--json"] for b in (4, 8, 16)),
    ["verify-lemmas", "--json", "--trials", "40", "--seed", "0"],
]


def recorded():
    # a missing file pins nothing here, and fails test_every_command_is_pinned
    return json.loads(PINS.read_text()) if PINS.exists() else []


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("pin", recorded(), ids=lambda pin: " ".join(pin["argv"]))
def test_pinned_output(pin):
    assert run(pin["argv"]) == pin


def test_every_command_is_pinned():
    assert [pin["argv"] for pin in recorded()] == COMMANDS


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    PINS.write_text(json.dumps([run(argv) for argv in COMMANDS], indent=1) + "\n")
