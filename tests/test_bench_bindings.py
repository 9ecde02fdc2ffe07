"""The names bench/run.py binds in the package still resolve.

bench/test_bench.py runs the traced benchmark, which is too slow for the
tier-1 suite, so a renamed or deleted name it binds would otherwise go
unseen until then.  The SPANNED table is read from the script's source,
without importing it."""

import ast
import importlib
from pathlib import Path

import pytest

from laminarvc import forest, fullvcmin, harness
from laminarvc.models import random_ultrametric

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def spanned():
    """The (module, attr) pairs of bench/run.py's SPANNED table."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANNED"]:
            return [(module, attr) for _, module, attr in ast.literal_eval(node.value)]
    raise AssertionError("bench/run.py has no SPANNED table")


@pytest.mark.parametrize("module,attr", spanned())
def test_spanned_names_resolve(module, attr):
    assert callable(getattr(importlib.import_module(f"laminarvc.{module}"), attr))


def test_other_bound_names_resolve():
    # the forest.validate span, the eval_psi counter and the traced
    # growth_formula wrapper
    assert callable(forest.QuasiForest.validate)
    assert callable(fullvcmin.eval_psi)
    assert callable(harness.growth_formula)
    # the model views views_seconds forces
    model = random_ultrametric(16, 3, 7)
    assert model.ball_bool.shape == (model.n_nodes, 16)
    assert model.lca_node_matrix.shape == (16, 16)
    assert model.ancestor_array(1).shape == model.ancestor_array(2).shape == (16,)
