"""The names the benchmark's tracer wraps must exist where it looks for them.

``perfbench/spans.py`` wraps module attributes listed in ``BOUNDARIES`` and
reads ``convolve_extended``'s third positional argument as the method.  A
rename in the package would otherwise surface only as a crash of a traced
benchmark run.  This module reads ``perfbench/`` and changes nothing there.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from rickerwaves import GaussianKernel, convolve_extended, discretize

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def boundaries():
    # parse rather than import: spans.py is the benchmark's, not a package module
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no BOUNDARIES in {SPANS}")


@pytest.mark.parametrize("module,attribute", boundaries())
def test_traced_boundary_resolves(module, attribute):
    mod = importlib.import_module(f"rickerwaves.{module}")
    assert callable(getattr(mod, attribute))


def test_convolve_extended_takes_method_positionally():
    dk = discretize(GaussianKernel(1.0), 0.1)
    values = np.linspace(0.0, 1.0, 201)
    direct = convolve_extended(values, dk, "direct")
    assert np.array_equal(direct, np.convolve(
        np.concatenate([np.zeros(dk.half_width), values, np.ones(dk.half_width)]),
        dk.weights, mode="valid"))
    assert np.max(np.abs(convolve_extended(values, dk, "fft") - direct)) <= 1e-13
