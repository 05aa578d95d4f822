"""The package names the benchmark uses must exist where it looks for them.

``perfbench/spans.py`` wraps module attributes listed in ``BOUNDARIES`` and
reads ``convolve_extended``'s third positional argument as the method, and
its per-step metrics count the solver's calls of ``waves.apply_Q`` and
``waves.front_position``; the
workload, per-layer and reference scripts import names from the package and
read attributes of its modules.  A rename or deletion in the package would
otherwise surface only as a crash of a benchmark run.  This module reads
``perfbench/`` and changes nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import rickerwaves
from rickerwaves import (
    GaussianKernel,
    ModelParams,
    convolve_extended,
    discretize,
    find_bistable_wave,
    waves,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
CALLERS = ("workloads.py", "layers.py", "make_reference.py")


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


def is_module(name):
    return importlib.util.find_spec(f"rickerwaves.{name}") is not None


def package_references(script):
    """(name, attribute) pairs a benchmark script reads from the package.

    Every ``from rickerwaves import X`` gives (X, None); every ``m.attr`` or
    ``self.m.attr``, where ``m`` is a package module imported that way in the
    same file, gives (m, attr).
    """
    tree = ast.parse((PERFBENCH / script).read_text())
    imported = sorted({alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.module == "rickerwaves"
                       for alias in node.names})
    modules = {name for name in imported if is_module(name)}
    attributes = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name):
            name = owner.id
        elif isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) \
                and owner.value.id == "self":
            name = owner.attr
        else:
            continue
        if name in modules:
            attributes.add((name, node.attr))
    return [(name, None) for name in imported] + sorted(attributes)


def resolves(name, attribute):
    if attribute is None:
        return is_module(name) or hasattr(rickerwaves, name)
    return hasattr(importlib.import_module(f"rickerwaves.{name}"), attribute)


@pytest.mark.parametrize("script", CALLERS)
def test_benchmark_package_references_resolve(script):
    references = package_references(script)
    assert references, f"{script} reads nothing from the package"
    missing = [".".join(filter(None, ref)) for ref in references if not resolves(*ref)]
    assert not missing, f"perfbench/{script} uses names the package lacks: {missing}"


def test_convolve_extended_takes_method_positionally():
    dk = discretize(GaussianKernel(1.0), 0.1)
    values = np.linspace(0.0, 1.0, 201)
    direct = convolve_extended(values, dk, "direct")
    assert np.array_equal(direct, np.convolve(
        np.concatenate([np.zeros(dk.half_width), values, np.ones(dk.half_width)]),
        dk.weights, mode="valid"))
    assert np.max(np.abs(convolve_extended(values, dk, "fft") - direct)) <= 1e-13


def test_solver_steps_through_the_wrapped_globals(monkeypatch):
    # one apply_Q call per step plus one for the residual, and one front
    # search per step, each looked up as a waves global and called with
    # three positional arguments
    calls = {"apply_Q": [], "front_position": []}
    for name in calls:
        original = getattr(waves, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name].append((len(args), kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(waves, name, counting)
    k = GaussianKernel(1.0)
    wp = find_bistable_wave(ModelParams(0.5, 0.5, 2.0, 3.0), k, k)
    assert calls["apply_Q"] == [(4, {})] * (wp.steps + 1)
    assert calls["front_position"] == [(3, {})] * wp.steps
