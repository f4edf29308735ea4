"""The names the benchmark's traced runner reaches into rg1d by: every traced
function resolves, every variant argument exists, and every counter hook
reads a real result."""

import importlib
import importlib.util
import inspect
import math
import os

import pytest

from rg1d import g1map, model, nusolver, oracle

RUNNER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "benchmarks", "runner.py")

_spec = importlib.util.spec_from_file_location("bench_runner", RUNNER)
runner = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runner)


def _traced_function(module_name, path):
    owner = importlib.import_module("rg1d." + module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


@pytest.mark.parametrize("module_name, path", runner.TRACED,
                         ids=[m + "." + p for m, p in runner.TRACED])
def test_traced_path_is_a_function_of_its_owner(module_name, path):
    assert inspect.isfunction(_traced_function(module_name, path))


@pytest.mark.parametrize("name", sorted(runner.VARIANTS))
def test_variant_argument_is_a_parameter(name):
    module_name, path = name.split(".", 1)
    argument = runner.VARIANTS[name][0]
    assert argument in inspect.signature(_traced_function(module_name, path)).parameters


def _tiny_results():
    params = model.ModelParams(lam=0.1, mu_bar=0.3, potential=model.on_site_potential(1.0),
                               beta=2.0, L=2)
    fixed = nusolver.default_model(-10, math.acos(0.5), 0.04)
    return {
        "oracle.ed_micro": oracle.ed_micro(params),
        "g1map.sweep_sector": g1map.sweep_sector(math.pi / 4.0, 1e-2, n_rays=2,
                                                 n_radii=2, n_steps=10),
        "nusolver.solve_fixed_point": nusolver.solve_fixed_point(fixed),
    }


def test_every_hook_reads_a_real_result():
    results = _tiny_results()
    assert results.keys() == runner.HOOKS.keys()
    for name, hook in runner.HOOKS.items():
        counters = hook(results[name])
        assert counters
        for key, value, op in counters:
            assert key.startswith(name + ".")
            assert isinstance(value, int) and value >= 0
            assert op in ("sum", "max")
