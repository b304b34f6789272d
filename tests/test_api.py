"""Public API: exported names resolve, and removed names stay removed."""

import importlib
import pkgutil

import pytest

import optonoise

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(optonoise.__path__) if not info.ispkg
)

# single-vector evaluators; a single evaluation is ``*_samples(..., 1, rng)[0]``,
# and the per-trial harness built on them: use ``*_samples`` with ``stats_from_samples``
# and the structural check, which ``Network(...)`` runs at construction; the
# relative-accuracy wrapper is the one division in ``run_accuracy_experiment``;
# no command reads or writes a design spec file: build ``DesignASpec(net, copies)``
# or ``DesignBSpec(net, m)``; the typed IDX loaders replace the dispatching one;
# a trajectory holds its covariances as ``Trajectory.sigmas``; the plain-layer
# update is ``step_map_b(..., 0.0, 0.0, 1)``; the copy-count heuristics bounded
# the tree, not combine/split, and ``scan-m`` gives the contour
REMOVED = (
    "noisy_forward", "eval_design_a", "eval_design_b", "sample_noise", "monte_carlo",
    "validate", "RelativeAccuracy",
    "design_a_spec_to_json", "design_a_spec_from_json",
    "design_b_spec_to_json", "design_b_spec_from_json",
    "load_idx", "CovarianceState", "step_map", "suggested_m",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"optonoise.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"optonoise.{name}.__all__ names missing attributes {missing}"


def test_star_import():
    namespace = {}
    exec("from optonoise import *", namespace)
    assert "noisy_forward_samples" in namespace
    for name in MODULES:
        exec(f"from optonoise.{name} import *", {})


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_absent(name):
    assert not hasattr(optonoise, name)
    for module in MODULES:
        module = importlib.import_module(f"optonoise.{module}")
        assert not hasattr(module, name)
        assert name not in getattr(module, "__all__", ())
