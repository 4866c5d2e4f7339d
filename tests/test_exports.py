import importlib
import pkgutil

import pytest

import cowalk

MODULES = ["cowalk"] + [f"cowalk.{info.name}" for info in pkgutil.iter_modules(cowalk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_bound(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_public_surface_is_pinned():
    # a name added to or dropped from the package's public API edits this list
    assert sorted(cowalk.__all__) == [
        "CoordinateLaw", "CutoffPoint", "Poly", "RDiffTable", "RateSchedule", "RationalFn",
        "SignCert", "Strategy", "SurvivalCurve", "TailTable", "WalkParams", "__version__",
        "backend_name", "bellman_gap", "coordinate_law", "cutoff_profile", "cutoff_time",
        "dinfty_convergence", "dominance_test", "estimate_survival", "expected_tau",
        "laplace_R", "laplace_V", "limit_tail", "mean_tau_stationary", "mk_bound_mean",
        "r_diff_table", "sample_coupling_times", "survival_exact", "survival_from_stationary",
        "survival_table", "tv_exact", "validate_marginals", "verify_argmax_grid",
    ]
