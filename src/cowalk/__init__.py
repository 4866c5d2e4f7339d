"""Co-adapted couplings of continuous-time random walks on products of
complete graphs: simulation, exact coupling-time analysis, total-variation
cutoff computations, and optimality certification."""

__version__ = "0.1.0"

from ._kernels import backend_name
from .exact import (
    RDiffTable,
    SignCert,
    TailTable,
    expected_tau,
    laplace_R,
    laplace_V,
    mk_bound_mean,
    r_diff_table,
    survival_exact,
    survival_table,
)
from .optimality import bellman_gap, dominance_test, verify_argmax_grid
from .ratfun import Poly, RationalFn
from .simulate import (
    SurvivalCurve,
    estimate_survival,
    sample_coupling_times,
    validate_marginals,
)
from .states import WalkParams
from .strategies import RateSchedule, Strategy
from .tvcutoff import (
    CoordinateLaw,
    CutoffPoint,
    coordinate_law,
    cutoff_profile,
    cutoff_time,
    dinfty_convergence,
    limit_tail,
    mean_tau_stationary,
    survival_from_stationary,
    tv_exact,
)

__all__ = [
    "__version__",
    "backend_name",
    "WalkParams",
    "Strategy",
    "RateSchedule",
    "SurvivalCurve",
    "sample_coupling_times",
    "estimate_survival",
    "validate_marginals",
    "TailTable",
    "RDiffTable",
    "SignCert",
    "survival_table",
    "survival_exact",
    "laplace_V",
    "laplace_R",
    "expected_tau",
    "mk_bound_mean",
    "r_diff_table",
    "Poly",
    "RationalFn",
    "coordinate_law",
    "CoordinateLaw",
    "tv_exact",
    "cutoff_time",
    "cutoff_profile",
    "CutoffPoint",
    "survival_from_stationary",
    "limit_tail",
    "dinfty_convergence",
    "mean_tau_stationary",
    "bellman_gap",
    "verify_argmax_grid",
    "dominance_test",
]
