"""Spectral laboratory for the 2D stochastic Navier-Stokes equations.

Simulation of the noisy system, its zero-noise limit, the controlled
linearization, and the shifted fluctuation process on the periodic torus;
rate-functional evaluation by adjoint-based optimization; Monte Carlo probes
of deviation scaling and conditional exponential bounds; and empirical
iterated-logarithm studies.
"""

__version__ = "0.14.0"

from types import ModuleType as _ModuleType

from .spectral import (
    SpectralGrid,
    SpectralField,
    NormBundle,
    default_grid,
    leray_project,
    apply_stokes,
    advection_term,
    advection_form,
    norm_bundle,
    zero_field,
    single_mode_field,
    taylor_green,
    random_solenoidal_field,
)
from .noise import (
    NoiseModel,
    SigmaParams,
    Control,
    verify_assumptions,
    control_energy,
    zero_control,
)
from .solvers import (
    SimConfig,
    Trajectory,
    solve_deterministic,
    solve_snse,
    solve_skeleton,
    IntegrationError,
)
from .deviation import (
    ConstantsLedger,
    OptParams,
    RateResult,
    FWConfig,
    ASpec,
    rate_function,
    mdp_scaling_probe,
    fw_conditional_probe,
    moment_bound_suite,
)
from .lil import (
    GeometricSchedule,
    LimitSetProbe,
    z_process,
    limit_set_distance,
    build_probe,
    strassen_cluster_study,
    classical_ratio_study,
)

# the imported names, not the submodules that importing them binds here
__all__ = [
    name for name, value in dict(globals()).items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
