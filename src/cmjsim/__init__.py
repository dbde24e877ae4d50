"""Multitype branching processes counted with random characteristics.

Exact limit constants from finite model data, generation-exact Monte Carlo,
and a pre-registered statistical battery for the fluctuation dichotomy.
"""

import os

# cmjsim's matrix products are J x J with J <= 6, or R x J columns: none of
# them uses a BLAS thread, and starting OpenBLAS's threads costs each process
# ~70 ms of numpy import on a 2-CPU host.  So cmjsim defaults OpenBLAS to one
# thread before numpy loads, unless the user set any of the three variables
# OpenBLAS reads (in this order); pool workers inherit the setting.  A program
# that imported numpy before cmjsim keeps the BLAS it already started.
if not any(k in os.environ for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .characteristics import (
    Characteristic,
    NoiseLaw,
    Phi1Characteristic,
    expected_process,
    make_indicator_characteristic,
    make_phi1,
    star_transform,
)
from .constants import (
    TheoreticalConstants,
    compute_B,
    compute_constants,
    compute_sigma2,
    compute_sigma_l,
    compute_sigma_star2,
    compute_x1_x2,
    find_l_star,
)
from .model import (
    AssumptionReport,
    BranchingModel,
    OffspringLaw,
    build_model,
    validate_assumptions,
)
from .presets import PRESETS, preset, preset_names
from .scenario import Scenario, ScenarioError, load_scenario, loads_scenario, save_scenario
from .simulator import (
    BatchResult,
    ReplicateResult,
    run_batch,
    run_replicate,
    step_generation,
)
from .spectral import SpectralData, projected_power, spectral_decompose
from .stats import VerificationReport, ks_test, lln_check, verify_dichotomy

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "BatchResult",
    "BranchingModel",
    "Characteristic",
    "NoiseLaw",
    "OffspringLaw",
    "PRESETS",
    "Phi1Characteristic",
    "ReplicateResult",
    "Scenario",
    "ScenarioError",
    "SpectralData",
    "TheoreticalConstants",
    "VerificationReport",
    "build_model",
    "compute_B",
    "compute_constants",
    "compute_sigma2",
    "compute_sigma_l",
    "compute_sigma_star2",
    "compute_x1_x2",
    "expected_process",
    "find_l_star",
    "ks_test",
    "lln_check",
    "load_scenario",
    "loads_scenario",
    "make_indicator_characteristic",
    "make_phi1",
    "preset",
    "preset_names",
    "projected_power",
    "run_batch",
    "run_replicate",
    "save_scenario",
    "spectral_decompose",
    "star_transform",
    "step_generation",
    "validate_assumptions",
    "verify_dichotomy",
    "__version__",
]
