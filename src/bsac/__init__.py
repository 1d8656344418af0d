"""Numerical laboratory for a bulk-surface Allen-Cahn system coupled through
a Robin boundary relaxation.

The package builds finite-volume meshes on a disk or an interval, assembles
the coupled energy, gradient, and linearized operators, integrates the
gradient flow with energy-monotone implicit steppers, solves the stationary
system and the two generalized eigenproblems behind the spectral-gap
construction, and ships the post-processing used to probe decay rates, the
gradient inequality, and the small-K relaxation limit.
"""

import os

# One BLAS thread unless the caller chose a count, set before numpy is first
# imported: OpenBLAS otherwise starts one thread per core, which slows the
# eigensolver's small dense solves (96 pairs of the 128x256 Wentzell-Robin
# pencil: 0.17 s at 2 threads, 0.09 s at 1, best of seven on a 2-vCPU
# machine). It takes effect only when bsac is imported before numpy, as the
# console script does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .errors import (ConfigurationError, InputError, NumericalError, RunAbort,
                     ShapeError, StepFailure)
from .nonlinearity import (CouplingFamily, NonlinearitySpec, PotentialFamily,
                           ValidationReport, make_spec, validate_assumptions)
from .mesh import (FieldPair, Mesh, boundary_trace, build_disk, build_interval,
                   build_mesh, normal_derivative, trace_matrix)
from .operators import (DiscreteOperator, RieszMap, Variation,
                        assemble_bulk_laplacian, assemble_linearized,
                        assemble_surface_shifted_pair,
                        assemble_wentzell_robin_pair, joint_mass)
from .energy import (EnergyReport, compute_energy, compute_gradient,
                     energy_identity_residual, h_norm, v_norm, w_norm)
from .dynamics import (Checkpoint, RunConfig, StepDiagnostics,
                       TrajectoryRecord, advance_step, initial_state,
                       read_checkpoint, run_trajectory,
                       smoothed_random_state, solve_transmission_limit,
                       write_checkpoint)
from .steady_spectral import (EigenResult, EquilibriumState, SpectralReport,
                              compute_coercivity_margin, eigen_solve,
                              solve_stationary_newton, strong_form_residuals)
from .analysis import (LSProbeResult, LimitSetReport, RateFit, SweepTable,
                       convergence_diagnostic, fit_decay_rate, k_sweep,
                       ls_probe, majorization_check)
