"""symquad: learning rotation-invariant functions of particle configurations
on S^1 and S^2 by polynomial least squares, with invariant bases and
Haar-measure data augmentation, plus a symplectic drift testbed."""

__version__ = "0.1.0"  # set before the submodules, which read it

from .coupling import (BasisSpec, CoupledFunction, clebsch_gordan, enumerate_basis,
                       invariant_basis_sphere3, invariant_indices_circle, sym_coeffs)
from .dynamics import (PerturbedPotential, PhaseState, Trajectory, default_potential,
                       force, hitting_time, simulate, simulate_batch, write_trajectory_csv)
from .experiments import (ConfigError, ExperimentConfig, ResultTable, emit_plot,
                          list_experiments, load_configs, run_config_file, run_experiment)
from .geometry import (SO2, SO3, QuadratureRule, Rotation, compose, identity_rule,
                       load_quadrature_file, sample_haar, sample_haar_many, so2_quadrature,
                       so3_quadrature_euler, verify_exactness, write_quadrature_file)
from .harmonics import (WignerBlock, apply_generalized_d, generalized_d, sph_harm_table,
                        wigner_d, wigner_little_d)
from .regression import (AugmentationScheme, Dataset, DesignFactor, RegressionSolution,
                         SchurDiagnostics, augmented_lsq, design_factor, design_matrix,
                         full_lsq, invariant_design_matrix, invariant_lsq, l2_test_error,
                         l2_test_errors, lsq_solve, rotate_dataset, schur_diagnostics)
from .sampling import (AlgebraicDecay, DistributionSpec, ExponentialDecay,
                       TargetFunction, export_dataset, import_dataset, make_target,
                       sample_dataset, sample_points)
