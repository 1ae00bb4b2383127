"""Stochastic reaction-diffusion dynamics on metric graphs.

The package builds finite connected metric graphs with generalized
Kirchhoff vertex coupling, assembles continuous piecewise-linear finite
elements with shared vertex degrees of freedom, certifies the structural
properties of the linear flow (contraction, positivity, spectrum), samples
trajectories of double-well / polynomial reaction terms driven by white or
colored edge noise with a tamed linear-implicit scheme, and estimates
temporal Hölder exponents and strong convergence orders from coupled
Monte Carlo ensembles.
"""

from .analysis import (
    EnsembleStats,
    ExponentEstimate,
    allen_cahn_energy,
    estimate_holder_exponent,
    estimate_strong_order,
    holder_exponent_from_paths,
    monte_carlo,
    run_trajectories,
    vertex_residual,
)
from .assembly import DiscreteSystem, assemble_form, dump_matrices, noise_covariance_factor
from .config import RunConfig, build_model, config_hash, parse_config
from .expressions import Expression, parse_expression
from .fields import (
    AllenCahnSpec,
    DiffusionSpec,
    DriftSpec,
    EdgeFieldSet,
    allen_cahn_system,
    build_diffusion,
    build_edge_fields,
    eval_drift,
    polynomial_drift,
    validate_diffusion,
    validate_drift,
)
from .graph import (
    MetricGraph,
    VertexMatrix,
    build_graph,
    validate_vertex_matrix,
)
from .mesh import Mesh, build_mesh, interpolate
from .noise import NoiseModel, colored_noise_operator, white_noise_model
from .report import Check, ValidationReport
from .sde import Problem, SolverConfig, TrajectorySet, simulate_path, solve_heat
from .semigroup import (
    SpectralData,
    check_contraction,
    check_positivity,
    generalized_eigs,
    semigroup_apply,
)

__version__ = "0.1.0"
