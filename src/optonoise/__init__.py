"""Noise modeling and noise-averaging designs for analog optical networks.

The package covers four layers of the problem:

* :mod:`optonoise.network`: feed-forward networks and their noiseless map;
* :mod:`optonoise.noise`: the additive Gaussian noise model, splittable
  random streams, and a Monte Carlo harness;
* :mod:`optonoise.covariance`: exact covariance propagation for linear
  networks: per-layer maps, closed forms, series limits, fixed points;
* :mod:`optonoise.design_a` / :mod:`optonoise.design_b`: the two
  noise-averaging constructions (tree replication and combine/split);
* :mod:`optonoise.experiments`: desk-scale sweeps and grid scans with a
  CLI in :mod:`optonoise.cli`.
"""

__version__ = "0.1.0"

from .covariance import (
    BranchTrajectory,
    FixedPointResult,
    LinearNet,
    SeriesResult,
    SymmetricConfig,
    Trajectory,
    fixed_point_solve,
    limit_series,
    limit_series_b,
    min_stable_m,
    propagate,
    propagate_b,
    propagate_b_branchwise,
    step_map_b,
    symmetric_closed_form,
    symmetric_closed_form_b,
)
from .design_a import (
    CopyBudget,
    DesignASpec,
    budget_feasible,
    chi_mean,
    common_variance_bound,
    design_a_samples,
    deviation_check,
    equal_split_targets,
    subgaussian_norm_sq,
    sufficient_copies,
    total_copies,
)
from .design_b import (
    DesignBSpec,
    compare_design_b,
    design_b_samples,
)
from .errors import (
    ContractionError,
    ConvergenceError,
    FeasibilityError,
    IdxFormatError,
    NonlinearActivationError,
    OptoNoiseError,
    ValidationError,
)
from .experiments import (
    ExperimentConfig,
    calibrate_noise,
    insert_identity_layers,
    insertion_tuple,
    run_accuracy_experiment,
    run_depth_sweep,
    run_mse_experiment,
    scan_m_grid,
)
from .idx import load_idx_images, load_idx_labels
from .network import (
    Activation,
    Layer,
    LipschitzReport,
    Network,
    as_linear,
    forward,
    lipschitz_bounds,
    load_network,
    network_from_json,
    network_to_json,
    operator_norm,
    save_network,
)
from .noise import (
    GENERATOR_NAME,
    CovSpec,
    NoiseProfile,
    RngStream,
    SampleStats,
    noisy_forward_samples,
    stats_from_samples,
)
