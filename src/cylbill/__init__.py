"""Cylindric billiards on flat tori: models, classification, path
perturbation diagnostics, event-driven simulation, and a CLI."""

from .builders import (
    FactorReport,
    HardBallEmbedding,
    HardBallParams,
    direct_sum_system,
    hard_ball_system,
    pair_radius,
    project_zero_momentum,
    sub_billiard,
)
from .errors import DegeneracyError, InputError, UsageError
from .classify import (
    SplittingWitness,
    commutant_dimension,
    count_transitive_blocks,
    is_transitive,
    is_transitive_sequence,
    is_transverse,
    non_orthogonality_graph,
    splits_according_to,
)
from .torusflow import (
    CollisionEvent,
    PhasePoint,
    TrajectoryRecord,
    detect_splitting,
    flow,
    lyapunov_max,
    next_collision,
    random_phase,
    richness_certificate,
    splitting_scan,
    unfold_to_path,
)
from .geometry import (
    Lattice,
    Subspace,
    complement,
    intersect,
    orthonormalize,
    project,
    span_of,
)
from .model import (
    CylinderSpec,
    CylindricBilliardSystem,
    ValidationReport,
    load_system,
    save_system,
    validate,
)
from .paths import (
    EuclideanPathResult,
    EuclideanPathSpec,
    delta_sigma,
    delta_sigma_constrained,
    neutral_space,
    sample_spec,
    trace,
    translate_all,
    translate_each,
    w_plus,
)

__version__ = "0.1.0"
