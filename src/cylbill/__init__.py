"""Cylindric billiards on flat tori: models, classification, path
perturbation diagnostics, event-driven simulation, and a CLI."""

from .builders import (
    FactorReport,
    HardBallEmbedding,
    HardBallParams,
    direct_sum_system,
    hard_ball_system,
    pair_radius,
    sub_billiard,
)
from .errors import DegeneracyError, InputError, UsageError
from .classify import (
    SplittingWitness,
    commutant_dimension,
    count_transitive_blocks,
    is_transitive,
    is_transverse,
    non_orthogonality_graph,
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
    splitting_scan,
    unfold_to_path,
)
from .geometry import (
    Lattice,
    Subspace,
    complement,
    intersect,
    orthonormalize,
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
    delta_sigma_constrained,
    neutral_space,
    trace,
    w_plus,
)

__version__ = "0.1.0"
