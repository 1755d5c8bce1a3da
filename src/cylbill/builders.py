"""Builders for the standard system families.

* hard-ball gases: N balls with masses on the unit torus, realized as a
  cylindric billiard in mass-rescaled coordinates and reduced to the
  zero-total-momentum factor;
* direct-sum systems: prescribed base spaces decomposing the space as a
  linear (not necessarily orthogonal) direct sum;
* factor (sub-) billiards: retain a subset of cylinders and quotient out
  the directions their axes share.

The factor construction works in exact integer arithmetic on lattice
coefficients: the retained axes' common directions meet the lattice in a
primitive sublattice, a unimodular completion splits off the quotient, and
the projected lattice basis and quotient generator coefficients come out
exact.  This keeps factor systems in the integer representation whenever
the parent is integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm, sqrt

import numpy as np

from . import intlat
from .classify import non_orthogonality_graph
from .errors import DegeneracyError, InputError
from .geometry import (
    Lattice,
    Subspace,
    complement,
    orthonormalize,
    projector_distance,
    span_of,
)
from .model import CylinderSpec, CylindricBilliardSystem

__all__ = [
    "HardBallParams",
    "HardBallEmbedding",
    "FactorReport",
    "hard_ball_system",
    "pair_radius",
    "direct_sum_system",
    "sub_billiard",
    "BuilderError",
    "NotDirectSumError",
    "FactorLatticeError",
]


class BuilderError(InputError, ValueError):
    pass


class NotDirectSumError(BuilderError):
    """Supplied base spaces do not decompose the space as a direct sum."""


class FactorLatticeError(DegeneracyError, RuntimeError):
    """The common axis sublattice's vectors lost rank in floats."""


# ---------------------------------------------------------------------------
# Hard-ball systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HardBallParams:
    """N hard balls of one radius with positive masses on the unit torus.

    Two balls overlap wherever they stand once ``2 r`` reaches ``√ν / 2``,
    the largest distance on the unit ν-torus, so ``4 r ≥ √ν`` is refused.
    That limit is sufficient, not necessary: a smaller radius can still
    leave too little free space for a start point to be sampled (two balls
    with ν = 3 and r = 0.42 do).
    """

    n_balls: int
    torus_dim: int
    masses: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.n_balls < 2:
            raise BuilderError("need at least 2 balls")
        if self.torus_dim < 2:
            raise BuilderError("torus dimension must be >= 2")
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        if len(self.masses) != self.n_balls:
            raise BuilderError("one mass per ball required")
        if not all(isfinite(m) and m > 0 for m in self.masses):
            raise BuilderError("masses must be finite and positive")
        if not (isfinite(self.radius) and self.radius > 0):
            raise BuilderError("ball radius must be finite and positive")
        if 4.0 * self.radius >= sqrt(self.torus_dim):
            raise BuilderError(
                f"ball radius {self.radius:g} is at least sqrt({self.torus_dim})"
                f"/4 = {sqrt(self.torus_dim) / 4:.4g}: any two balls overlap "
                "wherever they stand")


def pair_radius(m_i: float, m_j: float, r: float) -> float:
    """Base-sphere radius of the collision cylinder of a ball pair."""
    return 2.0 * r * np.sqrt(m_i * m_j / (m_i + m_j))


@dataclass(eq=False)
class HardBallEmbedding:
    """Coordinate bookkeeping between ball space and the reduced system.

    Positions/velocities of the balls are rescaled by sqrt(mass) so the
    kinetic-energy metric becomes the standard inner product, then mapped
    onto the orthonormal basis of the zero-total-momentum subspace.
    """

    params: HardBallParams
    pairs: tuple[tuple[int, int], ...]
    scale: np.ndarray            # sqrt(mass) per flat coordinate
    reduced_basis: np.ndarray    # (nu*N, d) orthonormal, spans momentum-zero space
    full_system: CylindricBilliardSystem
    factor_report: "FactorReport"

    def _flatten(self, arr) -> np.ndarray:
        p = self.params
        a = np.asarray(arr, dtype=float).reshape(p.n_balls, p.torus_dim)
        return a.reshape(-1)

    def reduce_positions(self, positions) -> np.ndarray:
        """Map ball positions (N, nu) to reduced coordinates."""
        return self.reduced_basis.T @ (self.scale * self._flatten(positions))

    def reduce_velocities(self, velocities) -> np.ndarray:
        """Map zero-total-momentum ball velocities (N, nu) to reduced
        coordinates; raises if the total momentum is not (numerically) zero."""
        p = self.params
        v = np.asarray(velocities, dtype=float).reshape(p.n_balls, p.torus_dim)
        mom = np.sum(np.array(p.masses)[:, None] * v, axis=0)
        if np.linalg.norm(mom) > 1e-9 * max(1.0, float(np.abs(v).max())):
            raise BuilderError(
                f"total momentum {mom} is not zero; reduce it first"
            )
        return self.reduced_basis.T @ (self.scale * v.reshape(-1))

    def lift_positions(self, reduced) -> np.ndarray:
        """One representative ball configuration (N, nu) for a reduced point
        (the component along the factored-out uniform translations is 0)."""
        p = self.params
        flat = (self.reduced_basis @ np.asarray(reduced, dtype=float)) / self.scale
        return flat.reshape(p.n_balls, p.torus_dim)


def hard_ball_system(
    params: HardBallParams,
) -> tuple[CylindricBilliardSystem, HardBallEmbedding]:
    """Construct the reduced hard-ball billiard.

    The full system lives in nu*N dimensions with the mass-rescaled integer
    lattice; one cylinder per ball pair encodes the pair's contact set, with
    base-sphere radius ``2 r sqrt(m_i m_j / (m_i + m_j))``.  The returned
    system is its factor by the common axis directions (uniform
    translations of all balls), of dimension nu*(N-1).
    """
    n, nu = params.n_balls, params.torus_dim
    full_dim = n * nu
    scale = np.repeat(np.sqrt(np.asarray(params.masses, dtype=float)), nu)
    lattice_basis = np.diag(scale)

    # unit[b] holds ball b's nu coordinate vectors as rows; a pair's axes
    # are its common translations, then every other ball's coordinates
    unit = np.eye(full_dim, dtype=np.int64).reshape(n, nu, full_dim)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cylinders = [
        CylinderSpec(
            radius=pair_radius(params.masses[i], params.masses[j],
                               params.radius),
            translation=np.zeros(full_dim),
            generator_coeffs=np.concatenate((
                unit[i] + unit[j],
                unit[[b for b in range(n) if b not in (i, j)]].reshape(
                    -1, full_dim))).T.copy(),
        )
        for i, j in pairs
    ]

    full_system = CylindricBilliardSystem(
        dim=full_dim,
        lattice=Lattice(lattice_basis),
        cylinders=cylinders,
    )
    reduced, report = sub_billiard(full_system, range(len(pairs)))
    embedding = HardBallEmbedding(
        params=params,
        pairs=tuple(pairs),
        scale=scale,
        reduced_basis=report.active_space.basis,
        full_system=full_system,
        factor_report=report,
    )
    return reduced, embedding


# ---------------------------------------------------------------------------
# Direct-sum systems
# ---------------------------------------------------------------------------


def _rational_axis(lattice: Lattice, axis: Subspace) -> np.ndarray | None:
    """Primitive integer columns spanning ``axis`` in lattice coordinates,
    read from its projector there, which is rational for a rational axis
    whatever its basis (denominators and their lcm up to 10**6); or None."""
    q = orthonormalize((lattice.inv_basis @ axis.basis).T,
                       ambient_dim=axis.ambient_dim).basis
    fracs = [Fraction(x).limit_denominator(10**6) for x in (q @ q.T).flat]
    den = lcm(*[f.denominator for f in fracs])
    if den > 10**6:
        return None
    p = np.array([int(f * den) for f in fracs],
                 dtype=np.int64).reshape(q.shape[0], q.shape[0])
    cols = p[:, intlat.pivot_columns(p)]
    if cols.shape[1] != axis.dim:
        return None
    return cols // np.gcd.reduce(cols, axis=0)


def direct_sum_system(
    block_dims,
    bases,
    radii,
    translations=None,
    lattice_basis=None,
) -> tuple[CylindricBilliardSystem, np.ndarray]:
    """System whose base spaces are the given direct-sum blocks.

    The generator of each cylinder is the orthocomplement of its base
    space.  Generators that are recognizably rational in lattice
    coordinates are stored exactly as integer coefficient matrices; others
    fall back to a real axis basis with a provenance note (such systems are
    classification-grade, since no lattice is certified to align with
    their axes).  The non-orthogonality graph of the blocks, a boolean
    adjacency matrix, is returned alongside the system.
    """
    bases = list(bases)
    block_dims = [int(x) for x in block_dims]
    if len(bases) != len(block_dims):
        raise NotDirectSumError("block_dims and bases disagree in length")
    if not bases:
        raise NotDirectSumError("need at least one block")
    d = bases[0].ambient_dim
    for s, dim_expected in zip(bases, block_dims):
        if s.ambient_dim != d:
            raise NotDirectSumError("blocks live in different ambient spaces")
        if s.dim != dim_expected:
            raise NotDirectSumError(
                f"block of dim {s.dim} where {dim_expected} was declared"
            )
    if sum(block_dims) != d:
        raise NotDirectSumError(f"block dims sum to {sum(block_dims)}, not {d}")
    if span_of(bases).dim != d:
        raise NotDirectSumError("blocks are linearly dependent; not a direct sum")

    radii = [float(r) for r in radii]
    if len(radii) != len(bases):
        raise BuilderError("one radius per block required")
    if translations is None:
        translations = [np.zeros(d)] * len(bases)
    lattice = Lattice(np.eye(d) if lattice_basis is None else lattice_basis)

    cylinders = []
    for idx, base in enumerate(bases):
        axis = complement(base)
        coeffs = _rational_axis(lattice, axis)
        if coeffs is not None and projector_distance(
            orthonormalize((lattice.basis @ coeffs.astype(float)).T,
                           ambient_dim=d),
            axis,
        ) < 1e-9:
            cylinders.append(
                CylinderSpec(
                    radius=radii[idx],
                    translation=translations[idx],
                    generator_coeffs=coeffs,
                )
            )
        else:
            cylinders.append(
                CylinderSpec(
                    radius=radii[idx],
                    translation=translations[idx],
                    generator_basis=axis.basis,
                    provenance="direct-sum builder: axis not lattice-aligned",
                )
            )
    system = CylindricBilliardSystem(
        dim=d,
        lattice=lattice,
        cylinders=cylinders,
    )
    return system, non_orthogonality_graph(bases)


# ---------------------------------------------------------------------------
# Factor (sub-) billiards
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FactorReport:
    """What the factor construction did; a drift space that loses the
    exact ``drift_lattice_rank`` raises ``FactorLatticeError`` instead."""

    parent_indices: tuple[int, ...]
    active_space: Subspace       # parent-frame span of the retained base spaces
    drift_space: Subspace        # parent-frame common axis directions
    drift_lattice_rank: int


def sub_billiard(
    system: CylindricBilliardSystem, indices
) -> tuple[CylindricBilliardSystem, FactorReport]:
    """Factor billiard of the cylinders in ``indices``.

    The retained axes' common directions carry no dynamics (the velocity
    component along them never changes), so the configuration torus is
    quotiented by them; the result lives in the span of the retained base
    spaces with the projected lattice.  Requires an integer-generator
    parent; the quotient is computed exactly in lattice coefficients, and
    only the drift space is read in floats, from its kernel.
    """
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise BuilderError("index set must be nonempty")
    for i in idx:
        if not 0 <= i < system.k:
            raise BuilderError(f"cylinder index {i} out of range")
        if not system.cylinders[i].lattice_aligned:
            raise BuilderError(
                "factor construction needs integer generator coefficients "
                f"(cylinder {i} carries a real axis basis)"
            )
    d = system.dim
    lat_basis = system.lattice.basis

    # common axis directions, exactly, in lattice coefficients
    quotient = intlat.lattice_quotient(
        [system.cylinders[i].generator_coeffs for i in idx], d)
    nu0 = quotient.rank

    drift = (
        orthonormalize((lat_basis @ quotient.kernel.astype(float)).T,
                       ambient_dim=d)
        if nu0
        else Subspace.zero(d)
    )
    if drift.dim != nu0:
        raise FactorLatticeError(
            f"common axis directions have lattice rank {nu0} but their "
            f"lattice vectors span dimension {drift.dim}"
        )
    active = complement(drift)

    q = active.basis                                   # (d, p)
    factor_lattice = q.T @ (lat_basis @ quotient.complement.astype(float))

    cylinders = []
    for block, i in enumerate(idx):
        cyl = system.cylinders[i]
        # drop columns that add no rank (axis directions inside the drift
        # space), read from the quotient's elimination of this block
        kept = cyl.generator_coeffs[:, quotient.kept_columns(block)]
        coeffs = np.array(quotient.coordinates(kept), dtype=np.int64,
                          order="C")
        cylinders.append(
            CylinderSpec(
                radius=cyl.radius,
                translation=q.T @ cyl.translation,
                generator_coeffs=coeffs,
            )
        )

    factor = CylindricBilliardSystem(
        dim=d - nu0,
        lattice=Lattice(factor_lattice),
        cylinders=cylinders,
    )
    report = FactorReport(
        parent_indices=tuple(idx),
        active_space=active,
        drift_space=drift,
        drift_lattice_rank=nu0,
    )
    return factor, report
