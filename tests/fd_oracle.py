"""Finite-difference oracle for the exact neutral-space chain of
``cylbill.paths``.

The derivatives of a path's final velocity are central differences over
probe paths that the stacked collision kernel traces together with the
base path: under uniform cylinder translations (``dvm_matrix``, whose
column space is the expanding span and whose kernel is the neutral space),
under independent per-cylinder translations (``w_plus_tilde``), and of the
map (initial velocity, offsets) -> (initial velocity, collision normals)
(``theta_rank``).  Near tangency the truncation error swamps the
derivative, so a path must clear an incidence floor, every probe must
trace, and a derivative's columns must be tangent to the velocity sphere;
otherwise ``PerturbationFailure``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cylbill.config import RANK_REL
from cylbill.geometry import (
    Subspace,
    complement,
    null_space,
    orthonormalize,
    projector_distance,
)
from cylbill.paths import (
    EuclideanPathSpec,
    _check_spec,
    _collide,
    _offset_row,
    _SequenceView,
    _Stack,
    apply_reflections,
    trace,
)

FD_STEP = 1e-6
"""Central-difference step."""

FD_RANK_REL = 1e-6
"""Rank cutoff for finite-difference matrices, looser than ``RANK_REL``."""

FD_INCIDENCE = 0.03
"""Smallest collision incidence |<v, n>| a probed path may have."""


def column_space(m, rel_tol: float = RANK_REL) -> Subspace:
    """Column space of a matrix at the given relative rank tolerance."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    d = m.shape[0]
    if m.shape[1] == 0:
        return Subspace.zero(d)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    smax = s[0] if len(s) else 0.0
    if smax == 0.0:
        return Subspace.zero(d)
    r = int(np.sum(s >= rel_tol * smax))
    return Subspace(d, u[:, :r])


class PerturbationFailure(RuntimeError):
    """A finite-difference probe left the set of valid paths."""


def _require_clear_of_tangency(min_incidence: float) -> None:
    if min_incidence < FD_INCIDENCE:
        raise PerturbationFailure(
            f"collision incidence {min_incidence:.2e} below the "
            f"finite-difference floor {FD_INCIDENCE:.2e}"
        )


def _check_fd_quality(mat: np.ndarray, v_final: np.ndarray,
                      tol: float = 1e-6) -> None:
    """Columns of a final-velocity derivative must be tangent to the unit
    sphere at the final velocity.  A violation means the finite differences
    straddled a tangency and the matrix is garbage."""
    if mat.size == 0:
        return
    scale = np.maximum(1.0, np.linalg.norm(mat, axis=0))
    if np.max(np.abs(v_final @ mat) / scale) > tol:
        raise PerturbationFailure(
            "derivative columns are not tangent to the velocity sphere; "
            "path too close to tangency for finite differences"
        )


def _probe(view: _SequenceView, v0s, offsets, what: str) -> _Stack:
    """Trace a base path (row 0) and its finite-difference probes as one
    stack.  The base must clear the incidence floor and every row must
    trace, else ``PerturbationFailure``."""
    stack = _collide(view, np.asarray(v0s, dtype=float),
                     np.asarray(offsets, dtype=float))
    _require_clear_of_tangency(stack.min_incidence[0])   # NaN if it failed
    failed = np.flatnonzero(stack.status)
    if failed.size:
        exc = stack.error(failed[0])
        raise PerturbationFailure(
            f"{what} probe failed ({exc}); path too close to tangency"
        ) from exc
    return stack


def _offset_differences(view: _SequenceView, spec: EuclideanPathSpec,
                        shift: np.ndarray, what: str) -> np.ndarray:
    """d x k matrix of central differences of the final velocity, column i
    for moving the offset row by ``shift[i]`` (one probe step)."""
    row = _offset_row(spec.offsets)
    k = shift.shape[0]
    stack = _probe(view, np.tile(spec.v0, (2 * k + 1, 1)),
                   np.vstack([row, row + shift, row - shift]), what)
    vf = stack.velocities[:, -1]
    mat = (vf[1:k + 1] - vf[k + 1:]).T / (2.0 * FD_STEP)
    _check_fd_quality(mat, vf[0])
    return mat


def dvm_matrix(system, labels, spec: EuclideanPathSpec) -> np.ndarray:
    """d x d matrix of final-velocity derivatives under uniform cylinder
    translations along the coordinate axes (central differences)."""
    view = _SequenceView(system, labels)
    _check_spec(view, spec)
    # row i: the offsets of every cylinder moved by h e_i
    shift = FD_STEP * np.hstack([np.zeros((view.d, 0))] + view.bases)
    return _offset_differences(view, spec, shift, "translation")


def _each_matrix(system, labels, spec) -> np.ndarray:
    """d x (sum of base dims) matrix: final-velocity derivatives under
    independent per-cylinder translations along base coordinates."""
    view = _SequenceView(system, labels)
    _check_spec(view, spec)
    return _offset_differences(view, spec, FD_STEP * np.eye(view.width),
                               "per-cylinder")


def w_plus(system, labels, spec: EuclideanPathSpec) -> Subspace:
    """Span of final-velocity derivatives under uniform translations."""
    return column_space(dvm_matrix(system, labels, spec),
                        rel_tol=FD_RANK_REL)


def w_plus_tilde(system, labels, spec: EuclideanPathSpec) -> Subspace:
    """Span of final-velocity derivatives under independent per-cylinder
    translations; contains (and in fact equals) the uniform-translation
    span."""
    return column_space(_each_matrix(system, labels, spec),
                        rel_tol=FD_RANK_REL)


@dataclass(eq=False)
class NeutralSpaceReport:
    kernel: Subspace
    pushed_complement: Subspace
    residual: float


def neutral_space_detail(system, labels,
                         spec: EuclideanPathSpec) -> NeutralSpaceReport:
    """Neutral directions two ways: kernel of the derivative matrix, and the
    orthocomplement of the expanding span pulled back through the
    reflections in reverse order.  Their projector distance is reported."""
    res = trace(system, labels, spec)
    mat = dvm_matrix(system, labels, spec)
    kernel = null_space(mat, rel_tol=FD_RANK_REL)
    comp = complement(column_space(mat, rel_tol=FD_RANK_REL))
    if comp.dim:
        pulled = apply_reflections(comp.basis, res.normals[::-1])
        pushed = orthonormalize(pulled.T, ambient_dim=comp.ambient_dim)
    else:
        pushed = comp
    return NeutralSpaceReport(
        kernel=kernel,
        pushed_complement=pushed,
        residual=projector_distance(kernel, pushed),
    )


def _tangent_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to unit vector v."""
    d = v.shape[0]
    return complement(Subspace(d, v.reshape(d, 1))).basis


def theta_full_rank(system, labels) -> int:
    """Target rank: sphere dimension plus one projective dimension per
    collision."""
    view = _SequenceView(system, labels)
    return (view.d - 1) + sum(nu - 1 for nu in view.dims)


def theta_rank(system, labels, spec: EuclideanPathSpec) -> int:
    """FD rank of the map (initial velocity, offsets) -> (initial velocity,
    collision normals), in local charts.  Full value means the collision
    normals can be perturbed independently and arbitrarily."""
    view = _SequenceView(system, labels)
    _check_spec(view, spec)
    d = view.d
    m = spec.m
    if m == 0:
        return d - 1
    h = FD_STEP
    v0_tan = _tangent_basis(spec.v0)
    row = _offset_row(spec.offsets)
    k = row.shape[0]
    # rows: the base; the initial velocity moved on the sphere, + then -
    # along each tangent direction; each offset coordinate moved, + then -
    v0s = [spec.v0]
    for i in range(d - 1):
        for sign in (1.0, -1.0):
            v = spec.v0 + sign * h * v0_tan[:, i]
            v0s.append(v / np.linalg.norm(v))
    v0s.extend([spec.v0] * (2 * k))
    steps = np.repeat(h * np.eye(k), 2, axis=0)
    steps[1::2] *= -1.0
    stack = _probe(view, v0s,
                   np.vstack([np.tile(row, (2 * d - 1, 1)), row + steps]),
                   "chart")

    normal_charts = []
    for j in range(m):
        b = view.bases[j]
        n_local = b.T @ stack.normals[0, j]
        n_local /= np.linalg.norm(n_local)
        loc = complement(Subspace(view.dims[j], n_local.reshape(-1, 1))).basis
        normal_charts.append(b @ loc)   # ambient directions tangent to the normal

    coords = np.array([
        np.concatenate([v0_tan.T @ v0]
                       + [normal_charts[j].T @ stack.normals[i, j]
                          for j in range(m)])
        for i, v0 in enumerate(v0s)
    ])
    jac = (coords[1::2] - coords[2::2]).T / (2.0 * h)
    assert jac.shape[0] == (d - 1) + sum(nu - 1 for nu in view.dims)
    s = np.linalg.svd(jac, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= FD_RANK_REL * s[0]))
