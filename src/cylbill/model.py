"""Cylindric billiard systems: cylinders over a lattice, validation, file I/O.

A cylinder is the set of torus points within ``radius`` of a translated
subtorus.  Its axis direction (the generator subspace) is normally given as
integer combinations of the lattice basis, which makes the subtorus
structure exact by construction; factor systems built downstream may
instead carry a real axis basis together with a provenance note.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fileio, intlat
from .errors import InputError
from .geometry import Lattice, Subspace, orthonormal_stack, orthonormalize

__all__ = [
    "CylinderSpec",
    "CylindricBilliardSystem",
    "ValidationReport",
    "validate",
    "save_system",
    "load_system",
    "load_document",
    "system_to_dict",
    "system_from_dict",
    "SystemFormatError",
]

FORMAT_NAME = "cylbill-system"
FORMAT_VERSION = 1


class SystemFormatError(InputError, ValueError):
    """A system file failed to parse or carry the required fields."""


_INT64 = np.iinfo(np.int64)


def _int64_coeffs(c: np.ndarray) -> np.ndarray:
    """``c`` as int64, refusing an entry that is not a finite integer
    within the int64 range."""
    out = np.empty(c.shape, dtype=np.int64)
    for pos, x in np.ndenumerate(c):
        try:
            n = int(x)
        except (OverflowError, TypeError, ValueError):
            raise ValueError(
                f"generator_coeffs entry {x} is not a finite integer"
            ) from None
        if n != x:
            raise ValueError(f"generator_coeffs must be integral, not {x}")
        if not _INT64.min <= n <= _INT64.max:
            raise ValueError(f"generator_coeffs entry {n} is outside int64")
        out[pos] = n
    return out


@dataclass(eq=False)
class CylinderSpec:
    """One spherical cylinder.

    Exactly one of ``generator_coeffs`` (integer columns of lattice-basis
    coefficients) or ``generator_basis`` (real ambient columns) must be
    present.  ``generator_coeffs`` is stored as int64; an entry that is not
    a finite integer within int64 is refused.  ``translation`` positions
    the cylinder in the torus and is stored as a fundamental-domain
    representative by the owning system.
    """

    radius: float
    translation: np.ndarray
    generator_coeffs: np.ndarray | None = None
    generator_basis: np.ndarray | None = None
    provenance: str = ""

    def __post_init__(self):
        self.radius = float(self.radius)
        self.translation = np.asarray(self.translation, dtype=float).reshape(-1)
        if (self.generator_coeffs is None) == (self.generator_basis is None):
            raise ValueError(
                "exactly one of generator_coeffs / generator_basis is required"
            )
        if self.generator_coeffs is not None:
            c = np.asarray(self.generator_coeffs)
            if c.ndim != 2:
                raise ValueError("generator_coeffs must be a matrix (d x n_gen)")
            self.generator_coeffs = (c if c.dtype == np.int64
                                     else _int64_coeffs(c))
        else:
            b = np.asarray(self.generator_basis, dtype=float)
            if b.ndim != 2:
                raise ValueError("generator_basis must be a matrix (d x n_gen)")
            self.generator_basis = b

    @property
    def n_generators(self) -> int:
        g = self.generator_coeffs
        return g.shape[1] if g is not None else self.generator_basis.shape[1]

    @property
    def lattice_aligned(self) -> bool:
        return self.generator_coeffs is not None


@dataclass(eq=False)
class CylindricBilliardSystem:
    """Static model: ambient dimension, structure lattice, cylinders."""

    dim: int
    lattice: Lattice
    cylinders: list[CylinderSpec]
    # the base spaces, filled for every cylinder at once
    _spaces: list | None = field(default=None, init=False, repr=False)
    # the flow's collision-scan arrays, built on first use by torusflow
    _flow_cache: object = field(default=None, init=False, repr=False)
    # torusflow.detect_splitting's verdict per collided label tuple: the
    # witness with cylinder labels, or None for a transitive set
    _splittings: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.lattice.ambient_dim != self.dim:
            raise ValueError("lattice dimension does not match system dimension")
        wrapped = []
        for cyl in self.cylinders:
            t = np.asarray(cyl.translation, dtype=float).reshape(-1)
            if t.shape[0] != self.dim:
                raise ValueError("cylinder translation has wrong dimension")
            # a non-finite translation has no cell representative; it is
            # kept as given for validate to refuse
            tw = self.lattice.wrap(t)[0] if np.isfinite(t).all() else t
            wrapped.append(
                CylinderSpec(
                    radius=cyl.radius,
                    translation=tw,
                    generator_coeffs=cyl.generator_coeffs,
                    generator_basis=cyl.generator_basis,
                    provenance=cyl.provenance,
                )
            )
        self.cylinders = wrapped

    @property
    def k(self) -> int:
        return len(self.cylinders)

    def _fill_spaces(self) -> list[Subspace]:
        """Every cylinder's base space, from one stacked Gram-Schmidt pass
        and one batched SVD.  The axis columns (lattice basis times
        coefficients, or the real basis) are padded with zero columns to
        the widest; base space i is spanned by the last ``d - dim_i`` left
        singular vectors of the orthonormalized axis columns i."""
        if self._spaces is None:
            d, k = self.dim, self.k
            axes = [self.lattice.basis @ c.generator_coeffs.astype(float)
                    if c.generator_coeffs is not None else c.generator_basis
                    for c in self.cylinders]
            stack = np.zeros((k, d, max((a.shape[1] for a in axes),
                                        default=0)))
            for i, a in enumerate(axes):
                stack[i, :, :a.shape[1]] = a
            q = orthonormal_stack(stack)
            dims = q.any(axis=1).sum(axis=1).tolist()
            inner = [i for i, m in enumerate(dims) if 0 < m < d]
            left = dict(zip(inner, np.linalg.svd(
                q[inner], full_matrices=True)[0])) if inner else {}
            self._spaces = [Subspace(d, left[i][:, m:]) if i in left
                            else Subspace.full(d) if m == 0
                            else Subspace.zero(d)
                            for i, m in enumerate(dims)]
        return self._spaces

    def base_space(self, i: int) -> Subspace:
        """Orthocomplement of the i-th cylinder's axis directions;
        collisions change velocity only inside this subspace.  The first
        call fills every cylinder's base space at once."""
        return self._fill_spaces()[i]

    def base_spaces(self) -> list[Subspace]:
        return list(self._fill_spaces())


@dataclass
class ValidationReport:
    """Diagnostic result of :func:`validate`; empty ``violations`` is a pass.
    A violation names its cylinder's index, or None for the whole system."""

    violations: list[tuple[int | None, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        lines = [f"VIOLATION [{'system' if i is None else f'cylinder {i}'}]"
                 f": {msg}" for i, msg in self.violations]
        lines += [f"note: {n}" for n in self.notes]
        return "; ".join(lines) if lines else "valid"


def validate(system: CylindricBilliardSystem) -> ValidationReport:
    """Check every structural invariant; reports rather than raises."""
    rep = ValidationReport()
    d = system.dim
    if not system.cylinders:
        rep.violations.append((None, "the system has no cylinders"))
    for i, cyl in enumerate(system.cylinders):
        if not 0 < cyl.radius < np.inf:
            rep.violations.append(
                (i, f"radius {cyl.radius} is not finite and positive"))
        if not np.isfinite(cyl.translation).all():
            rep.violations.append((i, "translation is not finite"))
        if cyl.generator_coeffs is not None:
            c = cyl.generator_coeffs
            if c.shape[0] != d:
                rep.violations.append((i, "generator_coeffs row count != dim"))
                continue
            if c.shape[1] and intlat.integer_rank(c) != c.shape[1]:
                rep.violations.append(
                    (i, "generator_coeffs columns are rationally dependent")
                )
                continue
            gen_dim = c.shape[1]
        else:
            b = cyl.generator_basis
            if b.shape[0] != d:
                rep.violations.append((i, "generator_basis row count != dim"))
                continue
            # the fill's Gram-Schmidt on this cylinder alone: the system's fill
            # would raise on a malformed cylinder elsewhere, not report it
            gen_dim = orthonormalize(b.T, ambient_dim=d).dim
            if b.shape[1] != gen_dim:
                rep.violations.append(
                    (i, "generator_basis columns are linearly dependent")
                )
                continue
            rep.notes.append(
                f"cylinder {i} carries a real axis basis"
                + (f" ({cyl.provenance})" if cyl.provenance else "")
                + "; lattice alignment not certified"
            )
        base_dim = d - gen_dim
        if base_dim < 2:
            rep.violations.append(
                (i, f"base space dimension {base_dim} < 2")
            )
    return rep


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def system_to_dict(system: CylindricBilliardSystem) -> dict:
    cyls = []
    for cyl in system.cylinders:
        entry = {
            "radius": cyl.radius,
            "translation": [float(x) for x in cyl.translation],
        }
        if cyl.generator_coeffs is not None:
            entry["generator_coeffs"] = [
                [int(x) for x in row] for row in cyl.generator_coeffs
            ]
        else:
            entry["generator_basis"] = [
                [float(x) for x in row] for row in cyl.generator_basis
            ]
        if cyl.provenance:
            entry["provenance"] = cyl.provenance
        cyls.append(entry)
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "dim": system.dim,
        "lattice_basis": [[float(x) for x in row] for row in system.lattice.basis],
        "cylinders": cyls,
    }


def system_from_dict(doc: dict) -> CylindricBilliardSystem:
    if not isinstance(doc, dict):
        raise SystemFormatError("system document must be an object")
    if doc.get("format") != FORMAT_NAME:
        raise SystemFormatError(
            f"unrecognized format tag {doc.get('format')!r}; expected {FORMAT_NAME!r}"
        )
    try:
        d = int(doc["dim"])
        basis = np.asarray(doc["lattice_basis"], dtype=float)
        cyl_docs = doc["cylinders"]
    except KeyError as exc:
        raise SystemFormatError(f"missing field {exc.args[0]!r}") from exc
    except (ValueError, OverflowError, TypeError) as exc:
        raise SystemFormatError(str(exc)) from exc
    if basis.shape != (d, d):
        raise SystemFormatError(f"lattice_basis shape {basis.shape} != ({d}, {d})")
    cylinders = []
    for j, entry in enumerate(cyl_docs):
        try:
            radius = float(entry["radius"])
            translation = np.asarray(entry["translation"], dtype=float)
        except KeyError as exc:
            raise SystemFormatError(
                f"cylinder {j}: missing field {exc.args[0]!r}"
            ) from exc
        except (ValueError, OverflowError, TypeError) as exc:
            raise SystemFormatError(f"cylinder {j}: {exc}") from exc
        coeffs = entry.get("generator_coeffs")
        gen_basis = entry.get("generator_basis")
        if (coeffs is None) == (gen_basis is None):
            raise SystemFormatError(
                f"cylinder {j}: exactly one of generator_coeffs/generator_basis"
            )
        try:
            cylinders.append(
                CylinderSpec(
                    radius=radius,
                    translation=translation,
                    # no cast here: CylinderSpec refuses non-integral,
                    # non-finite and out-of-int64 coefficients
                    generator_coeffs=None if coeffs is None
                    else np.asarray(coeffs).reshape(d, -1),
                    generator_basis=None if gen_basis is None
                    else np.asarray(gen_basis, dtype=float).reshape(d, -1),
                    provenance=entry.get("provenance", ""),
                )
            )
        except (ValueError, OverflowError, TypeError) as exc:
            raise SystemFormatError(f"cylinder {j}: {exc}") from exc
    try:
        return CylindricBilliardSystem(
            dim=d,
            lattice=Lattice(basis),
            cylinders=cylinders,
        )
    except ValueError as exc:
        raise SystemFormatError(str(exc)) from exc


def save_system(system: CylindricBilliardSystem, path) -> None:
    fileio.dump(system_to_dict(system), path)


def load_document(path):
    """Parse a JSON input file; a malformed one raises ``SystemFormatError``."""
    try:
        return fileio.load(path)
    except ValueError as exc:
        raise SystemFormatError(f"cannot parse {path}: {exc}") from exc


def load_system(path) -> CylindricBilliardSystem:
    return system_from_dict(load_document(path))
