"""Package-wide numerical tolerances, each defined once, and the work sizes.

Every module reads these constants directly, and every CLI report records
all seven tolerances under ``run.tolerances``, so a report states the
values its computation used.  The work sizes change no result.
"""

RANK_REL = 1e-8
"""Relative singular-value cutoff for every rank decision: ``s`` counts as
zero iff ``s < RANK_REL * s_max``."""

DROP = 1e-10
"""Gram-Schmidt residual norm below which a vector adds no new direction."""

DISC = 1e-12
"""Tangency guard on quadratic discriminants, scaled by the natural length^2
of the collision problem: a discriminant this close to zero is grazing."""

T_MIN_GAP = 1e-9
"""Minimal admissible advance between collisions; two distinct contacts
closer than this are simultaneous."""

AXIS_PARALLEL = 1e-24
"""Cutoff on ``|Bᵀ v|²``, the squared base-space speed toward a cylinder,
below which a path runs parallel to its axis and never meets it."""

UNIT_NORM = 1e-12
"""Largest deviation of a velocity's norm from 1 that still counts as a
unit vector."""

OVERLAP = 1e-9
"""Subspace overlap (largest principal-angle cosine) and containment
residual above which two subspaces count as non-orthogonal, or one as
leaking out of the other."""

SAMPLE_CHUNK = 1024
"""Samples the constructive δ sampler builds and ranks at once, which
bounds its memory; reports do not depend on it."""

CHUNK_ENTRIES = 1 << 16
"""Float entries a chunked pass holds at once: the transverseness test's
flat residuals (pairs × d × k × base width) and the Lyapunov estimator's
collision maps (maps × (2d)²).  It bounds their memory; no verdict or
result depends on it."""
