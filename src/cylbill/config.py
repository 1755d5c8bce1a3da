"""Package-wide numerical tolerances, each defined once, and one work size.

Every module reads these constants directly, and CLI reports record the
tolerances under ``run.tolerances``, so a report states the values its
computation used.  The work size changes no result.
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

OVERLAP = 1e-9
"""Subspace overlap (largest principal-angle cosine) and containment
residual above which two subspaces count as non-orthogonal, or one as
leaking out of the other."""

SAMPLE_CHUNK = 1024
"""Samples the constructive δ sampler builds and ranks at once, which
bounds its memory; reports do not depend on it."""
