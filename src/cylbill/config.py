"""Package-wide numerical tolerances, each defined once.

Every module reads these constants directly, and CLI reports record them
under ``run.tolerances``, so a report states the values its computation
used.
"""

RANK_REL = 1e-8
"""Relative singular-value cutoff for every rank decision on
exactly-computed matrices: ``s`` counts as zero iff ``s < RANK_REL * s_max``."""

FD_RANK_REL = 1e-6
"""The looser rank cutoff for matrices assembled from finite differences."""

DROP = 1e-10
"""Gram-Schmidt residual norm below which a vector adds no new direction."""

DISC = 1e-12
"""Tangency guard on quadratic discriminants, scaled by the natural length^2
of the collision problem: a discriminant this close to zero is grazing."""

T_MIN_GAP = 1e-9
"""Minimal admissible advance between collisions; two distinct contacts
closer than this are simultaneous."""

FD_STEP = 1e-6
"""Central-difference step."""

FD_INCIDENCE = 0.03
"""Finite-difference probes refuse paths whose smallest collision incidence
|<v, n>| is below this floor: closer to tangency the truncation error swamps
the derivative."""

OVERLAP = 1e-9
"""Subspace overlap (largest principal-angle cosine) and containment
residual above which two subspaces count as non-orthogonal, or one as
leaking out of the other."""
