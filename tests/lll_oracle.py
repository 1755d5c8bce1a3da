"""Loop oracle for ``cylbill.geometry._lll``.

This is the LLL reduction ``Lattice`` ran before it read its Gram-Schmidt
data from one Householder QR: after every size-reduction step and every
swap it reruns a classical Gram-Schmidt, a double loop over the columns.
It takes every decision ``_lll`` takes (δ = 0.75, the same order of steps,
the same recomputation points), so the two agree wherever no ``μ``
coefficient sits at an exact tie of its rounding, which the two
Gram-Schmidt routes compute to different last bits.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from cylbill import builders, intlat, model
from cylbill.errors import LimitError
from cylbill.geometry import MAX_LLL_STEPS


def lll_loop(basis: np.ndarray):
    """LLL-reduce lattice generators (columns), with Lovász parameter 0.75.
    Returns (reduced, U) with ``reduced = basis @ U`` and ``U`` integer
    unimodular."""
    b = basis.astype(float).copy()
    d, n = b.shape
    u = np.eye(n, dtype=np.int64)

    def gso(bm):
        g = bm.copy()
        mu = np.zeros((n, n))
        nrm = np.zeros(n)
        for i in range(n):
            for j in range(i):
                if nrm[j] > 0:
                    mu[i, j] = (bm[:, i] @ g[:, j]) / nrm[j]
                g[:, i] -= mu[i, j] * g[:, j]
            nrm[i] = g[:, i] @ g[:, i]
        return mu, nrm

    mu, nrm = gso(b)
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > MAX_LLL_STEPS:
            raise LimitError(
                "MAX_LLL_STEPS",
                f"lattice reduction did not finish in {MAX_LLL_STEPS} steps")
        for j in range(k - 1, -1, -1):
            q = int(round(mu[k, j]))
            if q:
                b[:, k] -= q * b[:, j]
                u[:, k] -= q * u[:, j]
                mu, nrm = gso(b)
        if nrm[k] >= (0.75 - mu[k, k - 1] ** 2) * nrm[k - 1]:
            k += 1
        else:
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            mu, nrm = gso(b)
            k = max(k - 1, 1)
    return b, u


def census():
    """Every lattice the flow reduces on a census of hard-ball systems, as
    ``(label, kind, unequal_masses, basis)``.

    ``kind`` is ``"reduced"`` for a system's own lattice and
    ``"projected"`` for a cylinder's projected lattice, built as
    ``torusflow._FlowView`` builds it.  The systems are hb(N,2) for
    N <= 12 and hb(N,3) for N <= 8, each with unit masses and with masses
    1 + 0.1 i, then every hard-ball file in ``tests/data``, whose masses
    are unequal where its pair radii are."""
    systems = []
    for nu, top in ((2, 12), (3, 8)):
        for n in range(2, top + 1):
            for unequal in (False, True):
                masses = [1.0 + 0.1 * i * unequal for i in range(n)]
                system, _ = builders.hard_ball_system(
                    builders.HardBallParams(n, nu, masses, 0.02))
                systems.append((f"hb({n},{nu})"
                                + " masses 1+0.1i" * unequal,
                                unequal, system))
    for path in sorted((Path(__file__).parent / "data").glob("hb_*.json")):
        system = model.load_system(path)
        radii = {round(c.radius, 12) for c in system.cylinders}
        systems.append((path.name, len(radii) > 1, system))
    for label, unequal, system in systems:
        yield label, "reduced", unequal, system.lattice.basis
        for i, cyl in enumerate(system.cylinders):
            if cyl.n_generators == 0:
                continue
            w = intlat.lattice_quotient([cyl.generator_coeffs],
                                        system.dim).complement
            basis = system.base_space(i).basis
            yield (f"{label} cylinder {i}", "projected", unequal,
                   basis.T @ (system.lattice.basis @ w.astype(np.int64)))
