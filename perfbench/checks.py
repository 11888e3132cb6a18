"""Output checks that use none of eddyopt's solver code.

A low-rank result X = X1 X2^T of A X + X B = [0 | Yd/sqrt(beta)] is
checked by recomputing the relative Frobenius residual densely, with
this module's own sparse LU of the mass matrix.  Only ``build_B`` is
taken from the package, as the definition of the time coupling.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# two correct evaluations of one residual differ by the target compression
# (trunc_tol = 1e-10 relative) and rounding; a hundredth of tol is generous
AGREE_FRACTION = 1e-2
COLUMNS = 50


class SpaceSide:
    """A = M^{-1} K for one pair of sparse operators (shift zero)."""

    def __init__(self, mass, stiffness):
        self.stiffness = sp.csr_matrix(stiffness)
        self._m_lu = spla.splu(sp.csc_matrix(mass))

    def apply_a(self, v: np.ndarray) -> np.ndarray:
        return self._m_lu.solve(np.asarray(self.stiffness @ v))


def sylvester_residual(space: SpaceSide, b_matrix, x1, x2, yd, beta) -> float:
    """||A X + X B - [0 | Yd/sqrt(beta)]||_F / ||Yd/sqrt(beta)||_F for X = x1 x2^T.

    Formed COLUMNS columns at a time, so the check adds little to the
    process's peak memory, which the benchmark reports.
    """
    m_t = yd.shape[1]
    scale = 1.0 / np.sqrt(beta)
    ax1 = space.apply_a(x1)
    bx2 = np.asarray(b_matrix.T @ x2)  # X B = x1 (B^T x2)^T
    total = 0.0
    for lo in range(0, 2 * m_t, COLUMNS):
        hi = min(lo + COLUMNS, 2 * m_t)
        res = ax1 @ x2[lo:hi].T + x1 @ bx2[lo:hi].T
        if hi > m_t:
            first = max(lo, m_t)
            res[:, first - lo :] -= scale * yd[:, first - m_t : hi - m_t]
        total += float(np.sum(res * res))
    return float(np.sqrt(total) / (scale * np.linalg.norm(yd)))


def check_lowrank(space, b_matrix, x1, x2, yd, beta, tol, reported) -> str | None:
    """A failure message for a low-rank result, or None when it passes."""
    mine = sylvester_residual(space, b_matrix, x1, x2, yd, beta)
    if not mine <= tol:
        return f"recomputed residual {mine:.3e} above tol {tol:.0e}"
    if abs(mine - reported) > AGREE_FRACTION * tol:
        return f"recomputed residual {mine:.3e} disagrees with reported {reported:.3e}"
    return None
