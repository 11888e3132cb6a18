"""Independent reference computations used to verify the library.

Everything here deliberately takes the brute-force route: Kronecker
direct solves, dense assembly, quadrature, and power iteration.  None of
it shares code with the solver paths it checks.
"""

import numpy as np


def vec(a):
    """Column-stacking vectorization."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v, n, m):
    return np.asarray(v).reshape((n, m), order="F")


def kron_sylvester_solve(a, b, c):
    """Solve A X + X B = C through the Kronecker-product linear system."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n, m = c.shape
    assert n * m <= 2000, "Kronecker oracle limited to small systems"
    big = np.kron(np.eye(m), a) + np.kron(b.T, np.eye(n))
    x = np.linalg.solve(big, vec(c))
    return unvec(x, n, m)


def power_eigs_symmetric(a, rng, tol=1e-13, max_it=200_000):
    """All eigenvalues of a symmetric matrix by power iteration with deflation.

    The matrix is shifted so the dominant eigenvalue of the shifted matrix
    is the largest original one; each converged pair is deflated away.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    shift = np.linalg.norm(a, ord=np.inf)  # makes a + shift*I PSD-dominant
    work = a + shift * np.eye(n)
    eigs = []
    for _ in range(n):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(max_it):
            w = work @ v
            nrm = np.linalg.norm(w)
            if nrm == 0.0:
                lam = 0.0
                break
            w /= nrm
            lam_new = w @ (work @ w)
            if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
                lam = lam_new
                v = w
                break
            lam, v = lam_new, w
        eigs.append(lam - shift)
        work = work - lam * np.outer(v, v)
    return np.sort(np.array(eigs))


def quasi_triangular_eigs(t, tol=1e-10):
    """Eigenvalues read off the 1x1 / 2x2 diagonal blocks of a real Schur factor."""
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    eigs = []
    i = 0
    while i < n:
        if i == n - 1 or abs(t[i + 1, i]) <= tol * (abs(t[i, i]) + abs(t[i + 1, i + 1]) + 1.0):
            eigs.append(complex(t[i, i]))
            i += 1
        else:
            blk = t[i : i + 2, i : i + 2]
            tr = blk[0, 0] + blk[1, 1]
            det = blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0]
            disc = tr * tr / 4.0 - det
            root = np.sqrt(complex(disc))
            eigs.append(tr / 2.0 + root)
            eigs.append(tr / 2.0 - root)
            i += 2
    return np.array(eigs)


def mass_matrix_quadrature(mesh):
    """P1 mass matrix assembled with a 3-point edge-midpoint Gauss rule.

    The rule is exact for quadratics, hence exact for products of linear
    basis functions; this is an independent route to the analytic element
    matrices.
    """
    pts = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])  # reference midpoints
    wts = np.array([1.0, 1.0, 1.0]) / 3.0
    # P1 basis on the reference triangle
    phi = np.column_stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    n = mesh.nodes.shape[0]
    m = np.zeros((n, n))
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        area = 0.5 * abs(
            (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
            - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
        )
        local = np.zeros((3, 3))
        for q in range(3):
            local += wts[q] * np.outer(phi[q], phi[q])
        local *= area
        for a in range(3):
            for b in range(3):
                m[tri[a], tri[b]] += local[a, b]
    return m


def dense_nsigma(m, k, c, sigma, tau):
    """Dense space-time coupling operator from its Kronecker pieces."""
    m_t = c.shape[0]
    return np.kron(np.eye(m_t), tau * k) + np.kron(c, sigma * m)


def lower_bidiagonal(m_t):
    c = np.eye(m_t)
    c[np.arange(1, m_t), np.arange(m_t - 1)] = -1.0
    return c


def dense_schur_hat(m, k, sigma, tau, beta, m_t):
    """Dense matching-type Schur complement approximation."""
    c = lower_bidiagonal(m_t)
    nsig = dense_nsigma(m, k, c, sigma, tau)
    mm = np.kron(np.eye(m_t), m)
    nhat = nsig + (tau / np.sqrt(beta)) * mm
    return (1.0 / tau) * nhat @ np.linalg.solve(mm, nhat.T)


def dense_kkt2(m, k, sigma, tau, beta, yd):
    """Dense reduced two-block optimality system and its right-hand side."""
    n, m_t = yd.shape
    c = lower_bidiagonal(m_t)
    mm = np.kron(np.eye(m_t), m)
    nsig = dense_nsigma(m, k, c, sigma, tau)
    sb = np.sqrt(beta)
    top = np.hstack([tau * mm, sb * nsig.T])
    bot = np.hstack([sb * nsig, -tau * mm])
    mat = np.vstack([top, bot])
    rhs = np.concatenate([tau * (mm @ vec(yd)), np.zeros(n * m_t)])
    return mat, rhs


def solve_kkt2(m, k, sigma, tau, beta, yd):
    """Solve the dense reduced system; returns (Y, U, Lambda) as matrices."""
    n, m_t = yd.shape
    mat, rhs = dense_kkt2(m, k, sigma, tau, beta, yd)
    z = np.linalg.solve(mat, rhs)
    y = unvec(z[: n * m_t], n, m_t)
    lam = np.sqrt(beta) * unvec(z[n * m_t :], n, m_t)
    return y, lam / beta, lam


def lowrank_from_dense_full_residual(a, rtol):
    """The range finder of ``lacore.lowrank_from_dense`` with every round's residual formed in full.

    The loop as it stood before the residual norm was taken from row
    blocks: each round writes E = A - Q (Q^T A) into one n-by-m buffer
    and takes one norm of it.  It calls the library's Gram-Schmidt and
    truncation, so that a comparison checks the loop alone, and expects
    a finite, nonzero table with ``rtol > 0``.
    """
    from eddyopt.lacore import (
        RANGE_BLOCK,
        RANGE_BUDGET_FRACTION,
        RANGE_CAP_FRACTION,
        LowRankMatrix,
        mgs_orthonormalize,
        truncated_svd,
    )

    a = np.asarray(a, dtype=float)
    n, m = a.shape
    norm_a = float(np.linalg.norm(a))
    allowed = rtol * norm_a
    rng = np.random.default_rng(0)
    q = np.zeros((n, 0))
    resid, resid_norm = a, norm_a
    buf = None
    width = RANGE_BLOCK
    while resid_norm > RANGE_BUDGET_FRACTION * allowed:
        if q.shape[1] + width > RANGE_CAP_FRACTION * min(n, m):
            break
        block = mgs_orthonormalize(resid @ rng.standard_normal((m, width)), against=q)
        if block.shape[1] == 0:
            break
        q = np.hstack([q, block])
        core = q.T @ a
        if buf is None:
            buf = np.empty((n, m))
        resid = np.subtract(a, np.matmul(q, core, out=buf), out=buf)
        resid_norm = float(np.linalg.norm(resid))
        width *= 2
    if resid_norm > allowed:
        return truncated_svd(LowRankMatrix(a, np.eye(m)), rtol)
    if q.shape[1] == 0:
        return LowRankMatrix.zero(n, m)
    left_over = np.sqrt((allowed - resid_norm) * (allowed + resid_norm))
    return truncated_svd(LowRankMatrix(q, core.T), left_over / np.linalg.norm(core))
