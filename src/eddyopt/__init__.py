"""Low-rank all-at-once solvers for parabolic optimal control problems.

The package discretizes a distributed control problem for a conducting
(eddy-current type) parabolic model on the unit square, rewrites the
coupled space-time optimality system as a Sylvester matrix equation with
a low-rank right-hand side, and solves it with an extended Krylov
projection in space and an exact solve in time (`skpik`).  Low-rank
preconditioned MINRES and a sequential per-time-step MINRES solver are
included as baselines, together with dense oracles used for
verification.
"""

from .lacore import (
    LinAlgFailure,
    LowRankMatrix,
    MatrixMarketError,
    NotSpdError,
    SingularMatrixError,
    SparseFactorization,
    StagnationError,
    SylvesterConditionError,
    mgs_orthonormalize,
    mm_read,
    mm_read_dense,
    mm_write,
    mm_write_dense,
    real_schur,
    solve_sylvester_dense,
    sparse_lu_factorize,
    sparse_spd_factorize,
    truncated_svd,
)
from .discretize import (
    Mesh2D,
    ProblemConfig,
    SpaceOperators,
    TimeGrid,
    assemble_mass,
    build_mesh,
    build_operators,
    lowrank_desired,
    sample_desired_state,
)
from .reformulate import (
    KktSystem,
    SylvesterProblem,
    assemble_kkt_dense,
    assemble_kkt_dense3,
    build_B,
    build_rhs,
    build_sylvester_problem,
    extract_solution,
    solve_kkt_dense,
    time_difference_matrix,
)
from .skpik import (
    KpikState,
    SolveReport,
    factored_residual,
    skpik_init,
    skpik_solve,
    skpik_sweep,
)
from .baselines import (
    LowRankVector,
    SchurHatApprox,
    apply_schur_hat_inv,
    build_schur_hat,
    fminres_solve,
    lowrank_axpy_truncate,
    lrminres_solve,
)

__version__ = "0.1.0"
