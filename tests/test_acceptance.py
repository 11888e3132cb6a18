"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  The parameter-sweep criteria take a few minutes.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import eddyopt.baselines as baselines
import eddyopt.cli as cli
from eddyopt.baselines import (
    _minres,
    apply_schur_hat_inv,
    build_schur_hat,
    combined_solution_factors,
    fminres_solve,
    lowrank_norm,
    lrminres_solve,
)
from eddyopt.discretize import (
    ProblemConfig,
    TimeGrid,
    build_mesh,
    build_operators,
    lowrank_desired,
    sample_desired_state,
)
from eddyopt.lacore import (
    LowRankMatrix,
    mm_read,
    mm_write,
    solve_sylvester_dense,
    sparse_spd_factorize,
)
from eddyopt.reformulate import (
    assemble_kkt_dense,
    assemble_kkt_dense3,
    build_sylvester_problem,
    extract_solution,
    solve_kkt_dense,
    time_difference_matrix,
    unvec,
    vec,
)
from eddyopt.skpik import factored_residual, skpik_solve

from oracles import dense_schur_hat, kron_sylvester_solve


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\ncriterion {num:02d} [{name}]: {status}{suffix}")


def _relerr(a, b):
    denom = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / (denom if denom else 1.0))


def _setup(cells, m_t, sigma, beta, example="ex1", **kw):
    mesh = build_mesh(cells)
    config = ProblemConfig(sigma=sigma, beta=beta, **kw)
    grid = TimeGrid(m_t)
    ops = build_operators(mesh, config)
    yd = sample_desired_state(example, mesh, grid)
    return ops, config, grid, yd


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence on tiny grids


def test_criterion_01_oracle_equivalence():
    failures = []
    for cells, m_t in ((2, 2), (4, 4), (8, 8)):
        for sigma in (0.0, 1e-4, 1.0, 1e4):
            for beta in (1e-2, 1e-8):
                ops, config, grid, yd = _setup(cells, m_t, sigma, beta)
                yd_lr = lowrank_desired(yd, 1e-12)
                problem = build_sylvester_problem(ops, config, grid, yd_lr)
                x, report = skpik_solve(problem, tol=1e-8, trunc_tol=1e-12)
                y, u, lam = extract_solution(x, beta)
                y_o, u_o, lam_o = solve_kkt_dense(
                    assemble_kkt_dense(ops, config, grid, yd), beta
                )
                errs = (
                    _relerr(y.to_dense(), y_o),
                    _relerr(u.to_dense(), u_o),
                    _relerr(lam.to_dense(), lam_o),
                )
                if not report.converged or max(errs) > 1e-6:
                    failures.append(
                        f"n={ops.n} mT={m_t} sigma={sigma:g} beta={beta:g}: "
                        f"errs={errs} converged={report.converged}"
                    )
    _line(1, "oracle equivalence", not failures, f"{len(failures)} failing points")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 2: reformulation chain


def test_criterion_02_reformulation_chain():
    failures = []
    for cells, m_t in ((2, 2), (4, 4), (8, 8)):
        for sigma, beta in ((1.0, 1e-2), (1e-4, 1e-8), (0.0, 1e-2)):
            ops, config, grid, yd = _setup(cells, m_t, sigma, beta)
            # three-block system eliminates to the reduced one
            y3, u3, lam3 = solve_kkt_dense(assemble_kkt_dense3(ops, config, grid, yd))
            y2, u2, lam2 = solve_kkt_dense(
                assemble_kkt_dense(ops, config, grid, yd), beta
            )
            chain1 = max(
                _relerr(y3, y2),
                _relerr(u3, u2),
                _relerr(lam3, lam2),
                _relerr(u3, lam3 / beta),
            )
            # the Kronecker splitting agrees with the matrix-equation solve
            yd_lr = lowrank_desired(yd, 1e-14)
            problem = build_sylvester_problem(ops, config, grid, yd_lr)
            a_dense = (
                np.linalg.solve(ops.mass.toarray(), ops.stiffness.toarray())
                + problem.shift * np.eye(ops.n)
            )
            x = kron_sylvester_solve(
                a_dense, problem.b_matrix.toarray(), problem.r1 @ problem.r2.T
            )
            mass_d = ops.mass.toarray()
            stiff_d = ops.stiffness.toarray()
            c = time_difference_matrix(grid.m_t).toarray()
            eye = np.eye(grid.m_t)
            tau, sb, sg = grid.tau, np.sqrt(beta), config.sigma
            s_blk = np.block([[tau * eye, sg * sb * c.T], [sg * sb * c, -tau * eye]])
            sk_blk = np.block(
                [[np.zeros_like(eye), tau * sb * eye], [tau * sb * eye, np.zeros_like(eye)]]
            )
            kron_mat = np.kron(s_blk, mass_d) + np.kron(sk_blk, stiff_d)
            kron_rhs = np.concatenate(
                [tau * (np.kron(eye, mass_d) @ vec(yd)), np.zeros(ops.n * m_t)]
            )
            chain2 = float(
                np.linalg.norm(kron_mat @ vec(x) - kron_rhs) / np.linalg.norm(kron_rhs)
            )
            if max(chain1, chain2) > 1e-10:
                failures.append(
                    f"n={ops.n} mT={m_t} sigma={sigma:g}: {chain1:.2e} {chain2:.2e}"
                )
    _line(2, "reformulation chain", not failures, f"{len(failures)} failing points")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 3: dense Sylvester kernel vs Kronecker oracle


def test_criterion_03_sylvester_kernel():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 13))
        q = int(rng.integers(1, 11))
        ta = rng.standard_normal((p, p))
        ta += (np.linalg.norm(ta) + 1.0) * np.eye(p)
        tb = rng.standard_normal((q, q))
        tb += (np.linalg.norm(tb) + 1.0) * np.eye(q)
        c = rng.standard_normal((p, q))
        y = solve_sylvester_dense(ta, tb, c)
        y_o = kron_sylvester_solve(ta, tb.T, c)
        worst = max(worst, _relerr(y, y_o))
    ok = worst <= 1e-10
    _line(3, "Sylvester kernel", ok, f"worst relative error {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: residual honesty


def test_criterion_04_residual_honesty():
    rng = np.random.default_rng(77)
    ops, config, grid, yd = _setup(5, 15, 0.9, 3e-3)  # n=36, 2 mT = 30 rows
    problem = build_sylvester_problem(ops, config, grid, lowrank_desired(yd, 1e-12))
    a_dense = (
        np.linalg.solve(ops.mass.toarray(), ops.stiffness.toarray())
        + problem.shift * np.eye(ops.n)
    )
    b_dense = problem.b_matrix.toarray()
    r_dense = problem.r1 @ problem.r2.T
    worst = 0.0
    for _ in range(10):
        x1 = rng.standard_normal((ops.n, 8))
        x2 = rng.standard_normal((2 * grid.m_t, 8))
        fast = factored_residual(x1, x2, problem)
        dense = np.linalg.norm(
            a_dense @ (x1 @ x2.T) + (x1 @ x2.T) @ b_dense - r_dense
        ) / np.linalg.norm(r_dense)
        worst = max(worst, abs(fast - dense) / dense)
    ok = worst <= 1e-13
    _line(4, "residual honesty", ok, f"worst relative discrepancy {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criteria 5 and 6 share the desk-scale parameter grid


@pytest.fixture(scope="module")
def desk_sweep():
    rows = []
    for cells in (30, 54):
        mesh = build_mesh(cells)
        # the assembled operators depend only on the (default) nu and
        # regularization, not on sigma or beta
        ops = build_operators(mesh, ProblemConfig(sigma=1.0, beta=1.0))
        for m_t in (100, 200, 400):
            grid = TimeGrid(m_t)
            yd = sample_desired_state("ex1", mesh, grid)
            for sigma in (1e-4, 1.0, 1e4):
                for beta in (1e-2, 1e-4, 1e-6, 1e-8):
                    config = ProblemConfig(sigma=sigma, beta=beta)
                    yd_lr = lowrank_desired(yd, config.trunc_tol)
                    problem = build_sylvester_problem(ops, config, grid, yd_lr)
                    t0 = time.perf_counter()
                    x, report = skpik_solve(
                        problem, config.tol, config.trunc_tol, config.max_it
                    )
                    seconds = time.perf_counter() - t0
                    rows.append(
                        dict(
                            n=ops.n,
                            m_t=m_t,
                            sigma=sigma,
                            beta=beta,
                            rank=report.rank,
                            sweeps=report.iterations,
                            residual=report.residual,
                            converged=report.converged,
                            seconds=seconds,
                        )
                    )
    return rows


def test_criterion_05_low_rank_behavior(desk_sweep):
    failures = []
    for row in desk_sweep:
        problems = []
        if not row["converged"] or row["residual"] > 1e-6:
            problems.append(f"residual {row['residual']:.2e}")
        if row["rank"] > 10:
            problems.append(f"rank {row['rank']}")
        if row["seconds"] > 60.0:
            problems.append(f"{row['seconds']:.1f}s")
        if problems:
            failures.append(
                f"n={row['n']} mT={row['m_t']} sigma={row['sigma']:g} "
                f"beta={row['beta']:g}: " + ", ".join(problems)
            )
    _line(
        5,
        "low-rank behavior",
        not failures,
        f"{len(failures)}/{len(desk_sweep)} points outside the stated bounds",
    )
    assert not failures, "\n".join(failures)


def test_criterion_06_time_step_robustness(desk_sweep):
    failures = []
    for n in (961, 3025):
        for sigma in (1e-4, 1.0, 1e4):
            for beta in (1e-2, 1e-4, 1e-6, 1e-8):
                counts = {
                    row["m_t"]: row["sweeps"]
                    for row in desk_sweep
                    if row["n"] == n and row["sigma"] == sigma and row["beta"] == beta
                }
                for m in (100, 200):
                    change = abs(counts[2 * m] - counts[m]) / counts[m]
                    if change > 0.25:
                        failures.append(
                            f"n={n} sigma={sigma:g} beta={beta:g}: "
                            f"{counts[m]} -> {counts[2 * m]} (+{100 * change:.0f}%)"
                        )
    _line(
        6,
        "time-step robustness",
        not failures,
        f"{len(failures)} doubling pairs above 25%",
    )
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# criterion 7: baseline sanity


def test_criterion_07_baseline_sanity(monkeypatch):
    problems = []

    # (a) truncation-free low-rank MINRES reproduces dense MINRES iterates
    ops, config, grid, yd = _setup(4, 4, 1.0, 1e-2)
    yd_lr = lowrank_desired(yd, 0.0)
    n, m_t = ops.n, grid.m_t
    kkt = assemble_kkt_dense(ops, config, grid, yd)
    m_fact = sparse_spd_factorize(ops.mass)
    schur = build_schur_hat(ops, config, grid)

    def dense_prec(v):
        out = np.empty_like(v)
        half = n * m_t
        out[:half] = vec(m_fact.solve(unvec(v[:half], n, m_t))) / grid.tau
        out[half:] = schur.solve_vec(v[half:]) / config.beta
        return out

    dense_iters = []
    _minres(
        kkt.rhs,
        lambda v: kkt.matrix @ v,
        dense_prec,
        lambda a, b: float(a @ b),
        lambda a, b, c: a + c * b,
        lambda a, c: c * a,
        lambda: np.zeros(2 * n * m_t),
        0.0,
        12,
        stop_fn=lambda x, r: dense_iters.append(x.copy()) or False,
    )
    monkeypatch.setattr(baselines, "RANK_CAP", None)
    for k in (2, 6, 12):
        exact = dataclasses.replace(config, tol=1e-30, trunc_tol=0.0, max_it=k)
        z, _ = lrminres_solve(ops, exact, grid, yd_lr)
        full = np.concatenate([vec(z.yblk.to_dense()), vec(z.lblk.to_dense())])
        gap = _relerr(full, dense_iters[k - 1])
        if gap > 1e-10:
            problems.append(f"iterate {k} deviates by {gap:.2e}")
    monkeypatch.undo()  # (b) runs at the default rank cap

    # (b) with truncation on, the favorable corner converges
    ops_f, config_f, grid_f, yd_f = _setup(6, 8, 1e-4, 1e-8, tol=1e-6)
    zf, report_f = lrminres_solve(ops_f, config_f, grid_f, lowrank_desired(yd_f, 1e-10))
    if not report_f.converged or report_f.residual > 1e-6:
        problems.append(
            f"favorable corner: converged={report_f.converged} "
            f"residual={report_f.residual:.2e}"
        )

    # (c) the per-step solver agrees with the oracle at a single step
    ops_s, config_s, grid_s, yd_s = _setup(4, 1, 1.0, 1e-2, tol=1e-10)
    y_traj, report_s = fminres_solve(ops_s, config_s, grid_s, yd_s)
    y_o, u_o, _ = solve_kkt_dense(
        assemble_kkt_dense(ops_s, config_s, grid_s, yd_s), config_s.beta
    )
    err = max(_relerr(y_traj, y_o), _relerr(report_s.extra["control"], u_o))
    if err > 1e-5:
        problems.append(f"single-step trajectory error {err:.2e}")

    _line(7, "baseline sanity", not problems, "; ".join(problems))
    assert not problems, problems


# ---------------------------------------------------------------------------
# criterion 8: Schur complement approximation


def test_criterion_08_schur_approximation():
    rng = np.random.default_rng(5)
    worst = 0.0
    for cells in (2, 4, 8):
        for m_t in (1, 2, 4, 8):
            ops, config, grid, _ = _setup(cells, m_t, 1.3, 4e-3)
            shat = dense_schur_hat(
                ops.mass.toarray(),
                ops.stiffness.toarray(),
                config.sigma,
                grid.tau,
                config.beta,
                m_t,
            )
            v = rng.standard_normal(ops.n * m_t)
            fast = apply_schur_hat_inv(v, ops, config, grid)
            oracle = np.linalg.solve(shat, v)
            worst = max(worst, _relerr(fast, oracle))
    ok = worst <= 1e-10
    _line(8, "Schur approximation", ok, f"worst relative error {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: rank stays bounded under mesh refinement


def test_criterion_09_refinement_rank_growth():
    ranks = []
    for cells in (8, 16, 32):
        ops, config, grid, yd = _setup(cells, 32, 1.0, 1e-4)
        yd_lr = lowrank_desired(yd, config.trunc_tol)
        problem = build_sylvester_problem(ops, config, grid, yd_lr)
        x, report = skpik_solve(problem, config.tol, config.trunc_tol, config.max_it)
        assert report.converged
        ranks.append(report.rank)
    growth = ranks[-1] - ranks[0]
    ok = growth <= 4
    _line(9, "refinement rank growth", ok, f"ranks {ranks}, growth {growth}")
    assert ok, ranks


# ---------------------------------------------------------------------------
# criterion 10: format fidelity and exit codes


def test_criterion_10_format_fidelity(tmp_path):
    problems = []

    # value-exact Matrix Market round trip
    import scipy.sparse as sp

    rng = np.random.default_rng(3)
    a = sp.random(12, 9, density=0.4, random_state=np.random.RandomState(3), format="csr")
    a.data = rng.standard_normal(a.nnz)
    mm_write(tmp_path / "a.mtx", a)
    back = mm_read(tmp_path / "a.mtx")
    if not (
        np.array_equal(back.data, a.data)
        and np.array_equal(back.indices, a.indices)
        and np.array_equal(back.indptr, a.indptr)
    ):
        problems.append("round trip not value-exact")

    # sweep CSV deterministic except the seconds column
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "methods": ["skpik"],
                "sigmas": [1.0],
                "betas": [1e-2, 1e-4],
                "mts": [4],
                "meshes": [4],
            }
        )
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out2)]) == 0
    rows1 = [line.split(",") for line in out1.read_text().strip().splitlines()]
    rows2 = [line.split(",") for line in out2.read_text().strip().splitlines()]
    seconds_col = rows1[0].index("seconds")
    for r1, r2 in zip(rows1, rows2):
        for idx, (v1, v2) in enumerate(zip(r1, r2)):
            if idx != seconds_col and v1 != v2:
                problems.append(f"nondeterministic column {rows1[0][idx]}")

    # exit codes: 0 converged, 1 usage error, 2 non-convergence
    codes = (
        cli.main(
            ["solve", "--method", "skpik", "--mesh", "4", "--mT", "4",
             "--sigma", "1", "--beta", "1e-2"]
        ),
        cli.main(
            ["solve", "--method", "skpik", "--mesh", "4", "--mT", "4",
             "--sigma", "1", "--beta", "0"]
        ),
        cli.main(
            ["solve", "--method", "skpik", "--mesh", "8", "--mT", "8",
             "--sigma", "1e-4", "--beta", "1e-6", "--max-it", "1"]
        ),
    )
    if codes != (0, 1, 2):
        problems.append(f"exit codes {codes} != (0, 1, 2)")

    _line(10, "format fidelity", not problems, "; ".join(problems))
    assert not problems, problems
