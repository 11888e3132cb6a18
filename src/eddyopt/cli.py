"""Command-line front end: generation, single solves, sweeps, verification.

Exit codes: 0 on success/convergence, 1 on usage or data errors, 2 when
a solver finishes without reaching its tolerance.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .baselines import fminres_solve, lrminres_solve
from .discretize import (
    ProblemConfig,
    SpaceOperators,
    TimeGrid,
    add_elliptic_term,
    build_mesh,
    build_operators,
    lowrank_desired,
    sample_desired_state,
)
from .lacore import (
    LinAlgFailure,
    mm_read,
    mm_write,
    mm_write_dense,
)
from .reformulate import (
    assemble_kkt_dense,
    assemble_kkt_dense3,
    build_sylvester_problem,
    extract_solution,
    solve_kkt_dense,
    vec,
)
from .skpik import skpik_solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONVERGED = 2

SCHEMA_VERSION = 1

CSV_HEADER = [
    "method",
    "n",
    "mT",
    "sigma",
    "beta",
    "rank",
    "iters",
    "seconds",
    "residual",
    "converged",
]

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="eddyopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="assemble and write the spatial operators")
    gen.add_argument("--mesh", type=int, required=True, metavar="N",
                     help="cells per side of the unit square")
    gen.add_argument("--out", required=True, metavar="DIR", help="output directory")

    sol = sub.add_parser("solve", help="run one solver on one parameter point")
    sol.add_argument("--method", required=True, choices=["skpik", "lrminres", "fminres"])
    src = sol.add_mutually_exclusive_group(required=True)
    src.add_argument("--mesh", type=int, metavar="N", help="cells per side")
    src.add_argument("--matrices", metavar="DIR",
                     help="directory holding M.mtx and K.mtx")
    sol.add_argument("--mT", type=int, required=True, help="number of time steps")
    sol.add_argument("--sigma", type=float, required=True, help="conductivity")
    sol.add_argument("--beta", type=float, required=True, help="control cost")
    sol.add_argument("--nu", type=float, default=ProblemConfig.nu, help="diffusion coefficient")
    sol.add_argument("--shift", type=float, default=None,
                     help="spectral shift (default: 0 if --ereg is positive, else nu)")
    sol.add_argument("--ereg", type=float, default=None,
                     help="weight of the elliptic term eps_reg*M added to K "
                          "(default 1e-6*nu; 0 leaves K as assembled or read)")
    sol.add_argument("--tol", type=float, default=ProblemConfig.tol)
    sol.add_argument("--trunc-tol", type=float, default=ProblemConfig.trunc_tol)
    sol.add_argument("--max-it", type=int, default=ProblemConfig.max_it)
    sol.add_argument("--example", choices=["ex1", "ex2", "file"], default="ex1")
    sol.add_argument("--yd-file", default=None, metavar="PATH",
                     help="whitespace-separated n x mT table for --example file")
    sol.add_argument("--out", default=None, metavar="PATH",
                     help="write the result JSON (and solution factors) here")

    sw = sub.add_parser("sweep", help="run a parameter sweep from a JSON spec")
    sw.add_argument("--spec", required=True, metavar="PATH.json")
    sw.add_argument("--out", required=True, metavar="PATH.csv")
    sw.add_argument("--jobs", type=int, default=1,
                    help="worker processes, at most one per (source, mT) group")

    ver = sub.add_parser("verify", help="check the solvers against dense oracles")
    ver.add_argument("--n", type=int, default=25, help="spatial unknowns (a square number)")
    ver.add_argument("--mT", type=int, default=4)

    return parser


# imported operators come with their own diffusion, so nu sets nothing for them
NU_NOTE = (
    "is ignored with imported operators: their K is used as read, plus the "
    "elliptic term eps_reg*M (default eps_reg 1e-6)"
)


def _make_config(args) -> ProblemConfig:
    """The point's ProblemConfig, which checks the settings; imported operators ignore nu."""
    if args.mT < 1:
        raise UsageError("--mT must be at least 1")
    return ProblemConfig(
        sigma=args.sigma,
        beta=args.beta,
        nu=args.nu if args.matrices is None else ProblemConfig.nu,
        eps_reg=args.ereg,
        shift=args.shift,
        tol=args.tol,
        trunc_tol=args.trunc_tol,
        max_it=args.max_it,
    )


def _load_imported_operators(directory: str, config: ProblemConfig) -> SpaceOperators:
    root = Path(directory)
    m_path = root / "M.mtx"
    k_path = root / "K.mtx"
    if not m_path.exists() or not k_path.exists():
        raise UsageError(f"--matrices {directory}: expected M.mtx and K.mtx")
    mass = mm_read(m_path)
    stiff = mm_read(k_path)
    if mass.shape[0] != mass.shape[1] or mass.shape != stiff.shape:
        raise UsageError("imported M and K must be square and of equal size")
    return SpaceOperators(mass, add_elliptic_term(stiff, mass, config))


def _load_source(args, config: ProblemConfig):
    """Operators, grid and dense desired state of the flags' source and mT.

    Neither depends on sigma or beta, so one load serves every point
    that shares the source and mT.
    """
    grid = TimeGrid(args.mT)
    if args.matrices is not None:
        ops = _load_imported_operators(args.matrices, config)
        mesh = None
    else:
        if args.mesh < 1:
            raise UsageError("--mesh must be at least 1")
        mesh = build_mesh(args.mesh)
        ops = build_operators(mesh, config)
    if args.example == "file":
        if args.yd_file is None:
            raise UsageError("--example file needs --yd-file")
        yd = np.loadtxt(args.yd_file, ndmin=2)
        if yd.shape != (ops.n, grid.m_t):
            raise UsageError(
                f"desired-state table has shape {yd.shape}, expected ({ops.n}, {grid.m_t})"
            )
        if not np.isfinite(yd).all():
            row, col = np.argwhere(~np.isfinite(yd))[0]
            raise UsageError(
                f"--yd-file {args.yd_file}: non-finite entry {yd[row, col]} "
                f"at row {row}, column {col} (counted from 0)"
            )
    else:
        if mesh is None:
            raise UsageError(
                "built-in examples need node coordinates; with --matrices use "
                "--example file and --yd-file"
            )
        yd = sample_desired_state(args.example, mesh, grid)
    return ops, grid, yd


def _solve_point(method: str, ops, config, grid, target):
    """Dispatch one solve; returns (row dict, factors-or-None, trajectory-or-None).

    ``target`` is the dense desired state for fminres and, for the
    low-rank methods, its compression at ``config.trunc_tol``.
    """
    started = time.perf_counter()
    factors = traj = None
    if method == "skpik":
        problem = build_sylvester_problem(ops, config, grid, target)
        factors, report = skpik_solve(problem, config.tol, config.trunc_tol, config.max_it)
    elif method == "lrminres":
        _, report = lrminres_solve(ops, config, grid, target)
        factors = report.extra["solution"]
    elif method == "fminres":
        traj, report = fminres_solve(ops, config, grid, target)
    else:
        raise UsageError(f"unknown method {method!r}")
    row = {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "n": ops.n,
        "mT": grid.m_t,
        "sigma": config.sigma,
        "beta": config.beta,
        "rank": None if factors is None else factors.rank,
        "iters": report.iterations,
        "seconds": time.perf_counter() - started,
        "residual": report.residual,
        "converged": bool(report.converged),
        "subspace": list(report.subspace) if report.subspace else None,
        "stop_reason": report.extra["stop_reason"],
        "coupled_residual": report.extra.get("coupled_residual"),
        # skpik's projected residual per sweep, null where its search skipped the sweep
        "residual_history": [None if np.isnan(h) else h for h in report.residual_history]
        if method == "skpik"
        else None,
        "phases": report.extra.get("phases"),
        # skpik's pole and the sweep of its switch, null when it kept the extended Krylov space
        "pole": report.extra.get("pole"),
        "switched_at": report.extra.get("switched_at"),
        "tol": config.tol,
        "trunc_tol": config.trunc_tol,
    }
    return row, factors, traj


def cmd_solve(args) -> int:
    if args.matrices is not None and args.nu != ProblemConfig.nu:
        print(f"note: --nu {NU_NOTE}", file=sys.stderr)
    config = _make_config(args)
    ops, grid, target = _load_source(args, config)
    if args.method != "fminres":  # the dense table is dropped once compressed
        target = lowrank_desired(target, config.trunc_tol)
    row, factors, traj = _solve_point(args.method, ops, config, grid, target)
    text = json.dumps(row, indent=2)
    if args.out:
        out = Path(args.out)
        out.write_text(text + "\n")
        stem = out.with_suffix("")
        if factors is not None:
            mm_write_dense(f"{stem}.X1.mtx", factors.left)
            mm_write_dense(f"{stem}.X2.mtx", factors.right)
        if traj is not None:
            mm_write_dense(f"{stem}.Y.mtx", traj)
    print(text)
    return EXIT_OK if row["converged"] else EXIT_NONCONVERGED


def cmd_generate(args) -> int:
    if args.mesh < 1:
        raise UsageError("--mesh must be at least 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mesh = build_mesh(args.mesh)
    config = ProblemConfig(sigma=0.0, beta=1.0, eps_reg=0.0)
    ops = build_operators(mesh, config)
    mm_write(out / "M.mtx", ops.mass)
    mm_write(out / "K.mtx", ops.stiffness)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "n": mesh.n_nodes,
        "h": mesh.h,
        "cells_per_side": args.mesh,
    }
    (out / "mesh.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote M.mtx, K.mtx, mesh.json ({mesh.n_nodes} nodes) to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps


def _is_number(value) -> bool:
    """A finite int or float; JSON's Infinity and NaN parse to floats but are no settings."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and np.isfinite(value)


def _is_integer(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


# what each key of a sweep spec must hold, if it is given: (description, test)
_SPEC_KEYS = {
    "methods": ("a list of 'skpik', 'lrminres', 'fminres'",
                _list_of(lambda m: m in ("skpik", "lrminres", "fminres"))),
    "sigmas": ("a list of nonnegative numbers", _list_of(lambda s: _is_number(s) and s >= 0)),
    "betas": ("a list of positive numbers", _list_of(lambda b: _is_number(b) and b > 0)),
    **dict.fromkeys(("mts", "meshes"), ("a list of integers", _list_of(_is_integer))),
    "matrix_dirs": ("a list of paths", _list_of(lambda d: isinstance(d, str))),
    "example": ("'ex1', 'ex2' or 'file'", lambda e: e in ("ex1", "ex2", "file")),
    "yd_file": ("a path or null", lambda f: f is None or isinstance(f, str)),
    **dict.fromkeys(("nu", "tol"), ("a positive number", lambda v: _is_number(v) and v > 0)),
    "trunc_tol": ("a nonnegative number", lambda v: _is_number(v) and v >= 0),
    "max_it": ("a positive integer", lambda v: _is_integer(v) and v >= 1),
    **dict.fromkeys(("ereg", "shift"), ("a nonnegative number or null",
                                        lambda v: v is None or (_is_number(v) and v >= 0))),
}


def _validate_sweep_spec(spec):
    if not isinstance(spec, dict):
        raise UsageError("sweep spec must be a JSON object")
    for key, (what, valid) in _SPEC_KEYS.items():
        if key in spec and not valid(spec[key]):
            raise UsageError(f"sweep spec key {key!r} must be {what}")
    if not spec.get("methods"):
        raise UsageError("sweep spec needs a non-empty 'methods' list")
    if not spec.get("sigmas") or not spec.get("betas") or not spec.get("mts"):
        raise UsageError("sweep spec needs non-empty 'sigmas', 'betas', and 'mts'")
    dirs = spec.get("matrix_dirs")
    if bool(spec.get("meshes")) == bool(dirs):
        raise UsageError("sweep spec needs exactly one of 'meshes' or 'matrix_dirs'")
    example = spec.get("example", "ex1")
    if dirs and example != "file":
        raise UsageError(
            "'matrix_dirs' carry no node coordinates; use \"example\": \"file\" and 'yd_file'"
        )
    if example == "file" and not spec.get("yd_file"):
        raise UsageError("\"example\": \"file\" needs a 'yd_file' path")


def _sweep_points(spec: dict):
    """The flags ``eddyopt solve`` would parse for each point, in row order."""
    sources = [{"mesh": int(m), "matrices": None} for m in spec.get("meshes", [])] or [
        {"mesh": None, "matrices": d} for d in spec.get("matrix_dirs", [])
    ]
    for source, mt, sigma, beta, method in itertools.product(
        sources, spec["mts"], spec["sigmas"], spec["betas"], spec["methods"]
    ):
        yield argparse.Namespace(
            method=method,
            **source,
            mT=int(mt),
            sigma=float(sigma),
            beta=float(beta),
            nu=float(spec.get("nu", ProblemConfig.nu)),
            ereg=spec.get("ereg"),
            shift=spec.get("shift"),
            tol=float(spec.get("tol", ProblemConfig.tol)),
            trunc_tol=float(spec.get("trunc_tol", ProblemConfig.trunc_tol)),
            max_it=int(spec.get("max_it", ProblemConfig.max_it)),
            example=spec.get("example", "ex1"),
            yd_file=spec.get("yd_file"),
        )


def _csv_row(record: dict) -> list:
    """``record`` cut to CSV_HEADER: None is an empty cell, a bool is true/false."""
    cells = []
    for key in CSV_HEADER:
        value = record.get(key)
        if isinstance(value, bool):
            value = "true" if value else "false"
        cells.append("" if value is None else value)
    return cells


def _failed_point(args, exc: Exception) -> tuple[list, str]:
    """The row of a failed point, keeping only its parameters, and the reason.

    The reason reads ``method source mT sigma beta: ExceptionClass: message``.
    """
    source = f"dir={args.matrices}" if args.matrices is not None else f"mesh={args.mesh}"
    reason = (
        f"{args.method} {source} {args.mT} {args.sigma!r} {args.beta!r}: "
        f"{type(exc).__name__}: {exc}"
    )
    record = {"method": args.method, "mT": args.mT, "sigma": args.sigma,
              "beta": args.beta, "converged": False}
    return _csv_row(record), reason


def _run_sweep_group(points: list) -> list[tuple[list, str | None]]:
    """The points of one source and mT, on one operator set and one target table.

    Returns each point's CSV row and, if it failed, the reason.  A source
    that cannot be loaded fails every point of the group.
    """
    failures = (UsageError, ValueError, LinAlgFailure, OSError)
    try:
        ops, grid, yd = _load_source(points[0], _make_config(points[0]))
    except failures as exc:
        return [_failed_point(args, exc) for args in points]
    results = []
    yd_lr = None  # one table and one trunc_tol per group: compressed once, when first needed
    for args in points:
        try:
            config = _make_config(args)
            if yd_lr is None and args.method != "fminres":
                yd_lr = lowrank_desired(yd, config.trunc_tol)
            target = yd if args.method == "fminres" else yd_lr
            record, _, _ = _solve_point(args.method, ops, config, grid, target)
        except failures as exc:
            results.append(_failed_point(args, exc))
        else:
            results.append((_csv_row(record), None))
    return results


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise UsageError(f"sweep spec {args.spec} not found")
    try:
        spec = json.loads(spec_path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"sweep spec is not valid JSON: {exc}") from exc
    _validate_sweep_spec(spec)
    if spec.get("matrix_dirs") and float(spec.get("nu", ProblemConfig.nu)) != ProblemConfig.nu:
        print(f"note: the spec key 'nu' {NU_NOTE}", file=sys.stderr)
    # row order puts source and mT outermost, so each group is a run of rows
    groups = [
        list(group)
        for _, group in itertools.groupby(
            _sweep_points(spec), key=lambda p: (p.mesh, p.matrices, p.mT)
        )
    ]
    # a pool starts all its workers at once, so it gets no more than there are groups
    workers = min(args.jobs, len(groups))
    if workers == 1:
        results = [_run_sweep_group(group) for group in groups]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_sweep_group, groups))
    results = [point for group in results for point in group]
    rows = [row for row, _ in results]
    for _, reason in results:
        if reason is not None:
            print(reason, file=sys.stderr)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification against the dense oracles


def _scalar_instance(m_t: int):
    """The closed-form one-unknown instance used at n=1, on ``m_t`` time steps."""
    import scipy.sparse as sp

    mass = sp.csr_matrix(np.array([[1.0]]))
    stiff = sp.csr_matrix(np.array([[2.0]]))
    ops = SpaceOperators(mass, stiff)
    config = ProblemConfig(sigma=1.0, beta=1.0, eps_reg=0.0, shift=0.0,
                           tol=1e-12, trunc_tol=1e-14)
    grid = TimeGrid(m_t)
    yd = np.full((1, m_t), 3.0)
    return ops, config, grid, yd


def run_verify(n: int = 25, m_t: int = 4):
    """Cross-check the low-rank pipeline against dense solves.

    Returns (ok, checks) where checks is a list of (name, value, limit)
    tuples; ``ok`` is True when every value is within its limit.
    """
    gate = 1e-6
    if n < 1 or math.isqrt(n) ** 2 != n:
        raise UsageError(f"--n {n} is not a square node count like 9, 25, 81")
    if m_t < 1:
        raise UsageError("--mT must be at least 1")
    if n == 1:
        ops, config, grid, yd = _scalar_instance(m_t)
    else:
        mesh = build_mesh(math.isqrt(n) - 1)
        config = ProblemConfig(sigma=1.0, beta=1e-2, tol=1e-8, trunc_tol=1e-12)
        grid = TimeGrid(m_t)
        ops = build_operators(mesh, config)
        yd = sample_desired_state("ex1", mesh, grid)

    checks = []
    yd_lr = lowrank_desired(yd, config.trunc_tol)
    problem = build_sylvester_problem(ops, config, grid, yd_lr)

    kkt2 = assemble_kkt_dense(ops, config, grid, yd)
    y_ref, u_ref, lam_ref = solve_kkt_dense(kkt2, config.beta)

    x, report = skpik_solve(problem, config.tol, config.trunc_tol, config.max_it)
    y_lr, u_lr, lam_lr = extract_solution(x, config.beta)

    def rel(a, b):
        denom = np.linalg.norm(b)
        return float(np.linalg.norm(a - b) / (denom if denom else 1.0))

    checks.append(("state error vs dense solve", rel(y_lr.to_dense(), y_ref), gate))
    checks.append(("control error vs dense solve", rel(u_lr.to_dense(), u_ref), gate))
    checks.append(("multiplier error vs dense solve", rel(lam_lr.to_dense(), lam_ref), gate))

    # three-block system elimination consistency
    kkt3 = assemble_kkt_dense3(ops, config, grid, yd)
    y3, u3, lam3 = solve_kkt_dense(kkt3)
    checks.append(("control elimination identity", rel(u3, lam3 / config.beta), gate))
    checks.append(("three-block vs two-block state", rel(y3, y_ref), gate))

    # the two-block system is the Kronecker form of the splitting: vec(X) solves both
    a_dense = np.linalg.solve(ops.mass.toarray(), ops.stiffness.toarray())
    a_dense += problem.shift * np.eye(ops.n)
    b_dense = problem.b_matrix.toarray()
    r_dense = problem.r1 @ problem.r2.T
    big = np.kron(np.eye(2 * grid.m_t), a_dense) + np.kron(b_dense.T, np.eye(ops.n))
    x_sylv = np.linalg.solve(big, vec(r_dense))
    kron_res = np.linalg.norm(kkt2.matrix @ x_sylv - kkt2.rhs) / np.linalg.norm(kkt2.rhs)
    checks.append(("splitting vs matrix-equation residual", float(kron_res), gate))

    # recovered pair satisfies the discrete state equation: the three-block system's
    # last block row [N_sigma, -tau M, 0]
    nm = ops.n * grid.m_t
    drive = kkt3.matrix[2 * nm :, nm : 2 * nm] @ vec(u_lr.to_dense())
    state_res = np.linalg.norm(kkt3.matrix[2 * nm :, :nm] @ vec(y_lr.to_dense()) + drive)
    state_res /= max(np.linalg.norm(drive), 1e-30)
    checks.append(("discrete state equation residual", float(state_res), gate))

    ok = all(v <= limit for _, v, limit in checks)
    return ok, checks


def cmd_verify(args) -> int:
    ok, checks = run_verify(args.n, args.mT)
    for name, value, limit in checks:
        status = "PASS" if value <= limit else "FAIL"
        print(f"{name}: {value:.3e} (limit {limit:.0e}) {status}")
    print("verification", "PASSED" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError, LinAlgFailure, OSError) as exc:
        # MatrixMarketError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main_entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
