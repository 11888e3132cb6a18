"""The three workloads: their set-up, one timed pass, and output checks.

Every call into eddyopt goes through a module attribute (``D.lowrank_desired``
rather than an imported name), so the tracer's patches take effect.

A pass returns one record per point:
``{"key", "method", "seconds", "rank", "iters", "residual", "converged"}``
plus whatever ``check`` needs.  ``check`` runs outside the timed region
and returns a dict from point key to failure message.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import time
from pathlib import Path

import numpy as np
import scipy.io

import eddyopt.baselines as BL
import eddyopt.cli as CLI
import eddyopt.discretize as D
import eddyopt.reformulate as RF
import eddyopt.skpik as SK

from checks import SpaceSide, check_lowrank, sylvester_residual

SIGMAS = (1e-4, 1.0, 1e4)
TOL = 1e-6  # ProblemConfig and CLI default; every workload solves at it


def _config(sigma, beta):
    return D.ProblemConfig(sigma=sigma, beta=beta)


class DeskSkpik:
    """The ROADMAP desk grid: 72 skpik points on the built-in ex1 target."""

    name = "desk-skpik"
    meshes = (30, 54)
    mts = (100, 200, 400)
    betas = (1e-2, 1e-4, 1e-6, 1e-8)

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)

    def setup(self):
        self.ops, self.yd, self.space = {}, {}, {}
        for cells in self.meshes:
            mesh = D.build_mesh(cells)
            ops = D.build_operators(mesh, _config(1.0, 1.0))  # independent of sigma, beta
            self.ops[ops.n] = ops
            self.space[ops.n] = SpaceSide(ops.mass, ops.stiffness)
            for m_t in self.mts:
                self.yd[ops.n, m_t] = D.sample_desired_state("ex1", mesh, D.TimeGrid(m_t))
        self.points = [
            (n, m_t, s, b)
            for n in self.ops
            for m_t in self.mts
            for s in SIGMAS
            for b in self.betas
        ]
        self.rng.shuffle(self.points)  # the seed varies the order, not the work

    def run_pass(self):
        records = []
        for n, m_t, sigma, beta in self.points:
            config = _config(sigma, beta)
            grid = D.TimeGrid(m_t)
            t0 = time.perf_counter()
            yd_lr = D.lowrank_desired(self.yd[n, m_t], config.trunc_tol)
            problem = RF.build_sylvester_problem(self.ops[n], config, grid, yd_lr)
            x, rep = SK.skpik_solve(problem, config.tol, config.trunc_tol, config.max_it)
            records.append(dict(
                key=f"skpik n={n} mT={m_t} sigma={sigma:g} beta={beta:g}",
                method="skpik", seconds=time.perf_counter() - t0, rank=x.rank,
                iters=rep.iterations, residual=rep.residual, converged=rep.converged,
                point=(n, m_t, sigma, beta), x=x,
            ))
        return records

    def check(self, records):
        failures = {}
        for r in records:
            n, m_t, sigma, beta = r["point"]
            if not r["converged"]:
                failures[r["key"]] = "reported non-converged"
                continue
            b = RF.build_B(sigma, 1.0 / m_t, beta, m_t)
            msg = check_lowrank(self.space[n], b, r["x"].left, r["x"].right,
                                self.yd[n, m_t], beta, TOL, r["residual"])
            if msg:
                failures[r["key"]] = msg
        return failures


class Baselines961:
    """lrminres and fminres at n = 961, mT = 100 over sigma x {1e-2, 1e-6}."""

    name = "baselines-961"
    cells = 30
    m_t = 100
    betas = (1e-2, 1e-6)

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)

    def setup(self):
        mesh = D.build_mesh(self.cells)
        self.ops = D.build_operators(mesh, _config(1.0, 1.0))
        self.space = SpaceSide(self.ops.mass, self.ops.stiffness)
        self.yd = D.sample_desired_state("ex1", mesh, D.TimeGrid(self.m_t))
        self.points = [(m, s, b) for m in ("lrminres", "fminres") for s in SIGMAS for b in self.betas]
        self.rng.shuffle(self.points)

    def run_pass(self):
        records = []
        grid = D.TimeGrid(self.m_t)
        for method, sigma, beta in self.points:
            config = _config(sigma, beta)
            t0 = time.perf_counter()
            if method == "lrminres":
                yd_lr = D.lowrank_desired(self.yd, config.trunc_tol)
                _, rep = BL.lrminres_solve(self.ops, config, grid, yd_lr)
                out = rep.extra["solution"]
                rank = out.rank
            else:
                traj, rep = BL.fminres_solve(self.ops, config, grid, self.yd)
                out = (traj, rep.extra["multiplier"])
                rank = None
            records.append(dict(
                key=f"{method} sigma={sigma:g} beta={beta:g}", method=method,
                seconds=time.perf_counter() - t0, rank=rank, iters=rep.iterations,
                residual=rep.residual, converged=rep.converged,
                point=(sigma, beta), out=out,
            ))
        return records

    def check(self, records):
        failures = {}
        self.coupled_residuals = []
        for r in records:
            sigma, beta = r["point"]
            if not r["converged"]:
                failures[r["key"]] = "reported non-converged"
                continue
            b = RF.build_B(sigma, 1.0 / self.m_t, beta, self.m_t)
            if r["method"] == "lrminres":
                x = r["out"]
                msg = check_lowrank(self.space, b, x.left, x.right, self.yd, beta,
                                    TOL, r["residual"])
                if msg:
                    failures[r["key"]] = msg
            else:
                # informational: fminres certifies per-step residuals only
                y, lam = r["out"]
                x = np.hstack([y, lam / np.sqrt(beta)])
                self.coupled_residuals.append(sylvester_residual(
                    self.space, b, x, np.eye(2 * self.m_t), self.yd, beta))
        return failures


class CliFile:
    """eddyopt.cli.main on imported operators and a seeded rank-3 target table."""

    name = "cli-file"
    cells = 54
    m_t = 200
    betas = (1e-2, 1e-6)
    sweep_spec = {
        "methods": ["skpik"],
        "sigmas": list(SIGMAS),
        "betas": [1e-2, 1e-6],
        "mts": [100, 200],
        "meshes": [30, 54],
        "tol": TOL,
        "trunc_tol": 1e-10,
        "example": "ex1",
    }

    def __init__(self, seed: int, work: Path):
        self.rng = np.random.default_rng(seed)
        self.work = work

    @staticmethod
    def _call(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = CLI.main(argv)
        if code != 0:
            raise RuntimeError(f"eddyopt {' '.join(argv[:3])} exited with {code}")

    def target(self) -> np.ndarray:
        """Three sin*sin modes times cos(j*pi*t + phi_j), with phi_j from the seed.

        Each phi_j is a fixed phase, plus pi when the seed says so.  The
        sign flips leave the spans of the target's factors, and so every
        Krylov space skpik builds, unchanged: the seed varies the input
        while keeping the work per solve within about one sweep.
        """
        xs = np.linspace(0.0, 1.0, self.cells + 1)
        gx, gy = np.meshgrid(xs, xs, indexing="xy")  # node order of build_mesh
        x, y = gx.ravel(), gy.ravel()
        t = np.arange(1, self.m_t + 1) / self.m_t
        phases = np.array([0.4, 1.3, 2.2]) + np.pi * self.rng.integers(0, 2, size=3)
        modes = [(1, 1), (2, 1), (1, 3)]
        return sum(
            np.outer(np.sin(k * np.pi * x) * np.sin(l * np.pi * y),
                     np.cos((j + 1) * np.pi * t + phases[j]))
            for j, (k, l) in enumerate(modes)
        )

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.ops_dir = self.work / "ops"
        self._call(["generate", "--mesh", str(self.cells), "--out", str(self.ops_dir)])
        self.yd = self.target()
        self.yd_path = self.work / "target.txt"
        np.savetxt(self.yd_path, self.yd)
        self.spec_path = self.work / "sweep.json"
        self.spec_path.write_text(json.dumps(self.sweep_spec))
        self.points = [(s, b) for s in SIGMAS for b in self.betas]
        self.rng.shuffle(self.points)

    def run_pass(self):
        records = []
        for sigma, beta in self.points:
            out = self.work / f"solve_s{sigma:g}_b{beta:g}.json"
            t0 = time.perf_counter()
            self._call([
                "solve", "--method", "skpik", "--matrices", str(self.ops_dir),
                "--mT", str(self.m_t), "--sigma", repr(sigma), "--beta", repr(beta),
                "--example", "file", "--yd-file", str(self.yd_path), "--out", str(out),
            ])
            seconds = time.perf_counter() - t0
            row = json.loads(out.read_text())
            records.append(dict(
                key=f"solve sigma={sigma:g} beta={beta:g}", method="skpik", seconds=seconds,
                rank=row["rank"], iters=row["iters"], residual=row["residual"],
                converged=row["converged"], point=(sigma, beta), out=out,
                n=row["n"], mT=row["mT"], sigma=row["sigma"], beta=row["beta"],
            ))
        csv_path = self.work / "sweep.csv"
        self._call(["sweep", "--spec", str(self.spec_path), "--out", str(csv_path), "--jobs", "1"])
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for i, row in enumerate(rows):
            records.append(dict(
                key=f"sweep row {i}", method="skpik", seconds=None,
                rank=int(row["rank"]) if row["rank"] else None,
                iters=float(row["iters"]) if row["iters"] else None,
                residual=float(row["residual"]) if row["residual"] else float("nan"),
                converged=row["converged"] == "true", point=None, out=None,
            ))
        self.sweep_rows = len(rows)
        return records

    def check(self, records):
        failures = {}
        mass = scipy.io.mmread(self.ops_dir / "M.mtx").tocsr()
        stiff = scipy.io.mmread(self.ops_dir / "K.mtx").tocsr()
        # the solve command adds its default elliptic regularization 1e-6 * M
        space = SpaceSide(mass, stiff + 1e-6 * mass)
        expected_rows = 2 * 2 * len(SIGMAS) * 2
        if self.sweep_rows != expected_rows:
            failures["sweep"] = f"{self.sweep_rows} sweep rows, expected {expected_rows}"
        for r in records:
            if not r["converged"]:
                failures[r["key"]] = "reported non-converged"
                continue
            if r["out"] is None:  # sweep row: no factors are written
                if not r["residual"] <= TOL or not r["rank"]:
                    failures[r["key"]] = f"residual {r['residual']} rank {r['rank']}"
                continue
            sigma, beta = r["point"]
            echoed = (r["n"], r["mT"], r["sigma"], r["beta"])
            if echoed != (self.yd.shape[0], self.m_t, sigma, beta):
                failures[r["key"]] = f"JSON describes (n, mT, sigma, beta) = {echoed}"
                continue
            stem = r["out"].with_suffix("")
            x1 = np.asarray(scipy.io.mmread(f"{stem}.X1.mtx"))
            x2 = np.asarray(scipy.io.mmread(f"{stem}.X2.mtx"))
            if not (x1.shape[1] == x2.shape[1] == r["rank"]):
                failures[r["key"]] = f"factor shapes {x1.shape}, {x2.shape} vs rank {r['rank']}"
                continue
            b = RF.build_B(sigma, 1.0 / self.m_t, beta, self.m_t)
            msg = check_lowrank(space, b, x1, x2, self.yd, beta, TOL, r["residual"])
            if msg:
                failures[r["key"]] = msg
        return failures


WORKLOADS = {w.name: w for w in (DeskSkpik, Baselines961, CliFile)}
