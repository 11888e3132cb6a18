"""The benchmark tracer (perfbench/tracing.py) still sees the CLI's and the baselines' layers.

The tracer patches module-level bindings, so a refactor of the front end
that calls a function by another name would blind its per-layer numbers
without failing anything else.  This runs one solve and a two-point
sweep under the tracer, one solve on imported operators that writes its
factors, and each baseline solver once, and checks that each layer
recorded a span.
"""

import csv
import json
from pathlib import Path

import numpy as np

import eddyopt.baselines as BL
import eddyopt.cli as cli
import eddyopt.discretize as D

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

EXPECTED_SPANS = {
    "cli.solve",
    "cli.sweep",
    "discretize.lowrank_desired",
    "reformulate.build_sylvester_problem",
    "skpik.skpik_solve",
    "baselines.lrminres_solve",
}


def test_tracer_records_the_cli_layers(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "methods": ["skpik", "lrminres"], "sigmas": [1.0], "betas": [1e-2],
        "mts": [2], "meshes": [3],
    }))
    original = cli.cmd_solve
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main([
            "solve", "--method", "skpik", "--mesh", "3", "--mT", "2",
            "--sigma", "1", "--beta", "1e-2",
        ]) == 0
        assert cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "rows.csv")]) == 0
    finally:
        tracer.uninstall()
    recorded = {name for name, _, _, _ in tracer.spans}
    assert EXPECTED_SPANS <= recorded, EXPECTED_SPANS - recorded
    assert cli.cmd_solve is original


def test_tracer_records_the_file_io_of_an_imported_solve(tmp_path, monkeypatch, capsys):
    # the solve call of the cli-file workload (perfbench/workloads.py): two operator
    # reads, a target table and two factor files written
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    ops_dir = tmp_path / "ops"
    assert cli.main(["generate", "--mesh", "3", "--out", str(ops_dir)]) == 0
    yd_path = tmp_path / "target.txt"
    np.savetxt(yd_path, np.outer(np.arange(16.0), [1.0, -1.0]))
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main([
            "solve", "--method", "skpik", "--matrices", str(ops_dir), "--mT", "2",
            "--sigma", "1", "--beta", "1e-2", "--example", "file",
            "--yd-file", str(yd_path), "--out", str(tmp_path / "res.json"),
        ]) == 0
    finally:
        tracer.uninstall()
    names = [name for name, _, _, _ in tracer.spans]
    assert names.count("lacore.mm_read") == 2
    assert names.count("lacore.mm_write_dense") == 2
    sizes = (ops_dir / "M.mtx").stat().st_size + (ops_dir / "K.mtx").stat().st_size
    assert tracer.counts["lacore.mm_read.bytes"] == sizes
    written = sum((tmp_path / f"res.{f}.mtx").stat().st_size for f in ("X1", "X2"))
    assert tracer.counts["lacore.mm_write_dense.bytes"] == written


def test_tracer_counts_a_grouped_sweep_per_point(tmp_path, monkeypatch, capsys):
    # 2 sources x 2 time grids: the points of each run on one operator set and
    # share its spaces, yet every point keeps its own problem and solve span,
    # and a second pass over the same points repeats ranks and sweep counts
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "methods": ["skpik"], "sigmas": [1e-4, 1.0], "betas": [1e-2, 1e-6],
        "mts": [2, 5], "meshes": [3, 4],
    }))
    tracer = Tracer()
    tracer.install()
    passes = []
    try:
        for i in range(2):
            out = tmp_path / f"rows{i}.csv"
            assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            passes.append([
                ((r["n"], r["mT"], r["sigma"], r["beta"]), r["rank"], r["iters"]) for r in rows
            ])
    finally:
        tracer.uninstall()
    names = [name for name, _, _, _ in tracer.spans]
    points = 2 * 2 * 2 * 2
    assert all(len(p) == points for p in passes)
    assert names.count("skpik.skpik_solve") == 2 * points
    assert names.count("reformulate.build_sylvester_problem") == 2 * points
    assert names.count("discretize.build_operators") == 2 * 4
    # the points of a group share one target table, compressed once
    assert names.count("discretize.lowrank_desired") == 2 * 4
    # perfbench counts certificates as the residuals skpik_solve itself asks for
    parents = [tracer.spans[parent][0] for name, _, _, parent in tracer.spans
               if name == "skpik.factored_residual"]
    assert parents and set(parents) == {"skpik.skpik_solve"}
    assert passes[0] == passes[1]
    assert all(rank and iters for _, rank, iters in passes[0])


def test_tracer_records_the_baseline_layers(monkeypatch):
    # the calls of the baselines-961 workload (perfbench/workloads.py), on a tiny grid
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    mesh = D.build_mesh(3)
    config = D.ProblemConfig(sigma=1.0, beta=1e-2)
    grid = D.TimeGrid(3)
    ops = D.build_operators(mesh, config)
    yd = D.sample_desired_state("ex1", mesh, grid)
    tracer = Tracer()
    tracer.install()
    try:
        _, lr_report = BL.lrminres_solve(ops, config, grid, D.lowrank_desired(yd, config.trunc_tol))
        _, f_report = BL.fminres_solve(ops, config, grid, yd)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    recorded = {name for name, _, _, _ in spans}
    assert {
        "baselines.lrminres_solve",
        "baselines.fminres_solve",
        "baselines.SchurHatApprox.solve_mat",
        "baselines.lowrank_axpy_truncate",
    } <= recorded
    # both solvers apply their Schur block through the traced method
    schur_callers = {
        spans[parent][0] for name, _, _, parent in spans
        if name == "baselines.SchurHatApprox.solve_mat"
    }
    assert schur_callers == {"baselines.lrminres_solve", "baselines.fminres_solve"}
    # lrminres certifies its candidates through the traced binding
    certify_callers = {
        spans[parent][0] for name, _, _, parent in spans
        if name == "baselines.factored_residual"
    }
    assert certify_callers == {"baselines.lrminres_solve"}
    # what the workload and the tracer's counters read from the reports
    assert "solution" in lr_report.extra
    assert {"multiplier", "step_iterations"} <= f_report.extra.keys()
    assert tracer.counts["baselines.fminres.step_iters"] == sum(f_report.extra["step_iterations"])
