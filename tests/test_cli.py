import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import eddyopt.cli as cli
from eddyopt.discretize import ProblemConfig, TimeGrid, build_mesh, build_operators, lowrank_desired, sample_desired_state
from eddyopt.lacore import mm_read, mm_read_dense, mm_write
from eddyopt.reformulate import build_sylvester_problem
from eddyopt.skpik import POLE_WINDOW, factored_residual


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_operators(tmp_path, capsys):
    out = tmp_path / "ops"
    assert run_cli("generate", "--mesh", "2", "--out", str(out)) == 0
    m = mm_read(out / "M.mtx")
    k = mm_read(out / "K.mtx")
    assert m.shape == (9, 9) and k.shape == (9, 9)
    meta = json.loads((out / "mesh.json").read_text())
    assert meta["n"] == 9
    # SPD check on load via a dense eigenvalue oracle
    eigs = np.linalg.eigvalsh(m.toarray())
    assert eigs.min() > 0
    # K is written without the elliptic term: the constants are in its nullspace
    assert np.max(np.abs(k @ np.ones(9))) <= 1e-13


def test_generate_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_cli("generate", "--mesh", "3", "--out", str(out1))
    run_cli("generate", "--mesh", "3", "--out", str(out2))
    assert (out1 / "M.mtx").read_bytes() == (out2 / "M.mtx").read_bytes()
    assert (out1 / "K.mtx").read_bytes() == (out2 / "K.mtx").read_bytes()


# ---------------------------------------------------------------------------
# solve


def test_solve_skpik_json_and_factors(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = run_cli(
        "solve", "--method", "skpik", "--mesh", "8", "--mT", "16",
        "--sigma", "1", "--beta", "1e-4", "--out", str(out),
    )
    assert code == 0
    row = json.loads(out.read_text())
    assert row["schema_version"] == 1
    assert row["converged"] is True
    assert row["stop_reason"] == "converged"
    assert row["coupled_residual"] is None
    assert set(row["phases"]) == {
        "extend", "project", "time_side", "residual", "compress", "certify"
    }
    assert all(v >= 0.0 for v in row["phases"].values())
    assert row["residual"] <= 1e-6
    assert row["rank"] >= 1
    assert row["subspace"][1] == 2 * 16
    # one entry per sweep, null where the search skipped it; the last one passed
    history = row["residual_history"]
    assert len(history) == row["iters"]
    assert history[-1] <= 1e-6
    assert all(h is None or h > 0 for h in history)
    # the stored factors reproduce the reported residual exactly
    x1 = mm_read_dense(tmp_path / "res.X1.mtx")
    x2 = mm_read_dense(tmp_path / "res.X2.mtx")
    mesh = build_mesh(8)
    config = ProblemConfig(sigma=1.0, beta=1e-4)
    grid = TimeGrid(16)
    ops = build_operators(mesh, config)
    yd_lr = lowrank_desired(sample_desired_state("ex1", mesh, grid), config.trunc_tol)
    problem = build_sylvester_problem(ops, config, grid, yd_lr)
    recomputed = factored_residual(x1, x2, problem)
    assert abs(recomputed - row["residual"]) <= 1e-12


def test_solve_lrminres_factors_reproduce_reported_residual(tmp_path):
    out = tmp_path / "lr.json"
    code = run_cli(
        "solve", "--method", "lrminres", "--mesh", "4", "--mT", "4",
        "--sigma", "1", "--beta", "1e-2", "--out", str(out),
    )
    assert code == 0
    row = json.loads(out.read_text())
    assert row["coupled_residual"] is None
    assert set(row["phases"]) == {"precondition", "compress", "certify", "minres"}
    assert all(v >= 0.0 for v in row["phases"].values())
    assert row["residual_history"] is None
    x1 = mm_read_dense(tmp_path / "lr.X1.mtx")
    x2 = mm_read_dense(tmp_path / "lr.X2.mtx")
    mesh = build_mesh(4)
    config = ProblemConfig(sigma=1.0, beta=1e-2)
    grid = TimeGrid(4)
    ops = build_operators(mesh, config)
    yd_lr = lowrank_desired(sample_desired_state("ex1", mesh, grid), config.trunc_tol)
    problem = build_sylvester_problem(ops, config, grid, yd_lr)
    assert abs(factored_residual(x1, x2, problem) - row["residual"]) <= 1e-12


def test_solve_rejects_nonpositive_beta(capsys):
    assert run_cli(
        "solve", "--method", "skpik", "--mesh", "2", "--mT", "2",
        "--sigma", "1", "--beta", "0",
    ) == 1
    assert "beta" in capsys.readouterr().err


def test_solve_usage_errors_exit_one(capsys):
    # unknown method is a usage error, not an argparse exit
    assert run_cli(
        "solve", "--method", "nope", "--mesh", "2", "--mT", "2",
        "--sigma", "1", "--beta", "1",
    ) == 1
    assert run_cli("solve", "--method", "skpik") == 1
    assert run_cli(
        "solve", "--method", "skpik", "--mesh", "2", "--matrices", "x",
        "--mT", "2", "--sigma", "1", "--beta", "1",
    ) == 1


def test_solve_nonconvergence_exits_two(tmp_path):
    out = tmp_path / "res.json"
    code = run_cli(
        "solve", "--method", "skpik", "--mesh", "8", "--mT", "8",
        "--sigma", "1e-4", "--beta", "1e-6", "--max-it", "1", "--out", str(out),
    )
    assert code == 2
    assert json.loads(out.read_text())["stop_reason"] == "max_sweeps"


def test_solve_fminres_nonconvergence_exits_two_with_json_and_trajectory(tmp_path, capsys):
    out = tmp_path / "f.json"
    code = run_cli(
        "solve", "--method", "fminres", "--mesh", "4", "--mT", "4",
        "--sigma", "1", "--beta", "1e-2", "--max-it", "2", "--out", str(out),
    )
    assert code == 2
    printed = capsys.readouterr()
    row = json.loads(out.read_text())
    assert json.loads(printed.out) == row
    assert printed.err == ""
    assert row["converged"] is False and row["stop_reason"] == "max_it"
    assert row["iters"] == 2.0 and row["residual"] > row["tol"]
    assert mm_read_dense(tmp_path / "f.Y.mtx").shape == (25, 4)


@pytest.mark.parametrize("flag, field, value", [
    ("--sigma", "sigma", "nan"), ("--beta", "beta", "nan"), ("--nu", "nu", "nan"),
    ("--ereg", "eps_reg", "inf"), ("--shift", "shift", "-inf"),
    ("--tol", "tol", "inf"), ("--tol", "tol", "nan"), ("--trunc-tol", "trunc_tol", "inf"),
])
def test_solve_rejects_non_finite_settings(capsys, flag, field, value):
    # an infinite tol certifies any residual, and a NaN weight would fail only in the LU of B
    # a repeated flag overrides the earlier one; "=" keeps "-inf" from reading as a flag
    assert run_cli(
        "solve", "--method", "skpik", "--mesh", "2", "--mT", "2",
        "--sigma", "1", "--beta", "1e-2", f"{flag}={value}",
    ) == 1
    assert capsys.readouterr().err == f"error: {field} must be finite, got {float(value)}\n"


def test_solve_fminres_matches_skpik_at_single_step(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["--mesh", "4", "--mT", "1", "--sigma", "1", "--beta", "1e-2",
            "--tol", "1e-10"]
    assert run_cli("solve", "--method", "skpik", *args, "--out", str(out_a)) == 0
    assert run_cli("solve", "--method", "fminres", *args, "--out", str(out_b)) == 0
    row = json.loads(out_b.read_text())
    assert row["stop_reason"] == "converged"
    # one time step is the coupled problem, so the per-step solve certifies it
    assert row["coupled_residual"] <= 1e-8
    assert set(row["phases"]) == {"precondition", "minres"}
    assert all(v >= 0.0 for v in row["phases"].values())
    assert row["residual_history"] is None
    x1 = mm_read_dense(tmp_path / "a.X1.mtx")
    x2 = mm_read_dense(tmp_path / "a.X2.mtx")
    x = x1 @ x2.T
    y_skpik = x[:, :1]
    y_fminres = mm_read_dense(tmp_path / "b.Y.mtx")
    assert np.linalg.norm(y_skpik - y_fminres) <= 1e-5 * np.linalg.norm(y_fminres)


def test_solve_with_imported_matrices_matches_mesh_path(tmp_path):
    opsdir = tmp_path / "ops"
    run_cli("generate", "--mesh", "4", "--out", str(opsdir))
    out_mesh = tmp_path / "mesh.json.out"
    out_imp = tmp_path / "imp.json.out"
    # desired state comes from a file in import mode
    mesh = build_mesh(4)
    grid = TimeGrid(3)
    yd = sample_desired_state("ex1", mesh, grid)
    yd_file = tmp_path / "yd.txt"
    np.savetxt(yd_file, yd)
    common = ["--mT", "3", "--sigma", "1", "--beta", "1e-2"]
    assert run_cli(
        "solve", "--method", "skpik", "--mesh", "4", *common, "--out", str(out_mesh),
    ) == 0
    assert run_cli(
        "solve", "--method", "skpik", "--matrices", str(opsdir), *common,
        "--example", "file", "--yd-file", str(yd_file), "--out", str(out_imp),
    ) == 0
    row_mesh = json.loads(out_mesh.read_text())
    row_imp = json.loads(out_imp.read_text())
    assert row_imp["converged"] and row_mesh["converged"]
    assert row_imp["n"] == row_mesh["n"]
    assert row_imp["rank"] == row_mesh["rank"]
    # both paths add the elliptic term through one function, so K agrees bit for bit
    config = ProblemConfig(sigma=1.0, beta=1e-2)
    built = build_operators(mesh, config)
    imported = cli._load_imported_operators(str(opsdir), config)
    assert np.array_equal(imported.mass.toarray(), built.mass.toarray())
    assert np.array_equal(imported.stiffness.toarray(), built.stiffness.toarray())


@pytest.mark.parametrize("method", ["skpik", "lrminres", "fminres"])
def test_solve_drops_the_loaded_table_once_compressed(tmp_path, monkeypatch, method):
    # the low-rank methods solve with no live reference to the dense table;
    # fminres is handed the table itself
    opsdir = tmp_path / "ops"
    run_cli("generate", "--mesh", "4", "--out", str(opsdir))
    yd_file = tmp_path / "yd.txt"
    np.savetxt(yd_file, sample_desired_state("ex1", build_mesh(4), TimeGrid(3)))
    loaded, seen = [], []
    loadtxt, solve_point = np.loadtxt, cli._solve_point

    def load(source, *args, **kwargs):  # the Matrix Market reader calls it too
        table = loadtxt(source, *args, **kwargs)
        if source == str(yd_file):
            loaded.append(weakref.ref(table))
        return table

    def solve(*args):
        table = loaded[0]()
        seen.append((table is None, any(arg is table for arg in args)))
        return solve_point(*args)

    monkeypatch.setattr(np, "loadtxt", load)
    monkeypatch.setattr(cli, "_solve_point", solve)
    assert run_cli(
        "solve", "--method", method, "--matrices", str(opsdir), "--mT", "3", "--sigma", "1",
        "--beta", "1e-2", "--example", "file", "--yd-file", str(yd_file),
        "--out", str(tmp_path / "out.json"),
    ) == 0
    assert seen == ([(False, True)] if method == "fminres" else [(True, False)]), seen


def test_solve_ignores_nu_with_imported_matrices(tmp_path, capsys):
    # the default elliptic term on imported K is 1e-6 M, whatever --nu says
    opsdir = tmp_path / "ops"
    run_cli("generate", "--mesh", "6", "--out", str(opsdir))
    yd_file = tmp_path / "yd.txt"
    np.savetxt(yd_file, np.outer(np.linspace(0.0, 1.0, 49), np.linspace(1.0, 2.0, 8)))
    capsys.readouterr()
    records, notes = [], []
    for nu in ("1", "1000"):
        out = tmp_path / f"nu{nu}.json"
        assert run_cli(
            "solve", "--method", "skpik", "--matrices", str(opsdir), "--mT", "8",
            "--sigma", "0", "--beta", "1e-2", "--example", "file", "--yd-file", str(yd_file),
            "--nu", nu, "--out", str(out),
        ) == 0
        record = json.loads(out.read_text())
        del record["seconds"], record["phases"]
        records.append(record)
        notes.append(capsys.readouterr().err)
    assert records[0] == records[1]
    assert notes[0] == ""
    assert notes[1].startswith("note: --nu is ignored with imported operators")
    assert "verbatim" not in notes[1]


def test_sweep_prints_the_nu_note_once(tmp_path, capsys):
    opsdir = tmp_path / "ops"
    run_cli("generate", "--mesh", "3", "--out", str(opsdir))
    yd_file = tmp_path / "target.txt"
    np.savetxt(yd_file, np.outer(np.linspace(0.0, 1.0, 16), [1.0, 0.5]))
    spec = tmp_path / "spec.json"
    _write_spec(spec, methods=["skpik"], meshes=[], matrix_dirs=[str(opsdir)],
                example="file", yd_file=str(yd_file), nu=5.0)
    capsys.readouterr()
    assert run_cli("sweep", "--spec", str(spec), "--out", str(tmp_path / "rows.csv")) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["note: the spec key 'nu' is ignored with imported operators: their K is "
                   "used as read, plus the elliptic term eps_reg*M (default eps_reg 1e-6)"]


def test_solve_names_the_asymmetry_of_an_imported_stiffness(tmp_path, capsys):
    opsdir = tmp_path / "ops"
    run_cli("generate", "--mesh", "2", "--out", str(opsdir))
    k = mm_read(opsdir / "K.mtx").tolil()
    k[0, 1] *= 1.5
    mm_write(opsdir / "K.mtx", k)
    yd_file = tmp_path / "yd.txt"
    np.savetxt(yd_file, np.ones((9, 2)))
    assert run_cli(
        "solve", "--method", "skpik", "--matrices", str(opsdir), "--mT", "2",
        "--sigma", "1", "--beta", "1", "--example", "file", "--yd-file", str(yd_file),
    ) == 1
    err = capsys.readouterr().err
    assert "not symmetric" in err
    assert f"|a_ij - a_ji| = {0.5 * abs(k[0, 1]) / 1.5:.6g} at (i, j) = (0, 1)" in err


def test_solve_rejects_non_finite_target_entry(tmp_path, capsys):
    opsdir = tmp_path / "ops"
    run_cli("generate", "--mesh", "2", "--out", str(opsdir))
    table = np.ones((9, 2))
    table[4, 1] = np.nan
    yd_file = tmp_path / "yd.txt"
    np.savetxt(yd_file, table)
    assert run_cli(
        "solve", "--method", "skpik", "--matrices", str(opsdir), "--mT", "2",
        "--sigma", "1", "--beta", "1", "--example", "file", "--yd-file", str(yd_file),
    ) == 1
    err = capsys.readouterr().err
    assert str(yd_file) in err
    assert "non-finite entry nan at row 4, column 1" in err


def test_solve_rejects_target_table_of_wrong_shape(tmp_path, capsys):
    yd_file = tmp_path / "yd.txt"
    np.savetxt(yd_file, np.ones((9, 3)))
    assert run_cli(
        "solve", "--method", "skpik", "--mesh", "2", "--mT", "2", "--sigma", "1",
        "--beta", "1", "--example", "file", "--yd-file", str(yd_file),
    ) == 1
    assert "desired-state table has shape (9, 3), expected (9, 2)" in capsys.readouterr().err


def test_solve_reads_target_table_of_one_node(tmp_path):
    # a one-row table, and a single value, keep their n x mT shape
    opsdir = tmp_path / "ops"
    opsdir.mkdir()
    mm_write(opsdir / "M.mtx", sp.csr_matrix([[1.0]]))
    mm_write(opsdir / "K.mtx", sp.csr_matrix([[2.0]]))
    yd_file = tmp_path / "yd.txt"
    for m_t, table in (("3", [[1.0, 0.5, 0.25]]), ("1", [[3.0]])):
        np.savetxt(yd_file, table)
        assert run_cli(
            "solve", "--method", "skpik", "--matrices", str(opsdir), "--mT", m_t,
            "--sigma", "1", "--beta", "1", "--example", "file", "--yd-file", str(yd_file),
        ) == 0, m_t


def test_solve_that_switches_to_the_pole_space_writes_it(tmp_path):
    # a rank-3 target on 1681 nodes stalls on the extended Krylov space; the
    # JSON names the pole and the sweep of the switch, and the factors certify
    mesh, m_t = build_mesh(40), 5
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    t = np.arange(1, m_t + 1) / m_t
    modes = [(1, 1), (2, 1), (1, 3)]
    yd = sum(
        np.outer(np.sin(k * np.pi * x) * np.sin(l * np.pi * y), np.cos((j + 1) * np.pi * t + phi))
        for j, ((k, l), phi) in enumerate(zip(modes, (0.4, 1.3, 2.2)))
    )
    yd_file, out = tmp_path / "yd.txt", tmp_path / "pole.json"
    np.savetxt(yd_file, yd)
    assert run_cli(
        "solve", "--method", "skpik", "--mesh", "40", "--mT", str(m_t), "--sigma", "1e-4",
        "--beta", "1e-2", "--example", "file", "--yd-file", str(yd_file), "--out", str(out),
    ) == 0
    row = json.loads(out.read_text())
    config = ProblemConfig(sigma=1e-4, beta=1e-2)
    assert row["converged"] is True and row["stop_reason"] == "converged"
    assert row["pole"] == 1.0 / np.sqrt(config.beta)
    assert row["switched_at"] is not None and row["switched_at"] % POLE_WINDOW == 0
    assert len(row["residual_history"]) == row["iters"] < row["switched_at"]
    x1 = mm_read_dense(tmp_path / "pole.X1.mtx")
    x2 = mm_read_dense(tmp_path / "pole.X2.mtx")
    ops = build_operators(mesh, config)
    yd_lr = lowrank_desired(np.loadtxt(yd_file, ndmin=2), config.trunc_tol)
    problem = build_sylvester_problem(ops, config, TimeGrid(m_t), yd_lr)
    certified = factored_residual(x1, x2, problem)
    assert certified <= config.tol
    assert abs(certified - row["residual"]) <= 1e-12


def test_solve_import_mode_requires_yd_file(tmp_path, capsys):
    opsdir = tmp_path / "ops"
    run_cli("generate", "--mesh", "2", "--out", str(opsdir))
    assert run_cli(
        "solve", "--method", "skpik", "--matrices", str(opsdir),
        "--mT", "2", "--sigma", "1", "--beta", "1",
    ) == 1


# ---------------------------------------------------------------------------
# sweep


def _write_spec(path, **overrides):
    spec = {
        "schema_version": 1,
        "methods": ["skpik", "fminres"],
        "sigmas": [1.0],
        "betas": [1e-2, 1e-4],
        "mts": [2],
        "meshes": [3],
        "tol": 1e-6,
        "trunc_tol": 1e-10,
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return spec


def test_sweep_row_count_and_header(tmp_path):
    spec = tmp_path / "spec.json"
    out = tmp_path / "rows.csv"
    _write_spec(spec)
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,n,mT,sigma,beta,rank,iters,seconds,residual,converged"
    assert len(lines) == 1 + 4  # 2 methods x 2 betas


def test_sweep_deterministic_except_seconds(tmp_path):
    spec = tmp_path / "spec.json"
    _write_spec(spec, methods=["skpik"])
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    run_cli("sweep", "--spec", str(spec), "--out", str(out1))
    run_cli("sweep", "--spec", str(spec), "--out", str(out2))
    rows1 = [line.split(",") for line in out1.read_text().strip().splitlines()]
    rows2 = [line.split(",") for line in out2.read_text().strip().splitlines()]
    seconds_col = rows1[0].index("seconds")
    for a, b in zip(rows1, rows2):
        for idx, (va, vb) in enumerate(zip(a, b)):
            if idx != seconds_col:
                assert va == vb


def test_sweep_invalid_spec_exits_one(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    out = tmp_path / "rows.csv"
    _write_spec(spec, methods=[])
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 1
    _write_spec(spec, betas=[0.0])
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 1
    assert run_cli("sweep", "--spec", str(tmp_path / "absent.json"), "--out", str(out)) == 1
    capsys.readouterr()
    # malformed specs name the offending key instead of crashing or misleading
    spec.write_text(json.dumps([{"methods": ["skpik"]}]))
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: sweep spec must be a JSON object\n"
    for key, value in [
        ("sigmas", ["a"]),
        ("betas", [None]),
        ("methods", "skpik"),
        ("mts", ["2"]),
        ("mts", [2.5]),
        ("meshes", [True]),
        ("matrix_dirs", "ops"),
        ("yd_file", ["yd.txt"]),
        ("ereg", "a"),
        ("max_it", 1.5),
        # out of range: each would fail every point, not the spec
        ("tol", -1),
        ("tol", 0),
        ("nu", -2),
        ("trunc_tol", -1e-3),
        ("max_it", 0),
        # JSON's Infinity and NaN are numbers to the parser but no settings
        ("sigmas", [float("nan")]),
        ("betas", [float("inf")]),
        ("nu", float("nan")),
        ("tol", float("inf")),
        ("trunc_tol", float("inf")),
        ("ereg", float("inf")),
        ("shift", float("nan")),
        ("ereg", -1e-6),
        ("shift", -1.0),
    ]:
        _write_spec(spec, **{key: value})
        assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 1, key
        err = capsys.readouterr().err
        assert err.startswith(f"error: sweep spec key '{key}' must be "), err
    assert not out.exists()


def test_sweep_partial_failure_records_row(tmp_path):
    spec = tmp_path / "spec.json"
    out = tmp_path / "rows.csv"
    # a bogus import directory: its points become non-converged rows and the
    # sweep carries on
    _write_spec(
        spec, methods=["skpik"], meshes=[], matrix_dirs=[str(tmp_path / "nope")],
        example="file", yd_file=str(tmp_path / "target.txt"),
    )
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert all(line.endswith("false") for line in lines[1:])


def test_sweep_fills_the_row_of_a_nonconverged_fminres_point(tmp_path, capsys):
    # a miss of tol is a result, not a failure: both rows carry n, iters and
    # residual, and no reason line is printed
    spec = tmp_path / "spec.json"
    out = tmp_path / "rows.csv"
    _write_spec(spec, methods=["lrminres", "fminres"], betas=[1e-2], mts=[4], meshes=[4],
                max_it=2)
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["lrminres", "fminres"]
    for row in rows:
        assert row["n"] == "25" and row["converged"] == "false"
        assert float(row["iters"]) > 0 and float(row["residual"]) > 1e-6
    assert rows[1]["iters"] == "2.0"


def test_sweep_failure_reason_goes_to_stderr(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    out = tmp_path / "rows.csv"
    nope = tmp_path / "nope"
    _write_spec(
        spec, methods=["skpik"], betas=[1e-2], meshes=[], matrix_dirs=[str(nope)],
        example="file", yd_file=str(tmp_path / "target.txt"),
    )
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [
        f"skpik dir={nope} 2 1.0 0.01: UsageError: "
        f"--matrices {nope}: expected M.mtx and K.mtx"
    ]
    lines = out.read_text().strip().splitlines()
    assert lines == [",".join(cli.CSV_HEADER), "skpik,,2,1.0,0.01,,,,,false"]


def test_sweep_matrix_dirs_with_target_file_converges(tmp_path):
    opsdir = tmp_path / "ops"
    run_cli("generate", "--mesh", "3", "--out", str(opsdir))
    yd_file = tmp_path / "target.txt"
    np.savetxt(yd_file, np.outer(np.linspace(0.0, 1.0, 16), [1.0, 0.5]))
    spec = tmp_path / "spec.json"
    out = tmp_path / "rows.csv"
    _write_spec(
        spec, methods=["skpik"], betas=[1e-2], meshes=[], matrix_dirs=[str(opsdir)],
        example="file", yd_file=str(yd_file),
    )
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[:5] == ["skpik", "16", "2", "1.0", "0.01"]
    assert float(row[8]) <= 1e-6 and row[9] == "true"


def test_sweep_matrix_dirs_need_target_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    out = tmp_path / "rows.csv"
    for example, extra in (("ex1", {"yd_file": "t.txt"}), ("file", {})):
        _write_spec(spec, meshes=[], matrix_dirs=[str(tmp_path)], example=example, **extra)
        assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 1
    assert not out.exists()


def test_sweep_parallel_jobs_match_serial(tmp_path, capsys):
    opsdir = tmp_path / "ops"
    run_cli("generate", "--mesh", "3", "--out", str(opsdir))
    yd_file = tmp_path / "target.txt"
    np.savetxt(yd_file, np.outer(np.linspace(0.0, 1.0, 16), [1.0, 0.5]))
    specs = [
        ({"methods": ["skpik"], "betas": [1e-2, 1e-4]}, ["true", "true"]),
        # the missing directory's points fail: their rows and reasons are compared too
        ({"methods": ["skpik", "fminres"], "betas": [1e-2], "meshes": [],
          "matrix_dirs": [str(opsdir), str(tmp_path / "nope")],
          "example": "file", "yd_file": str(yd_file)}, ["true", "true", "false", "false"]),
    ]
    for i, (overrides, converged) in enumerate(specs):
        spec = tmp_path / f"spec{i}.json"
        _write_spec(spec, **overrides)
        outs, errs = [], []
        for jobs in ("1", "2"):
            out = tmp_path / f"rows{i}.j{jobs}.csv"
            assert run_cli("sweep", "--spec", str(spec), "--out", str(out), "--jobs", jobs) == 0
            outs.append([line.split(",") for line in out.read_text().strip().splitlines()])
            errs.append(capsys.readouterr().err)
        rows1, rows2 = outs
        assert [row[-1] for row in rows1[1:]] == converged
        assert len(rows2) == len(rows1)
        seconds_col = rows1[0].index("seconds")
        for a, b in zip(rows1, rows2):
            assert a[:seconds_col] + a[seconds_col + 1:] == b[:seconds_col] + b[seconds_col + 1:]
        assert errs[0] == errs[1]
        assert errs[0].count("UsageError") == converged.count("false")


def test_sweep_starts_no_more_workers_than_groups(tmp_path, monkeypatch):
    # a pool forks all its workers at the first submit: --jobs 64 on two
    # groups asks for two, and one group runs in this process
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    spec = tmp_path / "spec.json"
    out = tmp_path / "rows.csv"
    _write_spec(spec, methods=["skpik"], mts=[2, 3])
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out), "--jobs", "64") == 0
    assert started == [2]
    _write_spec(spec, methods=["skpik"])
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out), "--jobs", "8") == 0
    assert started == [2]
    assert len(out.read_text().splitlines()) == 1 + 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    spec = tmp_path / "spec.json"
    out = tmp_path / "rows.csv"
    _write_spec(spec)
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out), "--jobs", jobs) == 1
    assert capsys.readouterr().err.startswith("error: --jobs must be at least 1")
    assert not out.exists()


def test_sweep_groups_keep_rows_and_reasons_serial_and_parallel(tmp_path, capsys):
    # a good imported directory, a missing one and a time grid of 0 steps:
    # the groups fail or run as a whole, and the rows keep specification order
    opsdir = tmp_path / "ops"
    run_cli("generate", "--mesh", "3", "--out", str(opsdir))
    yd_file = tmp_path / "target.txt"
    np.savetxt(yd_file, np.outer(np.linspace(0.0, 1.0, 16), [1.0, 0.5]))
    nope = tmp_path / "nope"
    spec = tmp_path / "spec.json"
    _write_spec(spec, methods=["skpik", "lrminres"], sigmas=[1e-4, 1.0], betas=[1e-2],
                mts=[2, 0], meshes=[], matrix_dirs=[str(opsdir), str(nope)],
                example="file", yd_file=str(yd_file))
    outs, errs = [], []
    for jobs in ("1", "2"):
        out = tmp_path / f"rows.j{jobs}.csv"
        assert run_cli("sweep", "--spec", str(spec), "--out", str(out), "--jobs", jobs) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("seconds")
        outs.append(rows)
        errs.append(capsys.readouterr().err)
    assert outs[0] == outs[1] and errs[0] == errs[1]
    rows = outs[0]
    assert [(r["mT"], r["sigma"], r["method"]) for r in rows[:4]] == [
        ("2", "0.0001", "skpik"), ("2", "0.0001", "lrminres"),
        ("2", "1.0", "skpik"), ("2", "1.0", "lrminres"),
    ]
    assert [r["converged"] for r in rows] == ["true"] * 4 + ["false"] * 12
    reasons = errs[0].strip().splitlines()
    assert len(reasons) == 12
    assert reasons[0] == (
        f"skpik dir={opsdir} 0 0.0001 0.01: UsageError: --mT must be at least 1"
    )
    assert reasons[4] == (
        f"skpik dir={nope} 2 0.0001 0.01: UsageError: --matrices {nope}: expected M.mtx and K.mtx"
    )
    # the points of one source and mT read the same skpik sweep counts as lone solves
    for row in rows[:4:2]:
        result = tmp_path / "one.json"
        run_cli("solve", "--method", "skpik", "--matrices", str(opsdir), "--mT", "2",
                "--sigma", row["sigma"], "--beta", "1e-2", "--example", "file",
                "--yd-file", str(yd_file), "--out", str(result))
        record = json.loads(result.read_text())
        assert (row["iters"], row["rank"], row["residual"]) == (
            str(record["iters"]), str(record["rank"]), str(record["residual"])
        )


def test_sweep_rows_are_the_solve_record_cut_to_the_header(tmp_path):
    spec = tmp_path / "spec.json"
    out = tmp_path / "rows.csv"
    methods = ["skpik", "lrminres", "fminres"]
    _write_spec(spec, methods=methods, betas=[1e-2], mts=[3])
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["method"] for row in rows] == methods

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)  # a float's str is its shortest round-trip repr

    for method, row in zip(methods, rows):
        result = tmp_path / f"{method}.json"
        run_cli("solve", "--method", method, "--mesh", "3", "--mT", "3", "--sigma", "1",
                "--beta", "1e-2", "--out", str(result))
        record = json.loads(result.read_text())
        for key in cli.CSV_HEADER:
            if key != "seconds":
                assert row[key] == cell(record[key]), (method, key)


# ---------------------------------------------------------------------------
# verify


def test_verify_default_passes(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert "PASSED" in out


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "eddyopt", "verify", "--n", "9", "--mT", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verification PASSED" in proc.stdout


def test_verify_scalar_instance_exact():
    ok, checks = cli.run_verify(n=1, m_t=1)
    assert ok
    for name, value, _ in checks:
        assert value <= 1e-12, name


def test_verify_scalar_instance_runs_on_the_requested_time_grid(monkeypatch):
    # --n 1 used to solve a one-step instance whatever --mT said
    build = cli.build_sylvester_problem
    steps = []

    def spy(ops, config, grid, yd_lr):
        steps.append(grid.m_t)
        return build(ops, config, grid, yd_lr)

    monkeypatch.setattr(cli, "build_sylvester_problem", spy)
    ok, checks = cli.run_verify(n=1, m_t=4)
    assert steps == [4]
    assert ok, checks


def test_verify_corrupted_solver_fails(monkeypatch, capsys):
    build = cli.build_sylvester_problem

    def corrupted(*args):
        p = build(*args)
        return dataclasses.replace(p, r2=-p.r2)

    monkeypatch.setattr(cli, "build_sylvester_problem", corrupted)
    assert run_cli("verify", "--n", "9", "--mT", "2") == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("n", ["7", "-5", "0"])
def test_verify_rejects_non_square_count(capsys, n):
    # the count is checked in integers before any arithmetic: no sqrt of a negative
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("verify", "--n", n) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert f"--n {n} is not a square node count" in err
    assert "Warning" not in err


def test_verify_rejects_an_empty_time_grid(capsys):
    assert run_cli("verify", "--mT", "0") == 1
    assert "error: --mT must be at least 1" in capsys.readouterr().err
