"""The benchmark tracer (perfbench/tracing.py) still sees the CLI's layers.

The tracer patches module-level bindings, so a refactor of the front end
that calls a function by another name would blind its per-layer numbers
without failing anything else.  This runs one solve and a two-point
sweep under the tracer and checks that each layer recorded a span.
"""

import csv
import json
from pathlib import Path

import eddyopt.cli as cli

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
    # perfbench counts certificates as the residuals skpik_solve itself asks for
    parents = [tracer.spans[parent][0] for name, _, _, parent in tracer.spans
               if name == "skpik.factored_residual"]
    assert parents and set(parents) == {"skpik.skpik_solve"}
    assert passes[0] == passes[1]
    assert all(rank and iters for _, rank, iters in passes[0])
