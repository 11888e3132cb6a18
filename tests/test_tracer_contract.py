"""The benchmark tracer (perfbench/tracing.py) still sees the CLI's layers.

The tracer patches module-level bindings, so a refactor of the front end
that calls a function by another name would blind its per-layer numbers
without failing anything else.  This runs one solve and a two-point
sweep under the tracer and checks that each layer recorded a span.
"""

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
