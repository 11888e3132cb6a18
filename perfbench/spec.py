"""What the benchmark measures: workloads, metrics, bounds.

``python3 perfbench/spec.py`` writes ``BENCHMARK.json`` at the root of
the checkout from these definitions; run.py and worker.py read them
from here, so the file and the program cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracing import FUNCTIONS, PER_MODULE, SCHUR_SOLVE

RUN_SECONDS = 40

WORKLOADS = [
    ("desk-skpik",
     "full 72-point desk grid (n 961/3025, mT 100-400, 3 sigma x 4 beta) through skpik; "
     "the grid of the paper's claims, where the main solver does the work"),
    ("baselines-961",
     "lrminres and fminres at n 961, mT 100: Schur preconditioner, low-rank truncation and "
     "MINRES do the work; skpik only via factored_residual"),
    ("cli-file",
     "eddyopt.cli solve on imported operators and a seeded rank-3 time-varying target file, "
     "plus a 24-point sweep: SVD path, Matrix Market and text I/O, per-point rebuilds"),
]

# name, unit, better, bound (share of the parent's median).  The time bounds
# are the largest allowed: on a shared 2-core virtual machine the run-to-run spread
# of the time metrics was 6-15 % (see NOTES.md).
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("point_s_p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("rank_total", "count", "lower", 0.05),
]

_SPANS = [name for _, _, name in PER_MODULE + FUNCTIONS] + [SCHUR_SOLVE]

# name, unit, better
PER_LAYER = (
    [(f"{s}.{k}", u, "lower") for s in _SPANS for k, u in (("s", "s"), ("self_s", "s"), ("calls", "count"))]
    + [
        ("skpik.sweeps", "count", "lower"),
        ("skpik.converged", "count", "higher"),
        ("skpik.certify_ratio", "ratio", "higher"),
        ("skpik.subspace_left", "count", "lower"),
        ("skpik.subspace_right", "count", "lower"),
        ("skpik.apply_a.cols", "count", "lower"),
        ("skpik.apply_a_inv.cols", "count", "lower"),
        ("skpik.b_lu.solve.cols", "count", "lower"),
        ("baselines.lrminres.iters", "count", "lower"),
        ("baselines.fminres.step_iters", "count", "lower"),
        ("baselines.fminres.coupled_residual_max", "rel", "lower"),
        ("lacore.mm_read.bytes", "B", "lower"),
        ("lacore.mm_write_dense.bytes", "B", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    out = Path("BENCHMARK.json")
    out.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {out}")
