"""One workload in one fresh process; run.py starts it.

Imports eddyopt from ``src/`` of the current directory, builds the
workload's inputs, then repeats timed passes until another pass would
overrun ``--seconds`` (at least one pass).  Each pass is checked after
its timer stops.  The last stdout line is a JSON record for run.py.

With ``--trace 1`` the set-up is traced, one untraced pass follows (its
wall time is the reference for the tracing overhead), and the remaining
time is spent on traced passes.  Per-layer figures are the set-up spans
plus the mean over the traced passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import eddyopt

from spec import END_TO_END, PER_LAYER
from tracing import Tracer
from workloads import WORKLOADS


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def counts_digest(records) -> str:
    """Hash of every point's rank and iteration count, to compare runs."""
    sig = sorted((r["key"], r["rank"], r["iters"]) for r in records)
    return hashlib.sha256(json.dumps(sig).encode()).hexdigest()[:16]


RECORD_KEYS = ("key", "method", "seconds", "rank", "iters", "residual", "converged")


class Pass:
    """One timed pass, then its check; the hooks run just inside the timer."""

    def __init__(self, workload, on_start=None, on_end=None):
        self.workload, self.on_start, self.on_end = workload, on_start, on_end

    def run(self) -> dict:
        if self.on_start:
            self.on_start()
        t0, c0 = time.perf_counter(), time.process_time()
        records = self.workload.run_pass()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.on_end:
            self.on_end()
        failures = self.workload.check(records)
        # drop the solutions once checked, so memory does not grow with the pass count
        records = [{k: r[k] for k in RECORD_KEYS} for r in records]
        return {"wall": wall, "cpu": cpu, "rss_mb": rss_mb, "records": records,
                "failures": failures}


def timed_passes(one_pass: Pass, seconds: float) -> list[dict]:
    """Run passes until another one would overrun ``seconds``; at least one."""
    deadline = time.monotonic() + seconds
    passes = [one_pass.run()]
    while time.monotonic() + passes[-1]["wall"] <= deadline:
        passes.append(one_pass.run())
    return passes


def end_to_end(passes) -> dict:
    timed = [r["seconds"] for p in passes for r in p["records"] if r["seconds"] is not None]
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "point_s_p50": statistics.median(timed),
        # after the first pass: later passes would make it depend on the pass count
        "peak_rss_mb": passes[0]["rss_mb"],
        "rank_total": sum(r["rank"] or 0 for r in passes[0]["records"]),
    }


def traced_run(workload, tracer: Tracer, seconds: float):
    """Per-layer figures, the passes made, and whether the counters repeated."""
    setup = (0, len(tracer.spans))
    setup_counts = dict(tracer.counts)
    tracer.uninstall()
    untraced = Pass(workload).run()

    ranges, counts = [], []

    def start():
        ranges.append(len(tracer.spans))
        counts.append(dict(tracer.counts))

    def end():
        ranges[-1] = (ranges[-1], len(tracer.spans))
        counts[-1] = {k: v - counts[-1].get(k, 0) for k, v in tracer.counts.items()}

    tracer.install()
    traced = timed_passes(Pass(workload, start, end), seconds - untraced["wall"])
    tracer.uninstall()

    k = len(traced)
    values: dict[str, float] = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    for (lo, hi), weight in [(setup, 1.0)] + [(r, 1.0 / k) for r in ranges]:
        for span, entry in tracer.summary(lo, hi).items():
            for field in ("s", "self_s", "calls"):
                values[f"{span}.{field}"] += weight * entry[field]
    for snapshot, weight in [(setup_counts, 1.0)] + [(c, 1.0 / k) for c in counts]:
        for key, value in snapshot.items():
            values[key] += weight * value
    wall = statistics.median(p["wall"] for p in traced)
    attempts = sum(tracer.certify_attempts(lo, hi) for lo, hi in ranges) / k
    if attempts:
        values["skpik.certify_ratio"] = values["skpik.converged"] / attempts
    values["trace.coverage"] = sum(tracer.root_seconds(lo, hi) for lo, hi in ranges) / sum(
        p["wall"] for p in traced
    )
    values["trace.overhead_s"] = wall - untraced["wall"]
    values["baselines.fminres.coupled_residual_max"] = max(
        getattr(workload, "coupled_residuals", []), default=0.0
    )
    repeated = all(c == counts[0] for c in counts)
    return values, [untraced] + traced, repeated


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if Path(eddyopt.__file__).resolve().parent.parent != src:
        print(f"worker: eddyopt comes from {eddyopt.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, Path(args.work))
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    notes = []
    if tracer:
        values, passes, repeated = traced_run(workload, tracer, args.seconds)
        units = {name: unit for name, unit, _ in PER_LAYER}
        if not repeated:
            notes.append("counters differ between traced passes of the same inputs")
    else:
        passes = timed_passes(Pass(workload), args.seconds)
        values = end_to_end(passes)
        units = {name: unit for name, unit, _, _ in END_TO_END if name != "setup_s"}
        repeated = True
    digests = {counts_digest(p["records"]) for p in passes}
    if len(digests) > 1:
        repeated = False
        notes.append("ranks or iteration counts differ between passes of the same inputs")
    failed = 0
    for p in passes:
        failed += len(p["failures"])
        notes.extend(f"FAILED {key}: {msg}" for key, msg in sorted(p["failures"].items()))
    print(json.dumps({
        "setup_done": setup_done,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "attempted": sum(len(p["records"]) for p in passes),
        "failed": failed,
        "correct": failed == 0 and repeated,
        "pass_walls": [p["wall"] for p in passes],
        "pass_cpus": [p["cpu"] for p in passes],
        "counts_digest": sorted(digests),
        "notes": notes,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
