"""Print a digest of every output of the benchmark's workloads, to compare two trees.

    python3 tools/digest_outputs.py [--workload NAME ...] [--seed 31] [--histories] > digest.txt

Run from the root of a checkout: eddyopt is imported from its ``src/``
and the workloads from its ``perfbench/``, which are only read.  Each
workload is set up and run for one pass with one BLAS thread, and one
line is printed per point: its key, rank, sweeps or iterations, the
repr of its residual and a hash of its outputs, which are

* desk-skpik: the bytes of the returned factors, and one line per
  compressed target table;
* baselines-961: the factors of lrminres, the trajectory and multiplier
  of fminres;
* cli-file: each solve's JSON without ``seconds`` and ``phases``, the
  bytes of its X1/X2 files, and the sweep CSV without ``seconds``.

A last line per workload hashes all of its lines and gives its
``rank_total``, the sum of the ranks its points return.  ``diff`` of the
output of two trees lists every output that moved.  With
``--histories`` each skpik solve of desk-skpik and cli-file (the sweep's
points included) then prints its projected-residual history on a line
of its own, in call order: the reprs of its entries, ``nan`` for a
sweep the search skipped.  These lines are not hashed, so a diff of two
trees lists every history entry that moved.  The working files of
cli-file go to a temporary directory, removed at the end.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs: the thread count can move the last bits
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import eddyopt.cli as CLI  # noqa: E402
import eddyopt.discretize as D  # noqa: E402
import eddyopt.skpik as SK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            part = np.ascontiguousarray(part).tobytes()
        elif isinstance(part, str):
            part = part.encode()
        h.update(part)
    return h.hexdigest()[:16]


def _line(record, digest: str) -> str:
    return (
        f"{record['key']} | rank {record['rank']} | iters {record['iters']} | "
        f"residual {record['residual']!r} | {digest}"
    )


def desk_skpik(workload, records):
    for (n, m_t), yd in sorted(workload.yd.items()):
        target = D.lowrank_desired(yd, D.ProblemConfig.trunc_tol)
        yield f"target n={n} mT={m_t} | rank {target.rank} | {_hash(target.left, target.right)}"
    for r in records:
        yield _line(r, _hash(r["x"].left, r["x"].right))


def baselines_961(workload, records):
    for r in records:
        out = r["out"]
        yield _line(r, _hash(out.left, out.right) if r["method"] == "lrminres" else _hash(*out))


def cli_file(workload, records):
    for r in records:
        if r["out"] is None:  # a sweep row: the CSV is hashed below
            continue
        row = json.loads(r["out"].read_text())
        row.pop("seconds", None)
        row.pop("phases", None)
        stem = r["out"].with_suffix("")
        files = [Path(f"{stem}.{name}.mtx").read_bytes() for name in ("X1", "X2")]
        yield _line(r, _hash(json.dumps(row, sort_keys=True), *files))
    with open(workload.work / "sweep.csv", newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            row.pop("seconds", None)
            yield f"sweep row {i} | {json.dumps(row, sort_keys=True)}"


DIGESTS = {"desk-skpik": desk_skpik, "baselines-961": baselines_961, "cli-file": cli_file}


def record_histories() -> list[str]:
    """Make every skpik_solve, the CLI's included, append a line with its history to the list."""
    lines = []
    solve = SK.skpik_solve

    def recorded(problem, *args, **kwargs):
        x, report = solve(problem, *args, **kwargs)
        entries = " ".join(repr(h) for h in report.residual_history)
        lines.append(
            f"history {len(lines)} n={problem.n} mT={problem.m_t} "
            f"g={float(problem.g)!r} w={float(problem.w)!r} | {entries}"
        )
        return x, report

    SK.skpik_solve = CLI.skpik_solve = recorded
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(DIGESTS),
                    help="a workload to digest (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=31, help="the workload seed (default 31)")
    ap.add_argument("--histories", action="store_true",
                    help="also print each skpik solve's projected-residual history")
    args = ap.parse_args(argv)
    histories = record_histories() if args.histories else []
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or list(DIGESTS):
            workload = WORKLOADS[name](args.seed, Path(tmp) / name)
            workload.setup()
            records = workload.run_pass()
            lines = list(DIGESTS[name](workload, records))
            for line in lines:
                print(f"{name} | {line}")
            rank_total = sum(r["rank"] or 0 for r in records)
            print(f"{name} | all {len(lines)} lines | {_hash(*lines)} | rank_total {rank_total}",
                  flush=True)
            for line in histories:
                print(f"{name} | {line}", flush=True)
            histories.clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
