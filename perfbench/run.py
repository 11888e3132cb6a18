"""eddyopt benchmark: one workload per call, metrics as JSON on the last line.

    python3 perfbench/run.py --workload desk-skpik --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; eddyopt is imported from ``src/`` there
and nowhere else.  Each call starts fresh worker processes (worker.py)
with one BLAS thread (see NOTES.md):

* four processes that only build the workload's inputs (none with
  ``--trace 1``, which does not report ``setup_s``), and
* one process that builds them and then runs the timed passes.

``setup_s`` is the median, over all of them, of the time from starting
the process (interpreter start and ``import eddyopt`` included) to the
end of set-up.  With ``--trace 0`` the result holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.
Working files go to ``.perfbench_work/`` in the checkout and are
removed at the end.  Exits non-zero without a result when the program
cannot be run or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

SETUP_RUNS = 5
TOTAL_TIMEOUT_S = 170  # the whole call must end within 180 s


def run_worker(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Start one worker; returns its set-up time and its JSON record."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), *argv],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["setup_done"] - started, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    root = Path.cwd()
    if not (root / "src" / "eddyopt" / "__init__.py").is_file():
        print(f"run.py: no eddyopt package under {root / 'src'}", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # string hashing decides allocation order and, through it, peak memory
        PYTHONHASHSEED="0",
        PYTHONPATH=str(root / "src"),
    )
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    try:
        # setup_s is an end-to-end metric; a traced run does not report it
        for i in range(0 if args.trace else SETUP_RUNS - 1):
            seconds, _ = run_worker(
                common + ["--work", str(work / f"setup{i}"), "--setup-only"], env, deadline
            )
            setups.append(seconds)
        seconds, record = run_worker(common + ["--work", str(work / "run")], env, deadline)
        setups.append(seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = record["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        names = [n for n, *_ in END_TO_END]
    else:
        names = [n for n, *_ in PER_LAYER]
    metrics = {n: metrics[n] for n in names}

    env_info = record["env"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"# passes {len(record['pass_walls'])} walls "
          + " ".join(f"{w:.3f}" for w in record["pass_walls"]) + " cpu "
          + " ".join(f"{w:.3f}" for w in record["pass_cpus"]))
    print("# setup runs " + " ".join(f"{s:.3f}" for s in setups))
    print(f"# points {record['attempted']} failed {record['failed']} "
          f"counts digest {' '.join(record['counts_digest'])}")
    for note in record["notes"]:
        print(f"# {note}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
