"""Spans and counters recorded around eddyopt's public functions.

The package itself carries no instrumentation.  ``Tracer.install``
replaces selected module-level functions (and one method) with wrappers
that record a span per call: name, start, end and the index of the span
that was open when it started.  Every binding of a function inside the
``eddyopt`` package is patched, because ``from .x import f`` gives each
importing module its own name for ``f``.  ``uninstall`` puts the
originals back, so the same process can time untraced passes too.

Spans and counters stay in memory; ``summary`` turns them into total
seconds, self seconds and call counts per span name.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# (module, attribute, span name): the function is patched in every eddyopt
# module that binds it.  PER_MODULE entries are patched in the named module
# only, so factored_residual is reported per caller.
FUNCTIONS = [
    ("eddyopt.discretize", "build_operators", "discretize.build_operators"),
    ("eddyopt.discretize", "sample_desired_state", "discretize.sample_desired_state"),
    ("eddyopt.discretize", "lowrank_desired", "discretize.lowrank_desired"),
    ("eddyopt.reformulate", "build_sylvester_problem", "reformulate.build_sylvester_problem"),
    ("eddyopt.lacore", "sparse_spd_factorize", "lacore.sparse_spd_factorize"),
    ("eddyopt.lacore", "sparse_lu_factorize", "lacore.sparse_lu_factorize"),
    ("eddyopt.skpik", "skpik_solve", "skpik.skpik_solve"),
    ("eddyopt.skpik", "skpik_sweep", "skpik.skpik_sweep"),
    ("eddyopt.lacore", "solve_sylvester_dense", "skpik.solve_sylvester_dense"),
    ("eddyopt.lacore", "mgs_orthonormalize", "skpik.mgs_orthonormalize"),
    ("eddyopt.baselines", "lrminres_solve", "baselines.lrminres_solve"),
    ("eddyopt.baselines", "fminres_solve", "baselines.fminres_solve"),
    ("eddyopt.baselines", "lowrank_axpy_truncate", "baselines.lowrank_axpy_truncate"),
    ("eddyopt.lacore", "mm_read", "lacore.mm_read"),
    ("eddyopt.lacore", "mm_write_dense", "lacore.mm_write_dense"),
    ("eddyopt.cli", "cmd_solve", "cli.solve"),
    ("eddyopt.cli", "cmd_sweep", "cli.sweep"),
]
PER_MODULE = [
    ("eddyopt.skpik", "factored_residual", "skpik.factored_residual"),
    ("eddyopt.baselines", "factored_residual", "baselines.factored_residual"),
]
SCHUR_SOLVE = "baselines.SchurHatApprox.solve_mat"


def _cols(v) -> int:
    shape = getattr(v, "shape", ())
    return shape[1] if len(shape) == 2 else 1


class _CountingFactorization:
    """Stands in for ``SylvesterProblem.b_lu``; counts the columns solved."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def solve(self, b, trans: str = "N"):
        self._tracer.counts["skpik.b_lu.solve.cols"] += _cols(b)
        return self._inner.solve(b, trans=trans)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_cols(self, key: str, fn):
        def counted(v):
            self.counts[key] += _cols(v)
            return fn(v)

        return counted

    def _after(self, name: str):
        """The counter hook run on a call's (args, result), by span name."""
        return {
            "reformulate.build_sylvester_problem": self._count_problem,
            "skpik.skpik_solve": self._count_skpik,
            "baselines.lrminres_solve": self._count_lrminres,
            "baselines.fminres_solve": self._count_fminres,
            "lacore.mm_read": self._count_read,
            "lacore.mm_write_dense": self._count_write,
        }.get(name)

    def _count_problem(self, args, problem) -> None:
        problem.apply_a = self._count_cols("skpik.apply_a.cols", problem.apply_a)
        problem.apply_a_inv = self._count_cols("skpik.apply_a_inv.cols", problem.apply_a_inv)
        problem.b_lu = _CountingFactorization(problem.b_lu, self)

    def _count_skpik(self, args, result) -> None:
        report = result[1]
        self.counts["skpik.converged"] += int(report.converged)
        self.counts["skpik.sweeps"] += report.iterations
        if report.subspace:
            self.counts["skpik.subspace_left"] += report.subspace[0]
            self.counts["skpik.subspace_right"] += report.subspace[1]

    def _count_lrminres(self, args, result) -> None:
        self.counts["baselines.lrminres.iters"] += result[1].iterations

    def _count_fminres(self, args, result) -> None:
        self.counts["baselines.fminres.step_iters"] += sum(result[1].extra["step_iterations"])

    def _count_read(self, args, result) -> None:
        self.counts["lacore.mm_read.bytes"] += os.path.getsize(args[0])

    def _count_write(self, args, result) -> None:
        self.counts["lacore.mm_write_dense.bytes"] += os.path.getsize(args[0])

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            m for k, m in sorted(sys.modules.items()) if k == "eddyopt" or k.startswith("eddyopt.")
        ]
        explicit = {(mod, attr) for mod, attr, _ in PER_MODULE}
        for mod, attr, name in PER_MODULE:
            owner = sys.modules[mod]
            self._set(owner, attr, self._wrap(name, getattr(owner, attr)))
        for mod, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod], attr)
            wrapped = self._wrap(name, original, self._after(name))
            for module in modules:
                if (module.__name__, attr) in explicit:
                    continue
                if getattr(module, attr, None) is original:
                    self._set(module, attr, wrapped)
        schur = sys.modules["eddyopt.baselines"].SchurHatApprox
        self._set(schur, "solve_mat", self._wrap(SCHUR_SOLVE, schur.solve_mat))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def summary(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Total seconds, self seconds and calls per span name over spans[lo:hi]."""
        child_time = Counter()
        for name, start, end, parent in self.spans[lo:hi]:
            if parent >= lo:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx in range(lo, hi):
            name, start, end, _ = self.spans[idx]
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
            entry["calls"] += 1
        return out

    def root_seconds(self, lo: int, hi: int) -> float:
        """Time covered by the spans of spans[lo:hi] that have no parent span."""
        return sum(end - start for _, start, end, parent in self.spans[lo:hi] if parent < lo)

    def certify_attempts(self, lo: int, hi: int) -> int:
        """factored_residual calls made by skpik_solve itself, i.e. on a recompressed iterate."""
        return sum(
            1
            for name, _, _, parent in self.spans[lo:hi]
            if name == "skpik.factored_residual"
            and parent >= 0
            and self.spans[parent][0] == "skpik.skpik_solve"
        )
