"""Spatial operators, time grid, and benchmark data.

The spatial model is a scalar piecewise-linear finite element surrogate
on a structured triangulation of the unit square: a consistent mass
matrix and a diffusion stiffness matrix (optionally regularized with a
mass term for definiteness).  Externally assembled operators can be
imported instead through the Matrix Market readers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .lacore import (
    LowRankMatrix,
    NotSpdError,
    SparseFactorization,
    lowrank_from_dense,
    sparse_spd_factorize,
)

__all__ = [
    "Mesh2D",
    "TimeGrid",
    "ProblemConfig",
    "SpaceOperators",
    "build_mesh",
    "assemble_mass",
    "add_elliptic_term",
    "build_operators",
    "sample_desired_state",
    "lowrank_desired",
]

# entries a SpaceOperators keeps, shifted factors and extended Krylov spaces
# together, evicting the least recently used: the desk grid keeps four per
# operator set (the factor of K and one space per time grid)
CACHE_ENTRIES = 8


@dataclass(frozen=True)
class Mesh2D:
    """Triangulation of the unit square with positively oriented cells."""

    nodes: np.ndarray  # (n, 2) coordinates
    triangles: np.ndarray  # (nt, 3) vertex indices
    h: float  # longest edge

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on (0, 1] with m_t implicit steps."""

    m_t: int

    def __post_init__(self):
        if self.m_t < 1:
            raise ValueError("m_t must be at least 1")

    @property
    def tau(self) -> float:
        return 1.0 / self.m_t


@dataclass
class ProblemConfig:
    """Scalar problem data and solver tolerances.

    ``sigma`` is the conductivity, ``beta`` the control cost, ``nu`` the
    diffusion coefficient.  ``eps_reg`` is the weight of the elliptic
    term: a positive value adds ``eps_reg`` times the mass matrix to the
    stiffness, which makes it positive definite and the default shift 0;
    0 leaves the stiffness as assembled or read, and the default shift
    is ``nu``.  The initial state is zero.
    """

    sigma: float
    beta: float
    nu: float = 1.0
    eps_reg: float | None = None  # defaults to 1e-6 * nu
    shift: float | None = None  # defaults: 0 if eps_reg > 0, else nu
    tol: float = 1e-6
    trunc_tol: float = 1e-10
    max_it: int = 500

    def __post_init__(self):
        # NaN passes every range check below, and an infinite tolerance certifies anything
        for name in ("sigma", "beta", "nu", "eps_reg", "shift", "tol", "trunc_tol"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.eps_reg is None:
            self.eps_reg = 1e-6 * self.nu
        if self.eps_reg < 0:
            raise ValueError("eps_reg must be nonnegative")
        if self.shift is not None and self.shift < 0:
            raise ValueError("shift must be nonnegative")
        if self.tol <= 0 or self.trunc_tol < 0:
            raise ValueError("tolerances must be positive (truncation may be zero)")
        if self.max_it < 1:
            raise ValueError("max_it must be at least 1")

    @property
    def stiffness_is_pd(self) -> bool:
        return self.eps_reg > 0

    def resolve_shift(self) -> float:
        if self.shift is not None:
            return self.shift
        return 0.0 if self.stiffness_is_pd else self.nu


@dataclass(frozen=True)
class SpaceOperators:
    """Assembled (or imported) mass and stiffness matrices.

    The object also owns what every problem built on them can share:
    the factorization of M, kept for its lifetime, and a store of at most
    ``CACHE_ENTRIES`` further entries, the factorizations of K + s M for
    each shift s asked for and the extended Krylov spaces of the solver.
    Each entry is computed on first use; once the store is full, the
    entry used least recently is dropped and recomputed, identically,
    when it is asked for again.  The entries pickle, but a worker
    process should still get the data and build its own operators: a
    pickled object carries every entry computed so far.
    """

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.mass.shape[0]

    @cached_property
    def mass_factor(self) -> SparseFactorization:
        return sparse_spd_factorize(self.mass)

    @cached_property
    def _store(self) -> OrderedDict:
        return OrderedDict()

    def cached(self, key, build: Callable[[], object]):
        """The entry under ``key``, made by ``build()`` if it is not kept."""
        store = self._store
        if key in store:
            store.move_to_end(key)
            return store[key]
        value = store[key] = build()
        while len(store) > CACHE_ENTRIES:
            store.popitem(last=False)
        return value

    def shifted_factor(self, shift: float, coefficient: str = "shift") -> SparseFactorization:
        """The factorization of K + shift*M; NotSpdError says why it failed and what to change.

        ``coefficient`` names ``shift`` in the message: the problem's own
        shift by default, which the advice may tell to increase, or the
        caller's term for it, such as the "(g + w)" of the Schur factor.
        """

        def factorize():
            shifted = self.stiffness if shift == 0 else (self.stiffness + shift * self.mass).tocsr()
            try:
                return sparse_spd_factorize(shifted)
            except NotSpdError as exc:
                remedy = "the shift or " if coefficient == "shift" else ""
                raise NotSpdError(
                    f"stiffness plus {coefficient}*mass cannot be factored at {coefficient} = "
                    f"{shift:g} ({exc}); check the imported matrices, or increase "
                    f"{remedy}the elliptic regularization"
                ) from exc

        return self.cached(("shifted factor", shift), factorize)


def build_mesh(cells_per_side: int) -> Mesh2D:
    """Uniform right-triangle mesh of the unit square.

    Produces (cells_per_side + 1)^2 nodes and 2 cells_per_side^2
    triangles; the mesh size is the diagonal length sqrt(2)/cells_per_side.
    """
    if cells_per_side < 1:
        raise ValueError("cells_per_side must be at least 1")
    nside = cells_per_side + 1
    xs = np.linspace(0.0, 1.0, nside)
    grid_x, grid_y = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([grid_x.ravel(), grid_y.ravel()])

    # cell (i, j) has lower-left node j*nside + i and is split along its diagonal
    v00 = ((np.arange(cells_per_side) * nside)[:, None] + np.arange(cells_per_side)).ravel()
    v10, v01 = v00 + 1, v00 + nside
    v11 = v01 + 1
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return Mesh2D(nodes, tris, np.sqrt(2.0) / cells_per_side)


def _element_geometry(mesh: Mesh2D):
    """Per-triangle gradients and areas for P1 assembly."""
    p = mesh.nodes
    t = mesh.triangles
    x = p[t, 0]
    y = p[t, 1]
    # signed double areas; orientation must be positive
    area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    if np.any(area2 <= 1e-14):
        bad = int(np.argmin(area2))
        raise ValueError(f"degenerate or inverted triangle {bad} (double area {area2[bad]:.3e})")
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    return b, c, 0.5 * area2


def _scatter(mesh: Mesh2D, local: np.ndarray) -> sp.csr_matrix:
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.n_nodes
    mat = sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    mat = (mat + mat.T) * 0.5  # exact symmetry regardless of summation order
    mat.sort_indices()
    return mat


def assemble_mass(mesh: Mesh2D) -> sp.csr_matrix:
    """Consistent P1 mass matrix; SPD with entry sum equal to the domain area."""
    _, _, area = _element_geometry(mesh)
    template = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * template[None, :, :]
    return _scatter(mesh, local)


def add_elliptic_term(stiffness, mass, config: ProblemConfig) -> sp.csr_matrix:
    """K + eps_reg*M if ``config.stiffness_is_pd``, else K: assembled and imported K alike."""
    if config.stiffness_is_pd:
        return (stiffness + config.eps_reg * mass).tocsr()
    return stiffness


def _assemble_diffusion(mesh: Mesh2D, nu: float) -> sp.csr_matrix:
    b, c, area = _element_geometry(mesh)
    local = (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    ) / (4.0 * area)[:, None, None]
    return _scatter(mesh, local) * nu


def build_operators(mesh: Mesh2D, config: ProblemConfig) -> SpaceOperators:
    """The P1 mass and the stiffness nu * (grad, grad) plus :func:`add_elliptic_term`.

    With eps_reg > 0 the stiffness is positive definite; with eps_reg = 0
    it is symmetric positive semidefinite with the constants in its
    nullspace.
    """
    mass = assemble_mass(mesh)
    stiffness = add_elliptic_term(_assemble_diffusion(mesh, config.nu), mass, config)
    return SpaceOperators(mass, stiffness)


def _target_profile_split_domain(nodes: np.ndarray) -> np.ndarray:
    """Target active on the lower triangle {x1 > x2} of the square, zero elsewhere."""
    x1 = nodes[:, 0]
    x2 = nodes[:, 1]
    vals = np.sin(2.0 * np.pi * x1) + 2.0 * np.pi * np.cos(2.0 * np.pi * x1) * (x1 - x2)
    return np.where(x1 > x2, vals, 0.0)


def _target_profile_product_sine(nodes: np.ndarray) -> np.ndarray:
    return np.sin(np.pi * nodes[:, 0]) * np.sin(np.pi * nodes[:, 1])


def sample_desired_state(example: str, mesh: Mesh2D, grid: TimeGrid) -> np.ndarray:
    """Nodal samples of a built-in target state, one column per time step.

    ``example`` selects 'ex1' (discontinuous split-domain profile) or
    'ex2' (product of sines); both are constant in time.  Only the
    built-in targets are sampled here: a table of values enters through
    the CLI (``--yd-file`` or a sweep spec's ``yd_file``), which checks
    its shape and entries, or goes to :func:`lowrank_desired` directly.
    """
    if example == "ex1":
        profile = _target_profile_split_domain(mesh.nodes)
    elif example == "ex2":
        profile = _target_profile_product_sine(mesh.nodes)
    else:
        raise ValueError(f"unknown desired-state example {example!r}")
    return np.repeat(profile[:, None], grid.m_t, axis=1)


def lowrank_desired(yd: np.ndarray, tol: float) -> LowRankMatrix:
    """Minimal-rank factorization of the target with relative error <= tol.

    :func:`~eddyopt.lacore.lowrank_from_dense` compresses the table to
    ||Yd - L R^T||_F <= tol ||Yd||_F at a cost that scales with its
    rank; full-rank tables and ``tol = 0`` take the exact truncated SVD.
    """
    return lowrank_from_dense(yd, tol)
