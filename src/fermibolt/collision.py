"""Pauli-blocked relaxation collision operator on the velocity lattice.

The operator at one spatial cell is

    Q(f)_i = sum_j w_j sigma_ij [ M_i (1 - f_i) f_j - M_j (1 - f_j) f_i ]

with a symmetric positive scattering table sigma. Gain and loss are the
same double sum with the indices swapped, so the mass sum_i w_i Q(f)_i
cancels identically; the evaluation below keeps that cancellation exact
in the algebra (gain and loss share one real value) and the invariant
fails only by summation rounding, never by quadrature error.

Every evaluation goes through the kernel's scatter map
(S g)_i = sum_j w_j sigma_ij g_j, which uses the structure of the
built-in kernels instead of a dense table: `constant` is rank one and
`gaussian_bump` is a constant plus a Gaussian that factors by velocity
axis, contracted by BLAS matmul. Only `custom_table` keeps its dense
table. The determinism acceptance test checks that the output does not
depend on the BLAS thread count.

`scatter` and `apply_collision` take numpy-style `out=` buffers and
`work=` scratch rows, so a run's step builds Q in its plan's workspace
without a full-size temporary. Called without them they allocate what
they need; the float operations and their order are the same either way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import KERNELS
from .velocity import VelocityGrid, integrate

__all__ = [
    "CollisionKernel",
    "build_kernel",
    "load_kernel_table",
    "apply_collision",
    "collision_dt_ceiling",
    "TABLE_BUDGET_BYTES",
]

# Largest dense custom_table `load_kernel_table` accepts, as float64 bytes.
# The parse holds a Python float per value, several times this size.
TABLE_BUDGET_BYTES = 64 * 2**20

@dataclass(frozen=True)
class CollisionKernel:
    """Symmetric scattering kernel in the structured form `scatter` uses.

    sigma_ij = level + 0.5 prod_axes exp(-(u_a - u_b)^2 / 2) when `bump`
    holds the per-axis Gaussian factor, plain `level` when it is None,
    and the dense `table` for a kernel loaded from disk. The lattice
    weights are uniform, so one `node_weight` stands for all of them.
    The step-size ceiling is no field: `plan_step` computes it once per run.
    """

    kind: str
    dim: int
    node_weight: float
    level: float
    sigma_plus: float
    bump: np.ndarray | None = None   # (n_axis, n_axis) exp(-(u_a - u_b)^2 / 2)
    table: np.ndarray | None = None  # (n_nodes, n_nodes), custom_table only

    def scatter(self, g: np.ndarray, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
        """(S g)_i = sum_j w_j sigma_ij g_j over the last axis of g.

        The rank-one form returns a length-one node axis, which
        broadcasts against g, and leaves `out` alone. Every other form
        writes the full result into `out`, a C-contiguous array of g's
        shape, allocated when None. The Gaussian part is a BLAS matmul,
        one (cells, n) x (n, n) product in 1-d and two n x n products per
        cell in 2-d, the first of which lands in `work` (same shape as
        `out`, allocated when None); the dense table goes through einsum.
        """
        if self.table is not None:
            out = np.einsum("ij,...j->...i", self.table, g, out=out)
            out *= self.node_weight
            return out
        flat = (self.node_weight * self.level) * np.add.reduce(g, axis=-1, keepdims=True)
        if self.bump is None:
            return flat
        if out is None:
            out = np.empty(g.shape)
        # bump is symmetric, so B g is g @ B and B g B^T is (B @ g) @ B
        if self.dim == 1:
            np.matmul(g, self.bump, out=out)
        else:
            n = self.bump.shape[0]
            cubes = g.shape[:-1] + (n, n)
            if work is None:
                work = np.empty(g.shape)
            half = np.matmul(self.bump, g.reshape(cubes), out=work.reshape(cubes, copy=False))
            np.matmul(half, self.bump, out=out.reshape(cubes, copy=False))
        out *= 0.5 * self.node_weight
        out += flat
        return out


def collision_dt_ceiling(kernel: CollisionKernel, vgrid: VelocityGrid) -> float:
    """Sufficient explicit-step bound keeping the collision update monotone.

    `plan_step` is its one reader in a run.
    """
    m0 = float(integrate(vgrid.maxwellian, vgrid))
    rho_max = float(np.sum(vgrid.weights))  # Pauli-saturated density
    return 1.0 / (kernel.sigma_plus * (m0 + rho_max))


def _make_kernel(kind: str, grid: VelocityGrid, level: float, sigma_plus: float,
                 **structure) -> CollisionKernel:
    return CollisionKernel(kind, grid.dim, grid.weight, level, sigma_plus, **structure)


def build_kernel(kind: str, grid: VelocityGrid, *, sigma0: float = 1.0,
                 table_path: str | None = None) -> CollisionKernel:
    """Construct one of the built-in kernels or load a table from disk."""
    if kind == "constant":
        if sigma0 <= 0.0:
            raise ValueError(f"constant kernel needs sigma0 > 0, got {sigma0:g}")
        return _make_kernel(kind, grid, float(sigma0), sigma0)
    if kind == "gaussian_bump":
        axis = grid.nodes[: grid.nodes_per_axis, -1]  # last axis varies fastest
        diff = axis[:, None] - axis[None, :]
        return _make_kernel(kind, grid, 1.0, 1.5, bump=np.exp(-0.5 * diff * diff))
    if kind == "custom_table":
        if table_path is None:
            raise ValueError("custom_table kernel needs a file path")
        return load_kernel_table(table_path, grid)
    raise ValueError(f"unknown kernel kind {kind!r}; choose from {KERNELS}")


def load_kernel_table(path: str, grid: VelocityGrid) -> CollisionKernel:
    """Plain-text table: a header line with N, then N rows of N values.

    N is checked against the lattice, and the N^2 float64 table against
    TABLE_BUDGET_BYTES, before any value is parsed, so a table for
    another lattice or one too large to hold fails at once, not after
    N^2 floats.
    """
    values: list[float] = []
    n = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if n is None:
                n = int(line)
                if n != grid.n_nodes:
                    raise ValueError(
                        f"kernel table {path} declares N={n}, grid has "
                        f"{grid.n_nodes} nodes"
                    )
                if 8 * n * n > TABLE_BUDGET_BYTES:
                    raise ValueError(
                        f"kernel table {path} declares N={n}: its table takes "
                        f"{8 * n * n} bytes ({8 * n * n / 2**20:.6g} MiB), over the "
                        f"{TABLE_BUDGET_BYTES // 2**20} MiB budget"
                    )
                continue
            values.extend(float(tok) for tok in line.split())
    if n is None:
        raise ValueError(f"kernel table {path} has no header line")
    if len(values) != n * n:
        raise ValueError(
            f"kernel table {path} declares N={n} but holds {len(values)} values"
        )
    matrix = np.array(values).reshape(n, n)
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("kernel table must be symmetric")
    lo = float(matrix.min())
    if lo <= 0.0:
        raise ValueError(f"kernel values must be positive, found {lo:g}")
    return _make_kernel("custom_table", grid, math.nan, float(matrix.max()), table=matrix)


def apply_collision(f: np.ndarray, kernel: CollisionKernel, grid: VelocityGrid,
                    out: np.ndarray | None = None,
                    work: np.ndarray | None = None,
                    maxwellian: np.ndarray | None = None) -> np.ndarray:
    """Evaluate Q(f) for one cell (N,) or a stack of cells (cells, N).

    Uses Q = G * (S f) - f * (S G) with G = M (1 - f) and S the kernel's
    scatter map, (S g)_i = sum_j w_j sigma_ij g_j, in one of three forms:

    - constant: sigma0 * (w . g), rank one;
    - gaussian_bump: (w . g) + 0.5 * B g, with B the weighted per-axis
      Gaussian factor; in 2-d the second term is 0.5 * B g B^T on the
      `ij` node grid, two n_axis-sized matmuls per cell;
    - custom_table: the dense weighted table.

    For a stack of cells, Q is built in `out` (f's shape), and `work`,
    three C-contiguous rows of f's shape, holds f * (S G), S f and the 2-d
    matmul's intermediate; what is None is allocated as needed.
    `maxwellian` is M to use in G: by default `grid.maxwellian`, and a
    run's step passes the same row tiled to f's shape, so that numpy
    multiplies same-shape operands instead of broadcasting the row.
    That the result does not depend on the BLAS thread count is checked
    by the determinism acceptance test.
    """
    f = np.asarray(f, dtype=float)
    single = f.ndim == 1
    if single:
        f = f[None, :]
    if f.shape[-1] != grid.n_nodes:
        raise ValueError(f"state has {f.shape[-1]} nodes, grid {grid.n_nodes}")
    fmin, fmax = float(f.min()), float(f.max())
    if not (fmin >= 0.0 and fmax <= 1.0):  # written so that NaN fails
        raise ValueError(
            f"occupation numbers must lie in [0, 1], found range "
            f"[{fmin:g}, {fmax:g}]"
        )
    loss, scattered, spare = (None, None, None) if work is None else work
    q = np.subtract(1.0, f, out=out)  # G * (S f) - f * (S G), built in the G buffer
    q *= grid.maxwellian if maxwellian is None else maxwellian
    loss = np.multiply(f, kernel.scatter(q, out=loss, work=spare), out=loss)
    q *= kernel.scatter(f, out=scattered, work=spare)
    q -= loss
    return q[0] if single else q
