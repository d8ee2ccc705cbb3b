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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import KERNELS
from .velocity import VelocityGrid, integrate

__all__ = [
    "CollisionKernel",
    "build_kernel",
    "load_kernel_table",
    "apply_collision",
    "collision_dt_ceiling",
]

@dataclass(frozen=True)
class CollisionKernel:
    """Symmetric scattering kernel in the structured form `scatter` uses.

    sigma_ij = level + 0.5 prod_axes exp(-(u_a - u_b)^2 / 2) when `bump`
    holds the per-axis Gaussian factor, plain `level` when it is None,
    and the dense `table` for a kernel loaded from disk. The lattice
    weights are uniform, so one `node_weight` stands for all of them.
    """

    kind: str
    dim: int
    n_nodes: int
    node_weight: float
    level: float
    sigma_minus: float
    sigma_plus: float
    dt_ceiling: float                # collision_dt_ceiling at build time
    bump: np.ndarray | None = None   # (n_axis, n_axis) exp(-(u_a - u_b)^2 / 2)
    table: np.ndarray | None = None  # (n_nodes, n_nodes), custom_table only

    def scatter(self, g: np.ndarray) -> np.ndarray:
        """(S g)_i = sum_j w_j sigma_ij g_j over the last axis of g.

        The rank-one form returns a length-one node axis, which
        broadcasts against g. The Gaussian part is a BLAS matmul, one
        (cells, n) x (n, n) product in 1-d and two n x n products per cell
        in 2-d; the dense table goes through einsum.
        """
        if self.table is not None:
            return self.node_weight * np.einsum("ij,...j->...i", self.table, g)
        flat = (self.node_weight * self.level) * np.add.reduce(g, axis=-1, keepdims=True)
        if self.bump is None:
            return flat
        # bump is symmetric, so B g is g @ B and B g B^T is (B @ g) @ B
        if self.dim == 1:
            gauss = g @ self.bump
        else:
            n = self.bump.shape[0]
            cube = g.reshape(g.shape[:-1] + (n, n))
            gauss = ((self.bump @ cube) @ self.bump).reshape(g.shape)
        return flat + (0.5 * self.node_weight) * gauss


def collision_dt_ceiling(kernel: CollisionKernel, vgrid: VelocityGrid) -> float:
    """Sufficient explicit-step bound keeping the collision update monotone."""
    m0 = float(integrate(vgrid.maxwellian, vgrid))
    rho_max = float(np.sum(vgrid.weights))  # Pauli-saturated density
    return 1.0 / (kernel.sigma_plus * (m0 + rho_max))


def _make_kernel(kind: str, grid: VelocityGrid, level: float,
                 bounds: tuple[float, float], **structure) -> CollisionKernel:
    kernel = CollisionKernel(
        kind=kind,
        dim=grid.dim,
        n_nodes=grid.n_nodes,
        node_weight=float(grid.weights[0]),
        level=level,
        sigma_minus=bounds[0],
        sigma_plus=bounds[1],
        dt_ceiling=math.nan,
        **structure,
    )
    return replace(kernel, dt_ceiling=collision_dt_ceiling(kernel, grid))


def build_kernel(kind: str, grid: VelocityGrid, *, sigma0: float = 1.0,
                 table_path: str | None = None) -> CollisionKernel:
    """Construct one of the built-in kernels or load a table from disk."""
    if kind == "constant":
        if sigma0 <= 0.0:
            raise ValueError(f"constant kernel needs sigma0 > 0, got {sigma0:g}")
        return _make_kernel(kind, grid, float(sigma0), (sigma0, sigma0))
    if kind == "gaussian_bump":
        axis = grid.nodes[: grid.nodes_per_axis, -1]  # last axis varies fastest
        diff = axis[:, None] - axis[None, :]
        return _make_kernel(kind, grid, 1.0, (1.0, 1.5),
                            bump=np.exp(-0.5 * diff * diff))
    if kind == "custom_table":
        if table_path is None:
            raise ValueError("custom_table kernel needs a file path")
        return load_kernel_table(table_path, grid)
    raise ValueError(f"unknown kernel kind {kind!r}; choose from {KERNELS}")


def load_kernel_table(path: str, grid: VelocityGrid) -> CollisionKernel:
    """Plain-text table: a header line with N, then N rows of N values.

    N is checked against the lattice before any value is parsed, so a
    table for another lattice fails at once, not after N^2 floats.
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
    return _make_kernel("custom_table", grid, math.nan, (lo, float(matrix.max())),
                        table=matrix)


def apply_collision(f: np.ndarray, kernel: CollisionKernel,
                    grid: VelocityGrid) -> np.ndarray:
    """Evaluate Q(f) for one cell (N,) or a stack of cells (cells, N).

    Uses Q = G * (S f) - f * (S G) with G = M (1 - f) and S the kernel's
    scatter map, (S g)_i = sum_j w_j sigma_ij g_j, in one of three forms:

    - constant: sigma0 * (w . g), rank one;
    - gaussian_bump: (w . g) + 0.5 * B g, with B the weighted per-axis
      Gaussian factor; in 2-d the second term is 0.5 * B g B^T on the
      `ij` node grid, two n_axis-sized matmuls per cell;
    - custom_table: the dense weighted table.

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
    if fmin < 0.0 or fmax > 1.0:
        raise ValueError(
            f"occupation numbers must lie in [0, 1], found range "
            f"[{fmin:g}, {fmax:g}]"
        )
    gain_weight = 1.0 - f
    gain_weight *= grid.maxwellian
    scattered_gain = kernel.scatter(gain_weight)
    q = gain_weight  # G * (S f) - f * (S G), built in the G buffer
    q *= kernel.scatter(f)
    q -= f * scattered_gain
    return q[0] if single else q
