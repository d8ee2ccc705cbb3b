"""Spatial grid, hydrodynamic moments, and the periodic Poisson field.

Space is the unit torus split into equal cells. The potential solves
-lap phi = rho - rho_inf with the standard 3-point Laplacian and a
zero-mean gauge; the gradient uses the centered 2-point stencil so that
summation by parts holds exactly on the periodic grid. The solve is a
Fourier one with the zero mode pinned to zero.

Space has one axis, along the first velocity component v1, so the one
current that transport carries and the field pairs with is that of v1:
`moments` returns it alone, beside the density.

Every function here takes leading batch axes, one per stacked state: a
record pass hands them K states at once, (K, cells, nodes), and gets
(K, cells) moments and fields back. The spatial axis of a per-cell array
is its last; each record's values are those of the single state, bit for
bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .velocity import VelocityGrid, integrate

__all__ = [
    "SpatialGrid",
    "build_spatial_grid",
    "FieldSet",
    "moments",
    "solve_poisson",
    "centered_gradient",
]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform cells on the unit torus (1-d)."""

    cells: int
    spacing: float

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.cells) + 0.5) * self.spacing


def build_spatial_grid(cells: int) -> SpatialGrid:
    if cells < 4:
        raise ValueError(f"need at least 4 spatial cells, got {cells}")
    return SpatialGrid(cells=int(cells), spacing=1.0 / cells)


@dataclass(frozen=True)
class FieldSet:
    """Density, current along v1, and potential gradient per cell.

    Each is (cells,) for one state, (K, cells) for a batch of K.
    """

    rho: np.ndarray
    j: np.ndarray         # the first velocity component's current
    grad_phi: np.ndarray


def moments(f: np.ndarray, vgrid: VelocityGrid, work=None) -> tuple[np.ndarray, np.ndarray]:
    """Density and current along v1 per spatial cell: two `integrate` calls.

    f is (..., cells, nodes); rho and j are (..., cells). `work` is as for
    `integrate`; its first array also holds f v1. None allocates.
    """
    rho = integrate(f, vgrid, work)
    flux = np.multiply(f, vgrid.first_axis, out=None if work is None else work[0])
    return rho, integrate(flux, vgrid, work)


def centered_gradient(u: np.ndarray, sgrid: SpatialGrid,
                      out: np.ndarray | None = None) -> np.ndarray:
    """(u[x+1] - u[x-1]) / (2 dx) along u's last axis, periodic, into `out`.

    `out` has u's shape; None allocates.
    """
    if out is None:
        out = np.empty_like(u)
    np.subtract(u[..., 2:], u[..., :-2], out=out[..., 1:-1])
    out[..., 0], out[..., -1] = u[..., 1] - u[..., -1], u[..., 0] - u[..., -2]
    out /= 2.0 * sgrid.spacing
    return out


@lru_cache(maxsize=8)
def _laplacian_eigenvalues(sgrid: SpatialGrid) -> np.ndarray:
    k = np.arange(sgrid.cells // 2 + 1)
    return (4.0 / sgrid.spacing**2) * np.sin(np.pi * k / sgrid.cells) ** 2


def _poisson_fft(source: np.ndarray, sgrid: SpatialGrid) -> np.ndarray:
    src_hat = np.fft.rfft(source, axis=-1)
    phi_hat = np.zeros_like(src_hat)
    phi_hat[..., 1:] = src_hat[..., 1:] / _laplacian_eigenvalues(sgrid)[1:]
    return np.fft.irfft(phi_hat, n=sgrid.cells, axis=-1)


def solve_poisson(
    rho: np.ndarray,
    rho_inf: float,
    sgrid: SpatialGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve -lap phi = rho - rho_inf on the torus, zero-mean gauge.

    rho is (..., cells), one solve per leading index. Each source must
    integrate to zero (the periodic problem is solvable only then); a mean
    above 1e-10 is rejected, naming the first such mean.
    """
    rho = np.asarray(rho, dtype=float)
    source = rho - rho_inf
    mean = np.add.reduce(source, axis=-1) / sgrid.cells
    unbalanced = np.abs(mean) > 1e-10
    if unbalanced.any():
        raise ValueError(
            f"Poisson source must have zero mean, got {np.extract(unbalanced, mean)[0]:.3e}"
        )
    source = source - mean[..., None]  # strip the rounding-level zero mode
    phi = _poisson_fft(source, sgrid)
    return phi, centered_gradient(phi, sgrid)

