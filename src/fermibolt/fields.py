"""Spatial grid, hydrodynamic moments, and the periodic Poisson field.

Space is the unit torus split into equal cells. The potential solves
-lap phi = rho - rho_inf with the standard 3-point Laplacian and a
zero-mean gauge; the gradient uses the centered 2-point stencil so that
summation by parts holds exactly on the periodic grid. The solve is a
Fourier one with the zero mode pinned to zero.

Space has one axis, along the first velocity component v1, so the one
current that transport carries and the field pairs with is that of v1:
`moments` returns it alone, beside the density.
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
    """Density, current along v1, and potential gradient per cell."""

    rho: np.ndarray       # (cells,)
    j: np.ndarray         # (cells,), the first velocity component's current
    grad_phi: np.ndarray  # (cells,)


def moments(f: np.ndarray, vgrid: VelocityGrid, work=None) -> tuple[np.ndarray, np.ndarray]:
    """Density and current along v1 per spatial cell: two `integrate` calls.

    `work` is as for `integrate`; its first array also holds f v1. None
    allocates.
    """
    rho = integrate(f, vgrid, work)
    flux = np.multiply(f, vgrid.first_axis, out=None if work is None else work[0])
    return rho, integrate(flux, vgrid, work)


def centered_gradient(u: np.ndarray, sgrid: SpatialGrid,
                      out: np.ndarray | None = None) -> np.ndarray:
    """(u[x+1] - u[x-1]) / (2 dx), periodic, into `out` (u's shape; None allocates)."""
    if out is None:
        out = np.empty_like(u)
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    out[0], out[-1] = u[1] - u[-1], u[0] - u[-2]
    out /= 2.0 * sgrid.spacing
    return out


@lru_cache(maxsize=8)
def _laplacian_eigenvalues(sgrid: SpatialGrid) -> np.ndarray:
    k = np.arange(sgrid.cells // 2 + 1)
    return (4.0 / sgrid.spacing**2) * np.sin(np.pi * k / sgrid.cells) ** 2


def _poisson_fft(source: np.ndarray, sgrid: SpatialGrid) -> np.ndarray:
    src_hat = np.fft.rfft(source)
    phi_hat = np.zeros_like(src_hat)
    phi_hat[1:] = src_hat[1:] / _laplacian_eigenvalues(sgrid)[1:]
    return np.fft.irfft(phi_hat, n=sgrid.cells)


def solve_poisson(
    rho: np.ndarray,
    rho_inf: float,
    sgrid: SpatialGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve -lap phi = rho - rho_inf on the torus, zero-mean gauge.

    The source must integrate to zero (the periodic problem is solvable
    only then); a mean above 1e-10 is rejected.
    """
    rho = np.asarray(rho, dtype=float)
    source = rho - rho_inf
    mean = float(np.add.reduce(source)) / sgrid.cells
    if abs(mean) > 1e-10:
        raise ValueError(
            f"Poisson source must have zero mean, got {mean:.3e}"
        )
    source = source - mean  # strip the rounding-level zero mode
    phi = _poisson_fft(source, sgrid)
    return phi, centered_gradient(phi, sgrid)

