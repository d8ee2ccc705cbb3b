"""Spatial grid, hydrodynamic moments, and the periodic Poisson field.

Space is the unit torus split into equal cells. The potential solves
-lap phi = rho - rho_inf with the standard 3-point Laplacian and a
zero-mean gauge; the gradient uses the centered 2-point stencil so that
summation by parts holds exactly on the periodic grid. The solve is a
Fourier one with the zero mode pinned to zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .velocity import VelocityGrid, integrate, mirror_fold, scratch

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
    """Density, current, potential, and potential gradient per cell."""

    rho: np.ndarray       # (cells,)
    j: np.ndarray         # (cells, d_v)
    phi: np.ndarray       # (cells,), zero mean
    grad_phi: np.ndarray  # (cells,)


def moments(f: np.ndarray, vgrid: VelocityGrid, work=None) -> tuple[np.ndarray, np.ndarray]:
    """Density and current per spatial cell.

    `work` is as for `integrate`: its first two arrays hold the
    quadrature terms and their folded pairs; None allocates them.
    """
    f = np.asarray(f)
    terms, spare = (np.empty(f.shape), None) if work is None else work[:2]
    rho = integrate(f, vgrid, (terms, spare))
    # one reduction over (cells, d_v, half), the shape that one `integrate`
    # of the (cells, d_v, nodes) product reduces; its terms are formed one
    # component at a time, each bitwise what the whole product would hold
    dim, half = vgrid.dim, vgrid.n_nodes // 2
    folded = scratch(spare, f.shape[:-1] + (dim, half))
    for d, axis in enumerate(np.ascontiguousarray(vgrid.nodes.T)):
        np.multiply(f, axis, out=terms)
        terms *= vgrid.weight
        mirror_fold(terms, folded[..., d, :])
    return rho, np.add.reduce(folded, axis=-1)


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

