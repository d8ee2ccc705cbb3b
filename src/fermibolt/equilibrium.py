"""Fermi-Dirac profiles and the density -> kappa inversion.

A local equilibrium on the lattice is kappa*M/(1 + kappa*M) for a
positive scalar kappa; its density is strictly increasing in kappa and
saturates at the lattice volume (2L)^dim, the Pauli ceiling f == 1.
Inverting density -> kappa is a scalar root solve done here with a
bracketed Newton iteration (analytic derivative) that falls back to
bisection whenever a Newton step would leave the bracket.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .velocity import VelocityGrid, integrate

__all__ = [
    "SaturationError",
    "EquilibriumProfile",
    "fermi_profile",
    "solve_kappa_many",
    "global_equilibrium",
    "project",
]

MAX_NEWTON_ITER = 200
PROJECT_REL_TOL = 1e-12       # per-cell density match of `project`
EQUILIBRIUM_REL_TOL = 1e-14   # density match of `global_equilibrium`


class SaturationError(ValueError):
    """Requested density is not reachable under the Pauli bound f <= 1."""


@dataclass(frozen=True)
class EquilibriumProfile:
    """Spatially uniform Fermi-Dirac state kappa*M/(1 + kappa*M)."""

    kappa: float
    profile: np.ndarray  # (n_nodes,)
    density: float


def fermi_profile(kappa, grid: VelocityGrid) -> np.ndarray:
    """kappa*M/(1 + kappa*M); kappa may be scalar or a column of cells."""
    kappa = np.asarray(kappa, dtype=float)
    km = kappa[..., None] * grid.maxwellian if kappa.ndim else kappa * grid.maxwellian
    return km / (1.0 + km)


def solve_kappa_many(
    targets: np.ndarray,
    grid: VelocityGrid,
    rel_tol: float = 1e-12,
    initial: np.ndarray | None = None,
    work=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert density -> kappa for a 1-d batch of target densities.

    Returns (kappa, profile): kappa one value per target, and profile the
    (targets, nodes) Fermi-Dirac rows of the final, converged evaluation,
    the same IEEE operations as `fermi_profile` of that kappa.

    Maintains a sign bracket [lo, hi] per entry; Newton steps that stay
    inside the bracket are taken, anything else bisects. `initial` is a
    warm start (previous kappa field), otherwise the small-kappa linear
    estimate target / int(M) seeds the iteration; a warm start that runs
    out of iterations restarts from that estimate.

    Every iteration evaluates the profile into the third array of `work`,
    the one returned, and its denominator and the slope's terms into the
    first two: C-contiguous float arrays of the (targets, nodes) shape.
    None allocates all three.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 1:
        raise ValueError("targets must be a 1-d array of cell densities")
    saturation = float(np.add.reduce(grid.weights))
    if (targets <= 0.0).any():
        raise ValueError("target density must be positive")
    if (targets >= saturation * (1.0 - 1e-12)).any():
        raise SaturationError(
            f"target density reaches the Pauli saturation {saturation:g} "
            "of the truncated lattice"
        )

    if initial is not None:
        kappa = np.maximum(np.asarray(initial, dtype=float), 1e-300)  # a new array
        if kappa.shape != targets.shape:
            raise ValueError("warm-start array must match the target shape")
    else:
        kappa = targets / float(integrate(grid.maxwellian, grid))

    m, w = grid.maxwellian, grid.weight
    tol = rel_tol * targets
    lo = np.zeros_like(targets)          # density(0) = 0 < target always
    hi = np.full_like(targets, np.inf)
    shape = targets.shape + m.shape
    profile = np.empty(shape) if work is None else work[2]
    denom, terms = np.empty((2,) + shape) if work is None else work[:2]
    for _ in range(MAX_NEWTON_ITER):
        np.multiply(kappa[:, None], m, out=profile)
        np.add(1.0, profile, out=denom)
        profile /= denom                 # kappa M / (1 + kappa M)
        resid = np.add.reduce(np.multiply(profile, w, out=terms), axis=-1) - targets
        done = np.abs(resid) <= tol
        if done.all():
            return kappa, profile
        # far above the root denom * denom overflows: the slope is 0, so bisect
        with np.errstate(over="ignore"):
            np.divide(m, np.multiply(denom, denom, out=terms), out=terms)
            slope = np.add.reduce(np.multiply(terms, w, out=terms), axis=-1)
        below = resid < 0.0
        np.maximum(lo, kappa, out=lo, where=below)
        np.minimum(hi, kappa, out=hi, where=~below)
        step = np.divide(resid, slope, out=np.full_like(resid, np.nan), where=slope > 0.0)
        trial = kappa - step
        # a nan or infinite trial fails both comparisons
        keep = done | ((trial > lo) & (trial < hi))
        np.copyto(trial, kappa, where=done)
        if not keep.all():
            # Bisect where Newton leaves the bracket; double upward while the
            # upper end is still unknown.
            fallback = np.where(np.isinf(hi), 2.0 * np.maximum(kappa, 1.0), 0.5 * (lo + hi))
            np.copyto(trial, fallback, where=~keep)
        kappa = trial
    if initial is not None:
        # a warm start far above the root halves its way down too slowly
        return solve_kappa_many(targets, grid, rel_tol, work=work)
    raise RuntimeError(
        f"kappa iteration failed to reach rel_tol={rel_tol:g} "
        f"in {MAX_NEWTON_ITER} steps"
    )


def global_equilibrium(mass: float, grid: VelocityGrid) -> EquilibriumProfile:
    """Uniform equilibrium carrying the conserved mass on the unit torus.

    The constant density, equal to the mass, fixes kappa; profile and
    density come from the converged Newton evaluation. The tight
    EQUILIBRIUM_REL_TOL keeps the equilibrium-distance floor of long runs
    well below the diagnostic resolution.
    """
    kappa, profile = solve_kappa_many(np.array([mass]), grid, EQUILIBRIUM_REL_TOL)
    return EquilibriumProfile(
        kappa=float(kappa[0]),
        profile=profile[0],
        density=float(integrate(profile[0], grid)),
    )


def project(f: np.ndarray, grid: VelocityGrid, kappa_cache: np.ndarray | None = None,
            rho: np.ndarray | None = None, work=None):
    """Cell-by-cell Fermi-Dirac profile with the same density as f.

    Returns (profile_field, kappa) with profile_field shaped like f and
    kappa one value per cell. The projection only matches the density;
    odd velocity moments of the output vanish by lattice symmetry.
    `rho`, when given, is the density of f that `moments` computed; the
    profile is the one the converged Newton evaluation built, in the third
    array of `work`, the solve's scratch (`solve_kappa_many`), or in a new
    array when `work` is None.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[1] != grid.n_nodes:
        raise ValueError("expected f shaped (cells, velocity nodes)")
    if rho is None:
        rho = integrate(f, grid)
    kappa, profile = solve_kappa_many(rho, grid, PROJECT_REL_TOL, kappa_cache, work)
    return profile, kappa
