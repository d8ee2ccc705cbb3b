"""Entropy functionals, dissipation, and weighted norms.

All distances live in the weighted space with inner product
sum_{x,v} g h / M(v) w_v dx. The physical relative entropy of an
occupation field f against the uniform equilibrium p is

    H[f] = sum f log(f/p) + (1 - f) log((1-f)/(1-p)),

nonnegative, zero exactly at f == p. A one-parameter family extends it:
for any increasing chi, the integrand S solves dS/dz = chi(z/(M(1-z)))
with S vanishing at the equilibrium value, evaluated here by fixed-order
Gauss-Legendre quadrature in z. The entropy production of the collision
operator is the symmetric double sum

    D[f] = 1/2 sum_x dx sum_ij w_i w_j sigma_ij M_i M_j (1-f_i)(1-f_j)
                 (F_i - F_j)(chi(F_i) - chi(F_j)),    F = f / (M (1-f)),

every term of which is nonnegative for increasing chi. It is evaluated
as two scatter contractions per cell rather than pairwise, so D >= 0
holds up to rounding only; a run enforces it with its dissipation
floor. The drift-augmented functional adds delta * sum grad_phi . j dx
to H.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import FieldSet, SpatialGrid
from .velocity import VelocityGrid

__all__ = [
    "weighted_norm",
    "relative_entropy",
    "generalized_entropy",
    "dissipation",
    "field_current_pairing",
    "log_ratio_chi",
    "identity_chi",
    "tabulated_chi",
    "DiagnosticsRecord",
    "RECORD_FIELDS",
]

def weighted_norm(g: np.ndarray, vgrid: VelocityGrid, sgrid: SpatialGrid,
                  ref: np.ndarray | None = None) -> float:
    """sqrt( sum_x dx sum_v (g - ref)^2 / M w ); deterministic pairwise reduction.

    `ref` is a field or a profile broadcast over the cells; None is zero.
    """
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[1] != vgrid.n_nodes:
        raise ValueError("expected a field shaped (cells, velocity nodes)")
    if ref is not None:
        g = g - ref
    total = np.add.reduce(np.add.reduce(g * g / vgrid.maxwellian * vgrid.weights, axis=-1))
    return float(np.sqrt(total * sgrid.spacing))


def _check_open_interval(f: np.ndarray) -> None:
    fmin, fmax = float(f.min()), float(f.max())
    if fmin <= 0.0 or fmax >= 1.0:
        raise ValueError(
            f"entropy needs occupation numbers strictly inside (0, 1), "
            f"found range [{fmin:g}, {fmax:g}]"
        )


def relative_entropy(
    f: np.ndarray,
    eq_profile: np.ndarray,
    vgrid: VelocityGrid,
    sgrid: SpatialGrid,
) -> float:
    """Physical entropy of f relative to the uniform profile."""
    f = np.asarray(f, dtype=float)
    _check_open_interval(f)
    p = eq_profile
    hole = 1.0 - f
    s = f * np.log(f / p) + hole * np.log(hole / (1.0 - p))
    return float(np.add.reduce(np.add.reduce(s * vgrid.weights, axis=-1)) * sgrid.spacing)


def log_ratio_chi(kappa_inf: float):
    """The physical choice chi(z) = log(z / kappa_inf)."""
    if kappa_inf <= 0.0:
        raise ValueError("kappa_inf must be positive")

    def chi(z):
        return np.log(z / kappa_inf)

    return chi


def identity_chi(z):
    """Quadratic-entropy generator chi(z) = z."""
    return z


def tabulated_chi(z_values, chi_values):
    """Monotone interpolant through sampled (z, chi) pairs."""
    z_values = np.asarray(z_values, dtype=float)
    chi_values = np.asarray(chi_values, dtype=float)
    if z_values.ndim != 1 or z_values.shape != chi_values.shape:
        raise ValueError("need matching 1-d arrays of z and chi samples")
    if np.any(np.diff(z_values) <= 0.0):
        raise ValueError("z samples must be strictly increasing")
    if np.any(np.diff(chi_values) < 0.0):
        raise ValueError("chi samples must be non-decreasing")

    def chi(z):
        return np.interp(z, z_values, chi_values)

    return chi


@lru_cache(maxsize=8)
def _gauss_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def generalized_entropy(
    f: np.ndarray,
    eq_profile: np.ndarray,
    vgrid: VelocityGrid,
    sgrid: SpatialGrid,
    chi,
    order: int = 32,
) -> float:
    """Entropy for an arbitrary increasing chi.

    The node-wise integrand has no closed form, so integrate
    chi(z/(M(1-z))) in z from the equilibrium value to f with a
    Gauss-Legendre rule; 32 points leaves the quadrature defect far
    below the functional's own discretization level.
    """
    f = np.asarray(f, dtype=float)
    _check_open_interval(f)
    nodes, weights = _gauss_rule(order)
    mid = 0.5 * (f + eq_profile)
    half = 0.5 * (f - eq_profile)
    # z has shape (cells, n_nodes, order)
    z = mid[..., None] + half[..., None] * nodes
    ratio = z / (vgrid.maxwellian[None, :, None] * (1.0 - z))
    s = half * np.sum(chi(ratio) * weights, axis=-1)
    return float(np.sum(np.sum(s * vgrid.weights, axis=-1)) * sgrid.spacing)


def dissipation(
    f: np.ndarray,
    kernel,
    vgrid: VelocityGrid,
    sgrid: SpatialGrid,
    chi=None,
) -> float:
    """Collision entropy production, >= 0 up to rounding.

    With a = M (1 - f) and S the kernel's scatter map, the double sum
    collapses to two contractions per cell:

        D = dx sum_x sum_i w_i a_i Ft_i [chit_i (S a)_i - (S (a chit))_i],

    where Ft = F - c and chit = chi(F) - chi(c) are shifted by the
    a-weighted mean c = sum w f / sum w a of F in the cell. The shift
    leaves D unchanged in exact arithmetic and keeps the cancellation
    between the two terms relative to the squared distance from local
    equilibrium rather than to O(1). The term-by-term sign of the
    pairwise form is lost, so D can come out negative at rounding level.

    `chi=None` selects the physical log choice, for which the
    kappa_inf offset cancels in the shifted chi.
    """
    f = np.asarray(f, dtype=float)
    _check_open_interval(f)
    a = vgrid.maxwellian * (1.0 - f)          # (cells, N)
    ratio = f / a                             # F = f / (M (1 - f))
    chi = np.log if chi is None else chi
    centre = np.add.reduce(f, axis=-1) / np.add.reduce(a, axis=-1)  # uniform weights cancel
    ratio_shift = ratio - centre[:, None]
    chi_shift = chi(ratio) - chi(centre)[:, None]
    bracket = chi_shift * kernel.scatter(a) - kernel.scatter(a * chi_shift)
    per_node = a * ratio_shift * bracket
    return float(np.add.reduce(np.add.reduce(per_node * vgrid.weights, axis=-1))) * sgrid.spacing


def field_current_pairing(fields: FieldSet, sgrid: SpatialGrid) -> float:
    """sum_x grad_phi . j dx (first current component drives 1-d space)."""
    return float(np.add.reduce(fields.grad_phi * fields.j[:, 0]) * sgrid.spacing)


RECORD_FIELDS = (
    "t",
    "mass",
    "H",
    "E",
    "D",
    "dist_total",
    "dist_local",
    "dist_hydro",
    "pairing",
    "ratio_c1",
    "ratio_c6",
    "kappa_min",
    "kappa_max",
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One diagnostics row; field order matches the CSV schema."""

    t: float
    mass: float
    H: float
    E: float
    D: float
    dist_total: float
    dist_local: float
    dist_hydro: float
    pairing: float
    ratio_c1: float
    ratio_c6: float
    kappa_min: float
    kappa_max: float

    def as_row(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in RECORD_FIELDS)
