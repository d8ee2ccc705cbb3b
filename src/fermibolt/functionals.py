"""Entropy functionals, dissipation, and weighted norms.

All distances live in the weighted space with inner product
sum_{x,v} g h / M(v) w_v dx. The physical relative entropy of an
occupation field f against the uniform equilibrium p is

    H[f] = sum f log(f/p) + (1 - f) log((1-f)/(1-p)),

nonnegative, zero exactly at f == p. Its entropy production under the
collision operator is the symmetric double sum

    D[f] = 1/2 sum_x dx sum_ij w_i w_j sigma_ij M_i M_j (1-f_i)(1-f_j)
                 (F_i - F_j)(log F_i - log F_j),    F = f / (M (1-f)),

every term of which is nonnegative because log is increasing. It is
evaluated as two scatter contractions per cell rather than pairwise, so
D >= 0 holds up to rounding only; a run enforces it with its dissipation
floor. The modified entropy E = H + delta * sum grad_phi . j dx adds the
macroscopic corrector of Dolbeault, Mouhot and Schmeiser (Trans. AMS
2015): phi is a diagnostic built from the density, not a force on f.
A record stores H and the pairing, not E: E depends on delta, and is
formed where it is read (`experiment.modified_entropy`).

Each functional takes `work=`, a sequence of C-contiguous float arrays of
the state's shape, and builds its temporaries there in place: a run lends
them its record workspace (`experiment.RecordPlan.work`). None allocates
them; the float operations and their order are the same either way.

Each also takes leading batch axes: a stack of K states, (K, cells,
nodes), gives K values, one per state, where one (cells, nodes) state
gives a float. Every sum runs over nodes first, then cells, as numpy's
pairwise `add.reduce` along the last axis, so each state's value is the
one a single call gives, bit for bit. A per-node reference (a profile,
1 - a profile) may be a (nodes,) row or a (cells, nodes) tile; either
broadcasts over the stack, and a tile spares numpy a row broadcast per
cell.
"""
from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .fields import FieldSet, SpatialGrid
from .velocity import VelocityGrid

__all__ = [
    "weighted_norm",
    "relative_entropy",
    "dissipation",
    "field_current_pairing",
    "DiagnosticsRecord",
    "RECORD_FIELDS",
]

def _phase_sum(terms: np.ndarray, sgrid: SpatialGrid) -> np.ndarray:
    """dx sum_x sum_v terms per state: nodes first, then cells, pairwise along each."""
    return np.add.reduce(np.add.reduce(terms, axis=-1), axis=-1) * sgrid.spacing


def _per_state(values: np.ndarray):
    """A float for one state, the array of K values for a stack."""
    return float(values) if values.ndim == 0 else values


def weighted_norm(g: np.ndarray, vgrid: VelocityGrid, sgrid: SpatialGrid,
                  ref: np.ndarray | None = None, work=None):
    """sqrt( sum_x dx sum_v (g - ref)^2 / M w ); deterministic pairwise reduction.

    `ref` is a field, a tile or a profile broadcast over the cells; None
    is zero. The squares go to the first array of `work`.
    """
    g = np.asarray(g)
    if g.ndim < 2 or g.shape[-1] != vgrid.n_nodes:
        raise ValueError("expected a field shaped (cells, velocity nodes)")
    sq = np.empty(g.shape) if work is None else work[0]
    if ref is not None:
        g = np.subtract(g, ref, out=sq)
    np.multiply(g, g, out=sq)
    sq /= vgrid.maxwellian
    sq *= vgrid.weight
    return _per_state(np.sqrt(_phase_sum(sq, sgrid)))


def _check_open_interval(f: np.ndarray) -> None:
    fmin, fmax = float(f.min()), float(f.max())
    if not (fmin > 0.0 and fmax < 1.0):  # NaN fails
        raise ValueError(
            f"entropy needs occupation numbers strictly inside (0, 1), "
            f"found range [{fmin:g}, {fmax:g}]"
        )


def relative_entropy(
    f: np.ndarray,
    eq_profile: np.ndarray,
    eq_hole: np.ndarray,
    vgrid: VelocityGrid,
    sgrid: SpatialGrid,
    work=None,
):
    """Physical entropy of f relative to the uniform profile p; three arrays of `work`.

    `eq_hole` is 1 - p, which the caller forms once rather than this
    function on every call.
    """
    f = np.asarray(f, dtype=float)
    _check_open_interval(f)
    hole, s, t = np.empty((3,) + f.shape) if work is None else work[:3]
    np.subtract(1.0, f, out=hole)
    np.multiply(f, np.log(np.divide(f, eq_profile, out=s), out=s), out=s)
    np.multiply(hole, np.log(np.divide(hole, eq_hole, out=t), out=t), out=t)
    s += t
    s *= vgrid.weight
    return _per_state(_phase_sum(s, sgrid))


def dissipation(
    f: np.ndarray,
    kernel,
    vgrid: VelocityGrid,
    sgrid: SpatialGrid,
    work=None,
):
    """Collision entropy production, >= 0 up to rounding.

    With a = M (1 - f) and S the kernel's scatter map, the double sum
    collapses to two contractions per cell:

        D = dx sum_x sum_i w_i a_i Ft_i [chit_i (S a)_i - (S (a chit))_i],

    where Ft = F - c and chit = log F - log c are shifted by the
    a-weighted mean c = sum w f / sum w a of F in the cell. The shift
    leaves D unchanged in exact arithmetic and keeps the cancellation
    between the two terms relative to the squared distance from local
    equilibrium rather than to O(1). The term-by-term sign of the
    pairwise form is lost, so D can come out negative at rounding level.
    The kappa_inf offset of the entropy's log(F / kappa_inf) cancels in
    the shifted log.

    f must lie strictly inside (0, 1); that is not checked here. A run
    checks it once per record through `relative_entropy` on the same f.
    The terms take four arrays of `work`; the 2-d Gaussian scatter's
    matmul intermediate is the one array of f's shape it allocates.
    """
    f = np.asarray(f, dtype=float)
    a, terms, chi, bracket = np.empty((4,) + f.shape) if work is None else work[:4]
    np.multiply(vgrid.maxwellian, np.subtract(1.0, f, out=a), out=a)
    ratio = np.divide(f, a, out=terms)        # F = f / (M (1 - f))
    centre = np.add.reduce(f, axis=-1) / np.add.reduce(a, axis=-1)  # uniform weights cancel
    np.subtract(np.log(ratio, out=chi), np.log(centre)[..., None], out=chi)
    np.subtract(ratio, centre[..., None], out=terms)
    np.multiply(a, terms, out=terms)          # a Ft
    np.multiply(chi, kernel.scatter(a, out=bracket), out=bracket)
    a *= chi
    bracket -= kernel.scatter(a, out=chi)     # chit (S a) - S (a chit)
    terms *= bracket
    terms *= vgrid.weight
    return _per_state(_phase_sum(terms, sgrid))


def field_current_pairing(fields: FieldSet, sgrid: SpatialGrid):
    """sum_x grad_phi j dx, with j the current along v1, the axis of space."""
    return _per_state(np.add.reduce(fields.grad_phi * fields.j, axis=-1) * sgrid.spacing)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One diagnostics row; its field order is the CSV schema, RECORD_FIELDS.

    Only what the record's state measures: nothing that depends on delta
    or on another record.
    """

    t: float
    mass: float
    H: float
    D: float
    dist_total: float
    dist_local: float
    dist_hydro: float
    pairing: float
    kappa_min: float
    kappa_max: float

    def as_row(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in RECORD_FIELDS)


RECORD_FIELDS = tuple(field.name for field in dataclass_fields(DiagnosticsRecord))
