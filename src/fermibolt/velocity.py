"""Truncated velocity lattice with midpoint quadrature.

The velocity domain is the cube [-L, L]^dim sampled on a uniform
cell-centered lattice with an even number of nodes per axis, so every
node v has an exact mirror partner -v and the origin is not a node.
Integrals over velocity are plain midpoint sums; for Gaussian-type
integrands the lattice sum is accurate far beyond its formal order, and
the neglected tail outside the cube holds 1 - erf(L / sqrt 2)^dim of the
Gaussian's mass, 1.2e-15 at L = 8 in 1-d.

Every node has the same quadrature weight, (2L/N)^dim. The grid carries
it once as the scalar `weight`, and `weights` holds that one value at
every node, so `x * weight` and `x * weights` are the same IEEE products.
The quadratures multiply by the scalar, which spares numpy a broadcast
of the node row against a stack of cells.

`integrate` takes `work=`, C-contiguous float arrays of the values'
shape, as the other functions of a run's record pass do: the run lends
them its step workspace, so a quadrature allocates only its result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["VelocityGrid", "build_velocity_grid", "integrate"]

GAUSS_NORM = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class VelocityGrid:
    """Cell-centered lattice on [-L, L]^dim with equal weights."""

    dim: int
    half_width: float
    nodes_per_axis: int
    nodes: np.ndarray       # (n_nodes, dim), mirror symmetric
    weight: float           # (2L/N)^dim, the weight of every node
    weights: np.ndarray     # (n_nodes,), each equal to `weight`
    maxwellian: np.ndarray  # (n_nodes,), (2*pi)^(-dim/2) * exp(-|v|^2/2)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def first_axis(self) -> np.ndarray:
        """First velocity component at every node (drives 1-d transport)."""
        return self.nodes[:, 0]


def _axis_nodes(half_width: float, nodes_per_axis: int) -> np.ndarray:
    # Mirror the positive half so node pairing v <-> -v is exact in floats.
    h = 2.0 * half_width / nodes_per_axis
    positive = (np.arange(nodes_per_axis // 2) + 0.5) * h
    return np.concatenate([-positive[::-1], positive])


def build_velocity_grid(dim: int, half_width: float, nodes_per_axis: int) -> VelocityGrid:
    """Build the lattice; rejects shapes that break symmetry or truncation.

    The node count per axis must be even (no origin node, exact +-v
    pairing) and the half width at least 4 thermal units so the
    discarded Gaussian tail stays negligible.
    """
    if dim not in (1, 2):
        raise ValueError(f"velocity dimension must be 1 or 2, got {dim}")
    if nodes_per_axis % 2 != 0:
        raise ValueError(f"nodes_per_axis must be even, got {nodes_per_axis}")
    if nodes_per_axis < 8:
        raise ValueError(f"nodes_per_axis must be >= 8, got {nodes_per_axis}")
    if half_width < 4.0:
        raise ValueError(f"half_width must be >= 4, got {half_width}")

    axis = _axis_nodes(half_width, nodes_per_axis)
    if dim == 1:
        nodes = axis[:, None]
    else:
        va, vb = np.meshgrid(axis, axis, indexing="ij")
        nodes = np.column_stack([va.ravel(), vb.ravel()])

    h = 2.0 * half_width / nodes_per_axis
    weight = h**dim
    speed_sq = np.sum(nodes * nodes, axis=1)
    maxwellian = GAUSS_NORM**dim * np.exp(-0.5 * speed_sq)
    return VelocityGrid(
        dim=dim,
        half_width=float(half_width),
        nodes_per_axis=int(nodes_per_axis),
        nodes=nodes,
        weight=weight,
        weights=np.full(nodes.shape[0], weight),
        maxwellian=maxwellian,
    )


def mirror_fold(terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """terms[..., i] + terms[..., n-1-i] for the first half of the node axis, into `out`.

    The mirror partners v and -v sit at index i and n-1-i, so an odd
    integrand folds to exact zeros.
    """
    half = terms.shape[-1] // 2
    return np.add(terms[..., :half], terms[..., ::-1][..., :half], out=out)


def integrate(values: np.ndarray, grid: VelocityGrid,
              work=None) -> np.ndarray | float:
    """Midpoint quadrature over velocity: sum(values * weight).

    `values` may carry leading batch axes (e.g. one row per spatial
    cell); the node axis must be last. The mirror partners v and -v sit
    at index i and n-1-i, and their contributions are added first, so
    odd integrands cancel exactly rather than to rounding. The
    remaining reduction is numpy's pairwise summation, deterministic
    regardless of threading.

    `work`, when given, is a sequence of C-contiguous float arrays of
    values' shape: the weighted terms go to the first, the folded pairs to
    the first half of the second's node axis. The first may be `values`
    itself. The float operations are the same either way.
    """
    values = np.asarray(values)
    if values.shape[-1] != grid.n_nodes:
        raise ValueError(
            f"got {values.shape[-1]} values for {grid.n_nodes} velocity nodes"
        )
    terms, spare = (None, None) if work is None else work[:2]
    terms = np.multiply(values, grid.weight, out=terms)
    folded = mirror_fold(terms, None if spare is None else spare[..., : grid.n_nodes // 2])
    out = np.add.reduce(folded, axis=-1)
    return float(out) if out.ndim == 0 else out
