"""Time integration: split transport / collision steps on the torus.

Transport is a monotone finite-volume update per velocity node (donor
cell by default, minmod-limited second order behind a flag) written in
increment form, so spatially uniform states are bitwise invariant and
the maximum principle survives rounding. The collision substep is
explicit with a step-size ceiling that makes the update a convex
combination; under that ceiling occupations stay in [0, 1] and any
pair of lattice Fermi-Dirac barriers ordered around the state remains
ordered, which is what preserves the kappa sandwich in time.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .collision import CollisionKernel, apply_collision, collision_dt_ceiling
from .equilibrium import fermi_profile
from .fields import SpatialGrid
from .velocity import VelocityGrid

__all__ = [
    "PhaseState",
    "SchemeConfig",
    "InitialData",
    "initial_state",
    "cfl_max_dt",
    "collision_dt_ceiling",
    "transport_step",
    "collision_step",
    "step",
]

TRANSPORT_ORDERS = ("upwind1", "muscl2")
SPLITTINGS = ("lie", "strang")
_COURANT = {"upwind1": 1.0, "muscl2": 0.5}


@dataclass
class PhaseState:
    """Occupation field on the phase-space lattice at one instant."""

    f: np.ndarray  # (cells, velocity nodes)
    time: float
    vgrid: VelocityGrid
    sgrid: SpatialGrid
    kappa_cache: np.ndarray | None = None

    def copy(self) -> "PhaseState":
        cache = None if self.kappa_cache is None else self.kappa_cache.copy()
        return replace(self, f=self.f.copy(), kappa_cache=cache)


@dataclass(frozen=True)
class SchemeConfig:
    """Step-size policy and scheme switches."""

    dt: float
    cfl_safety: float = 0.9
    transport_order: str = "upwind1"
    splitting: str = "strang"

    def __post_init__(self):
        if not 0.0 < self.cfl_safety < 1.0:
            raise ValueError(f"cfl_safety must lie in (0, 1), got {self.cfl_safety}")
        if self.transport_order not in TRANSPORT_ORDERS:
            raise ValueError(f"transport_order must be one of {TRANSPORT_ORDERS}")
        if self.splitting not in SPLITTINGS:
            raise ValueError(f"splitting must be one of {SPLITTINGS}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class InitialData:
    """Initial state plus the Fermi-Dirac barriers it sits between."""

    state: PhaseState
    kappa_minus: float
    kappa_plus: float
    f_lower: np.ndarray  # (velocity nodes,)
    f_upper: np.ndarray


def initial_state(
    sgrid: SpatialGrid,
    vgrid: VelocityGrid,
    kappa_bar: float,
    amplitude: float,
    perturbation: float = 0.0,
    seed: int = 0,
) -> InitialData:
    """Local equilibrium with a cosine kappa profile, optionally perturbed.

    kappa(x) = kappa_bar (1 + amplitude cos 2 pi x); an additive uniform
    noise of the requested size is clipped back to the barrier profiles
    so the initial state is always admissible.
    """
    if kappa_bar <= 0.0:
        raise ValueError("kappa_bar must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must lie in [0, 1)")
    if perturbation < 0.0:
        raise ValueError("perturbation size must be nonnegative")
    kappa_x = kappa_bar * (1.0 + amplitude * np.cos(2.0 * np.pi * sgrid.centers))
    f = fermi_profile(kappa_x, vgrid)
    kappa_minus = kappa_bar * (1.0 - amplitude)
    kappa_plus = kappa_bar * (1.0 + amplitude)
    f_lower = fermi_profile(kappa_minus, vgrid)
    f_upper = fermi_profile(kappa_plus, vgrid)
    if perturbation > 0.0:
        rng = np.random.default_rng(seed)
        f = f + perturbation * rng.uniform(-1.0, 1.0, size=f.shape)
        f = np.clip(f, f_lower[None, :], f_upper[None, :])
    state = PhaseState(
        f=f, time=0.0, vgrid=vgrid, sgrid=sgrid, kappa_cache=kappa_x.copy()
    )
    return InitialData(
        state=state,
        kappa_minus=kappa_minus,
        kappa_plus=kappa_plus,
        f_lower=f_lower,
        f_upper=f_upper,
    )


def cfl_max_dt(state: PhaseState, kernel: CollisionKernel,
               scheme: SchemeConfig) -> float:
    """Largest admissible dt: transport Courant limit vs collision ceiling."""
    vmax = float(np.max(np.abs(state.vgrid.first_axis)))
    transport_limit = _COURANT[scheme.transport_order] * state.sgrid.spacing / vmax
    return scheme.cfl_safety * min(transport_limit, kernel.dt_ceiling)


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    same_sign = a * b > 0.0
    return np.where(same_sign, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def _advect_once(f: np.ndarray, mu: np.ndarray, scheme: SchemeConfig) -> np.ndarray:
    # The mirror lattice puts every v1 < 0 node in the first half of the
    # node axis, so each half is upwinded from a fixed side: f[x+1] for
    # the first half, f[x-1] for the second. b[x] = f[x] - f[x-1] on a
    # ghost-padded copy; f - mu (f - f[x+1]) is written f + mu b[x+1],
    # which is the same float operation with both signs flipped.
    half = f.shape[1] // 2
    padded = np.concatenate([f[-1:], f, f[:1]])
    b = padded[1:] - padded[:-1]
    f_new = np.empty_like(f)
    f_new[:, :half] = f[:, :half] + mu[:half] * b[1:, :half]
    f_new[:, half:] = f[:, half:] - mu[half:] * b[:-1, half:]
    if scheme.transport_order == "muscl2":
        slope = _minmod(b[:-1], b[1:])
        padded = np.concatenate([slope[-1:], slope, slope[:1]])
        ds = padded[1:] - padded[:-1]
        coef = 0.5 * mu * (1.0 - mu)
        f_new[:, :half] -= coef[:half] * ds[1:, :half]
        f_new[:, half:] -= coef[half:] * ds[:-1, half:]
    return f_new


def transport_step(
    state: PhaseState, dt: float, scheme: SchemeConfig, stages: int = 1
) -> PhaseState:
    """Advect every velocity node around the torus for one step of dt.

    stages=1 is the plain monotone update; stages=2 wraps it in a Heun
    pair (a convex combination of two such updates), which keeps every
    bound the monotone update guarantees while gaining an order of
    accuracy in dt for the symmetric splitting.
    """
    f = state.f
    lam = state.vgrid.first_axis * (dt / state.sgrid.spacing)
    courant = float(np.max(np.abs(lam)))
    if courant > _COURANT[scheme.transport_order] * (1.0 + 1e-12):
        raise ValueError(
            f"transport step violates the CFL condition: Courant number "
            f"{courant:.6g} exceeds {_COURANT[scheme.transport_order]:g}"
        )
    mu = np.abs(lam)
    if stages == 1:
        f_new = _advect_once(f, mu, scheme)
    elif stages == 2:
        f_new = 0.5 * f + 0.5 * _advect_once(_advect_once(f, mu, scheme), mu, scheme)
    else:
        raise ValueError("stages must be 1 or 2")
    return PhaseState(
        f_new, state.time + dt, state.vgrid, state.sgrid, state.kappa_cache
    )


def collision_step(
    state: PhaseState,
    kernel: CollisionKernel,
    dt: float,
    stages: int = 1,
) -> PhaseState:
    """Explicit collision substep: forward Euler, or Heun for stages=2.

    Heun is the midpoint-free convex combination of two Euler stages, so
    it inherits the Euler bound preservation while restoring second
    order inside the symmetric splitting.
    """
    ceiling = kernel.dt_ceiling
    if dt > ceiling * (1.0 + 1e-9):
        raise ValueError(
            f"collision step dt={dt:.6g} exceeds the monotonicity ceiling "
            f"{ceiling:.6g}"
        )
    f = state.f
    if stages == 1:
        f_new = f + dt * apply_collision(f, kernel, state.vgrid)
    elif stages == 2:
        stage = f + dt * apply_collision(f, kernel, state.vgrid)
        f_new = 0.5 * f + 0.5 * (stage + dt * apply_collision(stage, kernel, state.vgrid))
    else:
        raise ValueError("stages must be 1 or 2")
    fmin, fmax = float(f_new.min()), float(f_new.max())
    if fmin < 0.0 or fmax > 1.0:
        raise RuntimeError(
            f"collision step left [0, 1] (range [{fmin:g}, {fmax:g}]); "
            "the step-size logic is broken"
        )
    return PhaseState(
        f_new, state.time + dt, state.vgrid, state.sgrid, state.kappa_cache
    )


def step(state: PhaseState, kernel: CollisionKernel, dt: float,
         scheme: SchemeConfig,
         check: Callable[[PhaseState], None] | None = None) -> PhaseState:
    """One full splitting step of size dt.

    `check`, when given, is called on the new state before it is
    returned; it raises to abort the run at this step.
    """
    if scheme.splitting == "lie":
        out = transport_step(state, dt, scheme)
        out = collision_step(out, kernel, dt, stages=1)
    else:
        half = 0.5 * dt
        out = transport_step(state, half, scheme, stages=2)
        out = collision_step(out, kernel, dt, stages=2)
        out = transport_step(out, half, scheme, stages=2)
    out.time = state.time + dt
    if check is not None:
        check(out)
    return out
