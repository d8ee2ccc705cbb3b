"""Time integration: split transport / collision steps on the torus.

Transport is a monotone finite-volume update per velocity node (donor
cell by default, minmod-limited second order behind a flag) written in
increment form, so spatially uniform states are bitwise invariant and
the maximum principle survives rounding. The collision substep is
explicit with a step-size ceiling that makes the update a convex
combination; under that ceiling occupations stay in [0, 1] and any
pair of lattice Fermi-Dirac barriers ordered around the state remains
ordered, which is what preserves the kappa sandwich in time.

A run builds one `StepPlan` with `plan_step` before it steps (and
before it writes anything). The plan checks the step size once: the
Courant number of the transport sub-step (dt / 2 under Strang, dt under
Lie) against the limit of the transport order, and dt against the
collision ceiling; either failure raises ValueError. It also holds the
per-node Courant numbers and the signed MUSCL coefficient, so no
sub-step rebuilds them. What still runs on every sub-step is what
depends on the state: `apply_collision` refuses input outside [0, 1],
and each collision sub-step checks that its result stays in [0, 1].
The run's own mass and sandwich checks come in through `step`'s
`check` callback.
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
    "StepPlan",
    "plan_step",
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


@dataclass(frozen=True, eq=False)
class StepPlan:
    """The constants of one run's `step`, checked once by `plan_step`.

    The mirror lattice puts every v1 < 0 node in the first half of the
    node axis, so the upwind side of a node is fixed by its half: row
    x+1 for the first half, row x-1 for the second. `muscl` carries that
    side in its sign.
    """

    kernel: CollisionKernel
    dt: float
    splitting: str
    transport_dt: float        # dt / 2 under Strang, dt under Lie
    mu: np.ndarray             # (nodes,) Courant number |v1| transport_dt / dx
    muscl: np.ndarray | None   # (nodes,) -+0.5 mu (1 - mu) by half; None for upwind1


def plan_step(kernel: CollisionKernel, vgrid: VelocityGrid, sgrid: SpatialGrid,
              scheme: SchemeConfig) -> StepPlan:
    """Check scheme.dt against the Courant limit and the collision ceiling.

    Raises ValueError when either fails; a plan that is returned keeps
    every transport update monotone and every collision update convex.
    """
    transport_dt = 0.5 * scheme.dt if scheme.splitting == "strang" else scheme.dt
    lam = vgrid.first_axis * (transport_dt / sgrid.spacing)
    courant = float(np.max(np.abs(lam)))
    if courant > _COURANT[scheme.transport_order] * (1.0 + 1e-12):
        raise ValueError(
            f"transport step violates the CFL condition: Courant number "
            f"{courant:.6g} exceeds {_COURANT[scheme.transport_order]:g}"
        )
    ceiling = kernel.dt_ceiling
    if scheme.dt > ceiling * (1.0 + 1e-9):
        raise ValueError(
            f"collision step dt={scheme.dt:.6g} exceeds the monotonicity ceiling "
            f"{ceiling:.6g}"
        )
    mu = np.abs(lam)
    muscl = None
    if scheme.transport_order == "muscl2":
        muscl = 0.5 * mu * (1.0 - mu)
        muscl[: vgrid.n_nodes // 2] *= -1.0
    return StepPlan(kernel, scheme.dt, scheme.splitting, transport_dt, mu, muscl)


def _upwind_neighbour(a: np.ndarray) -> np.ndarray:
    """Row x+1 of `a` on the first half of the node axis, row x-1 on the second."""
    half = a.shape[1] // 2
    out = np.empty_like(a)
    out[:-1, :half] = a[1:, :half]
    out[-1, :half] = a[0, :half]
    out[1:, half:] = a[:-1, half:]
    out[0, half:] = a[-1, half:]
    return out


def _advect_once(f: np.ndarray, plan: StepPlan) -> np.ndarray:
    # f + mu (f_up - f) in increment form: a uniform state stays bitwise
    # fixed, and it is the same float operation as f - mu (f - f_up).
    f_new = _upwind_neighbour(f)
    f_new -= f
    f_new *= plan.mu
    f_new += f
    if plan.muscl is not None:
        ahead = np.empty_like(f)  # f[x+1] - f[x]
        np.subtract(f[1:], f[:-1], out=ahead[:-1])
        np.subtract(f[:1], f[-1:], out=ahead[-1:])
        behind = np.empty_like(f)  # f[x] - f[x-1]
        behind[1:] = ahead[:-1]
        behind[0] = ahead[-1]
        slope = _minmod(behind, ahead)
        ds = _upwind_neighbour(slope)
        ds -= slope
        ds *= plan.muscl
        f_new += ds
    return f_new


def transport_step(state: PhaseState, plan: StepPlan, stages: int = 1) -> PhaseState:
    """Advect every velocity node around the torus for plan.transport_dt.

    stages=1 is the plain monotone update; stages=2 wraps it in a Heun
    pair (a convex combination of two such updates), which keeps every
    bound the monotone update guarantees while gaining an order of
    accuracy in dt for the symmetric splitting.
    """
    f = state.f
    if stages == 1:
        f_new = _advect_once(f, plan)
    elif stages == 2:
        f_new = _advect_once(_advect_once(f, plan), plan)
        f_new *= 0.5
        f_new += 0.5 * f
    else:
        raise ValueError("stages must be 1 or 2")
    return PhaseState(
        f_new, state.time + plan.transport_dt, state.vgrid, state.sgrid,
        state.kappa_cache,
    )


def collision_step(state: PhaseState, plan: StepPlan, stages: int = 1) -> PhaseState:
    """Explicit collision substep of plan.dt: forward Euler, or Heun for stages=2.

    Heun is the midpoint-free convex combination of two Euler stages, so
    it inherits the Euler bound preservation while restoring second
    order inside the symmetric splitting.
    """
    f, dt, kernel = state.f, plan.dt, plan.kernel
    if stages not in (1, 2):
        raise ValueError("stages must be 1 or 2")
    f_new = apply_collision(f, kernel, state.vgrid)
    f_new *= dt
    f_new += f
    if stages == 2:
        stage = f_new
        f_new = apply_collision(stage, kernel, state.vgrid)
        f_new *= dt
        f_new += stage
        f_new *= 0.5
        np.multiply(f, 0.5, out=stage)  # the Euler stage is spent: reuse it
        f_new += stage
    fmin, fmax = float(f_new.min()), float(f_new.max())
    if fmin < 0.0 or fmax > 1.0:
        raise RuntimeError(
            f"collision step left [0, 1] (range [{fmin:g}, {fmax:g}]); "
            "the step-size logic is broken"
        )
    return PhaseState(
        f_new, state.time + dt, state.vgrid, state.sgrid, state.kappa_cache
    )


def step(state: PhaseState, plan: StepPlan,
         check: Callable[[PhaseState], None] | None = None) -> PhaseState:
    """One full splitting step of size plan.dt.

    `check`, when given, is called on the new state before it is
    returned; it raises to abort the run at this step.
    """
    if plan.splitting == "lie":
        out = transport_step(state, plan)
        out = collision_step(out, plan)
    else:
        out = transport_step(state, plan, stages=2)
        out = collision_step(out, plan, stages=2)
        out = transport_step(out, plan, stages=2)
    out.time = state.time + plan.dt
    if check is not None:
        check(out)
    return out
