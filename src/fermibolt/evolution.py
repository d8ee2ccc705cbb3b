"""Time integration: split transport / collision steps on the torus.

Transport is a monotone finite-volume update per velocity node (donor
cell by default, minmod-limited second order with `transport = muscl2`)
written in increment form, so spatially uniform states are bitwise
invariant and the maximum principle survives rounding. The collision
substep is explicit with a step-size ceiling that makes the update a
convex combination; under that ceiling occupations stay in [0, 1] and
any pair of lattice Fermi-Dirac barriers ordered around the state
remains ordered, which is what preserves the kappa sandwich in time.

A run builds one `StepPlan` with `plan_step` before it steps (and
before it writes anything). `plan_step` is where `dt = auto` is
decided, and where the step size is checked once: the Courant number of
the transport sub-step (dt / 2 under Strang, dt under Lie) against the
limit of the transport order, and dt against the collision ceiling;
either failure raises `ConfigError` (a ValueError) naming the largest
admissible dt. The plan also holds the per-node Courant numbers, the
signed MUSCL coefficient and the Maxwellian, so no sub-step rebuilds
them. What still runs on every sub-step is what depends on the state:
`apply_collision` refuses input outside [0, 1], and each collision
sub-step checks that its result stays in [0, 1]. The run's own mass and
sandwich checks come in through `step`'s `check` callback.

The plan keeps each of those per-node rows as a tile: the row copied
into every cell, a C-contiguous array of the state's (cells, nodes)
shape, built once by `plan_step`. Against a tile every per-step ufunc
multiplies same-shape operands, which numpy runs in its plain loop; a
(nodes,) row broadcast against the state costs about twice as much and a
buffer on every call. The products are the same, and so are the bytes.

Beside the tiles the plan holds the step's workspace, `work`: four
scratch rows of the state's shape, allocated once by `plan_step`. Row 0
holds the first stage of each Strang Heun pair. Rows 1-3 hold the MUSCL
differences and slope in transport, and f * (S G), S f and the 2-d matmul
intermediate in `apply_collision`. So no sub-step allocates a full-size
temporary, yet each returns its result in a freshly allocated array: a
state a caller holds is never overwritten by a later step. A state whose
shape is not the plan's is refused, and two threads must not step with
one plan at once.

Between steps the rows sit idle, and a run lends all four to its record
pass and its audit fold (`experiment._diagnose`, `audit_proof_chain`):
nothing a step leaves in them is read again.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .collision import CollisionKernel, apply_collision, collision_dt_ceiling
from .config import ConfigError, ExperimentConfig
from .equilibrium import fermi_profile
from .fields import SpatialGrid
from .velocity import VelocityGrid

__all__ = [
    "PhaseState",
    "InitialData",
    "initial_state",
    "StepPlan",
    "plan_step",
    "transport_step",
    "collision_step",
    "step",
]

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
class InitialData:
    """Initial state plus the Fermi-Dirac barriers it sits between."""

    state: PhaseState
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
    f_lower = fermi_profile(kappa_bar * (1.0 - amplitude), vgrid)
    f_upper = fermi_profile(kappa_bar * (1.0 + amplitude), vgrid)
    if perturbation > 0.0:
        rng = np.random.default_rng(seed)
        f = f + perturbation * rng.uniform(-1.0, 1.0, size=f.shape)
        f = np.clip(f, f_lower[None, :], f_upper[None, :])
    state = PhaseState(
        f=f, time=0.0, vgrid=vgrid, sgrid=sgrid, kappa_cache=kappa_x.copy()
    )
    return InitialData(state=state, f_lower=f_lower, f_upper=f_upper)


def _minmod(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """minmod(a, b) into `out`: a clipped to [min(b, 0), max(b, 0)]; b is left holding max(b, 0).

    No product a * b is formed, so slopes whose product underflows still
    give the smaller one, not 0.
    """
    np.minimum(b, 0.0, out=out)
    np.maximum(b, 0.0, out=b)
    return np.clip(a, out, b, out=out)


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
    # the next three are (cells, nodes) tiles of one per-node row
    mu: np.ndarray             # Courant number |v1| transport_dt / dx
    muscl: np.ndarray | None   # -+0.5 mu (1 - mu) by half; None for upwind1
    maxwellian: np.ndarray     # the lattice Maxwellian M
    work: tuple[np.ndarray, ...]  # four (cells, nodes) scratch rows, also lent to the records


def plan_step(kernel: CollisionKernel, vgrid: VelocityGrid, sgrid: SpatialGrid,
              config: ExperimentConfig) -> StepPlan:
    """The step of one run: config.dt, or for `dt = auto` the largest safe one.

    `dt = auto` is cfl_safety * min(sub-step Courant limit, collision
    ceiling). The Courant limit is taken for one transport sub-step, dt / 2
    under Strang and dt under Lie, so where transport binds each sub-step
    runs at Courant number cfl_safety times the limit of its order (0.9 for
    the defaults). The ceiling is `collision_dt_ceiling`, computed here
    once per run; `step` never recomputes it.

    Raises ConfigError (a ValueError) naming the limit and the largest
    admissible dt when a pinned dt fails either check; a plan that is
    returned keeps every transport update monotone and every collision
    update convex.
    """
    limit = _COURANT[config.transport]
    ceiling = collision_dt_ceiling(kernel, vgrid)
    fraction = 0.5 if config.splitting == "strang" else 1.0
    dt = config.dt
    if dt is None:
        vmax = float(np.max(np.abs(vgrid.first_axis)))
        dt = config.cfl_safety * min(limit * sgrid.spacing / vmax / fraction, ceiling)
    transport_dt = fraction * dt
    lam = vgrid.first_axis * (transport_dt / sgrid.spacing)
    courant = float(np.max(np.abs(lam)))
    largest = f"the largest admissible dt is {min(dt * limit / courant, ceiling):.6g}"
    if courant > limit * (1.0 + 1e-12):
        raise ConfigError(
            f"transport step violates the CFL condition: Courant number "
            f"{courant:.6g} exceeds {limit:g}; {largest}"
        )
    if dt > ceiling * (1.0 + 1e-9):
        raise ConfigError(
            f"collision step dt={dt:.6g} exceeds the monotonicity ceiling "
            f"{ceiling:.6g}; {largest}"
        )
    cells = (sgrid.cells, 1)  # np.tile repeats a node row once per cell
    mu = np.abs(lam)
    muscl = None
    if config.transport == "muscl2":
        muscl = 0.5 * mu * (1.0 - mu)
        muscl[: vgrid.n_nodes // 2] *= -1.0
        muscl = np.tile(muscl, cells)
    work = tuple(np.empty((4, sgrid.cells, vgrid.n_nodes)))
    return StepPlan(kernel, dt, config.splitting, transport_dt, np.tile(mu, cells),
                    muscl, np.tile(vgrid.maxwellian, cells), work)


def _upwind_neighbour(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row x+1 of `a` on the first half of the node axis, row x-1 on the second."""
    half = a.shape[1] // 2
    out[:-1, :half] = a[1:, :half]
    out[-1, :half] = a[0, :half]
    out[1:, half:] = a[:-1, half:]
    out[0, half:] = a[-1, half:]
    return out


def _advect_once(f: np.ndarray, plan: StepPlan, out: np.ndarray) -> np.ndarray:
    """One monotone transport update of f into `out`; MUSCL works in rows 1-3."""
    # f + mu (f_up - f) in increment form: a uniform state stays bitwise
    # fixed, and it is the same float operation as f - mu (f - f_up).
    _upwind_neighbour(f, out)
    out -= f
    out *= plan.mu
    out += f
    if plan.muscl is not None:
        ahead, behind, slope = plan.work[1:]
        np.subtract(f[1:], f[:-1], out=ahead[:-1])  # f[x+1] - f[x]
        np.subtract(f[:1], f[-1:], out=ahead[-1:])
        behind[1:] = ahead[:-1]  # f[x] - f[x-1]
        behind[0] = ahead[-1]
        _minmod(behind, ahead, slope)
        ds = _upwind_neighbour(slope, ahead)
        ds -= slope
        ds *= plan.muscl
        out += ds
    return out


def _sub_step(f: np.ndarray, plan: StepPlan,
              update: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Lie: update(f). Strang: the Heun pair 0.5 update(update(f)) + 0.5 f.

    `update(g, out)` writes its result into `out`; the Heun stage goes to
    workspace row 0 and the result to a fresh array. A state of another
    shape than the plan's is refused.
    """
    if f.shape != plan.work[0].shape:
        raise ValueError(
            f"state has shape {f.shape}, the step plan {plan.work[0].shape}"
        )
    f_new = np.empty_like(f)
    if plan.splitting == "strang":
        stage = update(f, plan.work[0])
        update(stage, f_new)
        # (b + a) * 0.5 rounds as 0.5 b + 0.5 a: halving is exact and
        # rounding scale-invariant while no operand is below 2^-1021. The
        # sandwich keeps states above f_lower, far above that: about
        # 2e-28 times the lower barrier's kappa at the corner of the 2-d
        # 64^2, half_width 8 lattice
        f_new += f
        f_new *= 0.5
    else:
        update(f, f_new)
    return f_new


def transport_step(state: PhaseState, plan: StepPlan) -> PhaseState:
    """Advect every velocity node around the torus for plan.transport_dt.

    Lie takes the plain monotone update; Strang wraps it in a Heun pair
    (a convex combination of two such updates), which keeps every bound
    the monotone update guarantees while gaining an order of accuracy in
    dt for the symmetric splitting.
    """
    f_new = _sub_step(state.f, plan, lambda g, out: _advect_once(g, plan, out))
    return PhaseState(
        f_new, state.time + plan.transport_dt, state.vgrid, state.sgrid,
        state.kappa_cache,
    )


def collision_step(state: PhaseState, plan: StepPlan) -> PhaseState:
    """Explicit collision substep of plan.dt: forward Euler under Lie, Heun under Strang.

    Heun is the midpoint-free convex combination of two Euler stages, so
    it inherits the Euler bound preservation while restoring second
    order inside the symmetric splitting.
    """
    dt, kernel, vgrid = plan.dt, plan.kernel, state.vgrid

    def euler(g: np.ndarray, out: np.ndarray) -> np.ndarray:
        q = apply_collision(g, kernel, vgrid, out=out, work=plan.work[1:],
                            maxwellian=plan.maxwellian)
        q *= dt
        q += g
        return q

    f_new = _sub_step(state.f, plan, euler)
    fmin, fmax = float(f_new.min()), float(f_new.max())
    if not (fmin >= 0.0 and fmax <= 1.0):  # written so that NaN fails
        raise RuntimeError(
            f"collision step left [0, 1] (range [{fmin:g}, {fmax:g}]); "
            "the step-size logic is broken"
        )
    return PhaseState(
        f_new, state.time + dt, state.vgrid, state.sgrid, state.kappa_cache
    )


def step(state: PhaseState, plan: StepPlan,
         check: Callable[[PhaseState], None] | None = None) -> PhaseState:
    """One splitting step of size plan.dt.

    Transport, then collision, then under Strang a second transport.
    `check`, when given, is called on the new state before it is
    returned; it raises to abort the run at this step.
    """
    out = transport_step(state, plan)
    out = collision_step(out, plan)
    if plan.splitting == "strang":
        out = transport_step(out, plan)
    out.time = state.time + plan.dt
    if check is not None:
        check(out)
    return out
