"""Straightforward reference implementations for cross-checking.

Everything here is written as plain index loops over the defining
formulas, with none of the vectorization, folding, or chunking tricks of
the package proper, so agreement between the two is meaningful. Only
usable at tiny lattice sizes.
"""
import math

import numpy as np


def bf_integrate(values, grid):
    total = 0.0
    for i in range(grid.n_nodes):
        total += float(values[i]) * float(grid.weights[i])
    return total


def bf_moments(f, vgrid):
    n_cells = f.shape[0]
    rho = np.zeros(n_cells)
    j = np.zeros((n_cells, vgrid.dim))
    for x in range(n_cells):
        for i in range(vgrid.n_nodes):
            rho[x] += f[x, i] * vgrid.weights[i]
            for a in range(vgrid.dim):
                j[x, a] += vgrid.nodes[i, a] * f[x, i] * vgrid.weights[i]
    return rho, j


def bf_weighted_norm(g, vgrid, sgrid):
    total = 0.0
    for x in range(g.shape[0]):
        for i in range(vgrid.n_nodes):
            total += (
                g[x, i] ** 2 / vgrid.maxwellian[i] * vgrid.weights[i] * sgrid.spacing
            )
    return math.sqrt(total)


def bf_entropy(f, eq_profile, vgrid, sgrid):
    total = 0.0
    for x in range(f.shape[0]):
        for i in range(vgrid.n_nodes):
            fi = f[x, i]
            pe = eq_profile[i]
            s = fi * math.log(fi / pe) + (1.0 - fi) * math.log((1.0 - fi) / (1.0 - pe))
            total += s * vgrid.weights[i] * sgrid.spacing
    return total


def bf_dissipation(f, kernel_matrix, vgrid, sgrid):
    total = 0.0
    for x in range(f.shape[0]):
        for i in range(vgrid.n_nodes):
            ai = vgrid.maxwellian[i] * (1.0 - f[x, i])
            ri = f[x, i] / ai
            for k in range(vgrid.n_nodes):
                ak = vgrid.maxwellian[k] * (1.0 - f[x, k])
                rk = f[x, k] / ak
                term = (
                    kernel_matrix[i, k]
                    * ai
                    * ak
                    * (ri - rk)
                    * (math.log(ri) - math.log(rk))
                )
                total += 0.5 * term * vgrid.weights[i] * vgrid.weights[k] * sgrid.spacing
    return total


def bf_apply_collision(f_cell, kernel_matrix, vgrid):
    n = vgrid.n_nodes
    q = np.zeros(n)
    for i in range(n):
        for k in range(n):
            q[i] += (
                vgrid.weights[k]
                * kernel_matrix[i, k]
                * (
                    vgrid.maxwellian[i] * (1.0 - f_cell[i]) * f_cell[k]
                    - vgrid.maxwellian[k] * (1.0 - f_cell[k]) * f_cell[i]
                )
            )
    return q


def bf_poisson(source, sgrid):
    """-lap phi = source on the torus via a dense least-squares solve."""
    n = sgrid.cells
    h = sgrid.spacing
    lap = np.zeros((n, n))
    for i in range(n):
        lap[i, i] = 2.0 / h**2
        lap[i, (i - 1) % n] -= 1.0 / h**2
        lap[i, (i + 1) % n] -= 1.0 / h**2
    system = np.vstack([lap, np.full((1, n), h)])  # extra row pins the mean
    rhs = np.concatenate([np.asarray(source, dtype=float), [0.0]])
    phi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    grad = np.zeros(n)
    for i in range(n):
        grad[i] = (phi[(i + 1) % n] - phi[(i - 1) % n]) / (2.0 * h)
    return phi, grad


def laplacian(u, sgrid):
    """The periodic 3-point Laplacian that `solve_poisson` inverts."""
    return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / sgrid.spacing**2


def bf_pairing(grad_phi, j_first, sgrid):
    total = 0.0
    for x in range(len(grad_phi)):
        total += grad_phi[x] * j_first[x] * sgrid.spacing
    return total


def bf_kappa_from_density(target, vgrid, iters=200):
    """Pure bisection inversion of the density map, bracket doubling up."""

    def density(kappa):
        profile = [
            kappa * m / (1.0 + kappa * m) for m in vgrid.maxwellian
        ]
        return bf_integrate(profile, vgrid)

    lo, hi = 0.0, 1.0
    while density(hi) < target:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if density(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bf_project(f, vgrid):
    out = np.zeros_like(f)
    kappas = np.zeros(f.shape[0])
    for x in range(f.shape[0]):
        rho = bf_integrate(f[x], vgrid)
        kappa = bf_kappa_from_density(rho, vgrid)
        kappas[x] = kappa
        for i in range(vgrid.n_nodes):
            m = vgrid.maxwellian[i]
            out[x, i] = kappa * m / (1.0 + kappa * m)
    return out, kappas


def bf_linearized_collision(f_cell, kernel_matrix, vgrid):
    """Dense Jacobian dQ_i/df_k of the collision operator at f_cell."""
    n = vgrid.n_nodes
    m = vgrid.maxwellian
    w = vgrid.weights
    s = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            s[i, k] = kernel_matrix[i, k] * w[k]
    g = np.array([m[i] * (1.0 - f_cell[i]) for i in range(n)])
    sf = np.array([sum(s[i, k] * f_cell[k] for k in range(n)) for i in range(n)])
    sg = np.array([sum(s[i, k] * g[k] for k in range(n)) for i in range(n)])
    jac = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            jac[i, k] = g[i] * s[i, k] + f_cell[i] * s[i, k] * m[k]
            if i == k:
                jac[i, k] -= m[i] * sf[i] + sg[i]
    return jac


def bf_collision_operator_norm(f_cell, kernel_matrix, vgrid):
    """Weighted operator norm of the linearized collision operator,
    restricted to density-neutral directions, plus the extremal
    direction itself (in occupation coordinates)."""
    jac = bf_linearized_collision(f_cell, kernel_matrix, vgrid)
    scale = np.sqrt(vgrid.weights / vgrid.maxwellian)
    a = (scale[:, None] * jac) / scale[None, :]
    mass_dir = np.sqrt(vgrid.weights * vgrid.maxwellian)
    mass_dir = mass_dir / np.linalg.norm(mass_dir)
    proj = np.eye(vgrid.n_nodes) - np.outer(mass_dir, mass_dir)
    u, sing, vt = np.linalg.svd(a @ proj)
    direction = vt[0] @ proj
    direction = direction / np.linalg.norm(direction)
    return float(sing[0]), direction / scale


# Vectorised dense forms. They contract the full (N, N) table, so they
# reach the d_v = 2 lattices the loops above cannot, and they serve as
# the oracles for the package's structured kernel contractions.


def bf_kernel_table(kind, vgrid, sigma0=1.0):
    """Dense table sigma_ij of a built-in kernel, from its defining formula."""
    n = vgrid.n_nodes
    if kind == "constant":
        return np.full((n, n), float(sigma0))
    if kind == "gaussian_bump":
        diff = vgrid.nodes[:, None, :] - vgrid.nodes[None, :, :]
        return 1.0 + 0.5 * np.exp(-0.5 * np.sum(diff * diff, axis=-1))
    raise ValueError(f"no formula for kernel kind {kind!r}")


def dense_scatter(g, kernel_matrix, vgrid):
    """(S g)_i = sum_j w_j sigma_ij g_j with the dense table."""
    return np.einsum("ij,xj->xi", kernel_matrix * vgrid.weights[None, :], g)


def dense_apply_collision(f, kernel_matrix, vgrid):
    """Q for a stack of cells (cells, N) by two dense contractions."""
    a = vgrid.maxwellian * (1.0 - f)
    return a * dense_scatter(f, kernel_matrix, vgrid) - f * dense_scatter(
        a, kernel_matrix, vgrid
    )


def pairwise_dissipation(f, kernel_matrix, vgrid, sgrid, chunk_cells=8):
    """D as the pairwise double sum, every term nonnegative.

    The terms go through numpy's pairwise summation; a running einsum
    sum over the N^2 terms of a d_v = 2 cell drifts by ~1e-13.
    """
    a = vgrid.maxwellian * (1.0 - f)
    ratio = f / a
    log_ratio = np.log(ratio)
    pair_weight = vgrid.weights[:, None] * kernel_matrix * vgrid.weights[None, :]
    total = 0.0
    for start in range(0, f.shape[0], chunk_cells):
        sl = slice(start, start + chunk_cells)
        df = ratio[sl, :, None] - ratio[sl, None, :]
        dchi = log_ratio[sl, :, None] - log_ratio[sl, None, :]
        aa = a[sl, :, None] * a[sl, None, :]
        total += float(np.sum(pair_weight * aa * df * dchi))
    return 0.5 * total * sgrid.spacing


def tridiagonal_poisson(source, sgrid):
    """-lap phi = source on the torus by cyclic-tridiagonal elimination.

    Gauge phi[-1] = 0; the periodic corner couplings then move to the
    right-hand side and the remaining system is strictly tridiagonal.
    The result is shifted to zero mean.
    """
    from scipy.linalg import solve_banded

    n = sgrid.cells
    rhs = np.asarray(source, dtype=float)[: n - 1] * sgrid.spacing**2
    band = np.zeros((3, n - 1))
    band[0, 1:] = -1.0
    band[1, :] = 2.0
    band[2, :-1] = -1.0
    phi = np.zeros(n)
    phi[: n - 1] = solve_banded((1, 1), band, rhs)
    return phi - np.sum(phi) / n


def bf_upwind_face_flux(f, vgrid, sgrid):
    """Donor-cell mass flux through face x+1/2 for every cell index x."""
    n_cells = f.shape[0]
    flux = np.zeros(n_cells)
    for x in range(n_cells):
        for i in range(vgrid.n_nodes):
            v1 = vgrid.first_axis[i]
            donor = f[x, i] if v1 > 0.0 else f[(x + 1) % n_cells, i]
            flux[x] += donor * v1 * vgrid.weights[i]
    return flux


def _minmod(a, b):
    same_sign = a * b > 0.0
    return np.where(same_sign, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def roll_advect_once(f, lam, transport_order):
    """One monotone transport update, upwind side chosen per node by sign."""
    f_minus = np.roll(f, 1, axis=0)   # row x holds f[x-1]
    f_plus = np.roll(f, -1, axis=0)   # row x holds f[x+1]
    mu = np.abs(lam)
    upstream = np.where(lam > 0.0, f - f_minus, f - f_plus)
    f_new = f - mu * upstream
    if transport_order == "muscl2":
        slope = _minmod(f - f_minus, f_plus - f)
        slope_minus = np.roll(slope, 1, axis=0)
        slope_plus = np.roll(slope, -1, axis=0)
        correction = np.where(lam > 0.0, slope - slope_minus, slope_plus - slope)
        f_new = f_new - 0.5 * mu * (1.0 - mu) * correction
    return f_new


def roll_transport(f, lam, transport_order, stages):
    """Transport substep of `stages` (1 or 2, a Heun pair) roll updates."""
    once = roll_advect_once(f, lam, transport_order)
    if stages == 1:
        return once
    return 0.5 * f + 0.5 * roll_advect_once(once, lam, transport_order)


def seed_collision(f, kernel, vgrid, dt, stages):
    """Collision substep as G * S f - f * S G, G = M (1 - f); Euler or Heun."""
    def q(g):
        gain = vgrid.maxwellian * (1.0 - g)
        return gain * kernel.scatter(g) - g * kernel.scatter(gain)

    stage = f + dt * q(f)
    if stages == 1:
        return stage
    return 0.5 * f + 0.5 * (stage + dt * q(stage))


def seed_step(f, kernel, vgrid, sgrid, dt, transport_order, splitting):
    """One splitting step written out: Lie, or Strang with Heun substeps."""
    if splitting == "lie":
        lam = vgrid.first_axis * (dt / sgrid.spacing)
        f = roll_transport(f, lam, transport_order, 1)
        return seed_collision(f, kernel, vgrid, dt, 1)
    lam = vgrid.first_axis * (0.5 * dt / sgrid.spacing)
    f = roll_transport(f, lam, transport_order, 2)
    f = seed_collision(f, kernel, vgrid, dt, 2)
    return roll_transport(f, lam, transport_order, 2)


def run_initial(result):
    """The InitialData of a finished run, rebuilt from its config: the run's bits."""
    from fermibolt.evolution import initial_state

    config, final = result.config, result.final_state
    return initial_state(final.sgrid, final.vgrid, config.kappa_bar, config.amplitude,
                         perturbation=config.perturbation, seed=config.seed)


def pilot_samples(result):
    """The (t, H, pairing, dist_total) arrays of a separate delta pilot pass.

    Re-steps the first min(t_final, 5) of a run from its initial
    state in a loop of its own, sampling on the run's record grid (whose
    last step is the run's last step); this is the two-pass form of
    `delta = auto`.
    """
    from fermibolt.evolution import plan_step, step
    from fermibolt.fields import FieldSet, moments, solve_poisson
    from fermibolt.functionals import field_current_pairing, relative_entropy, weighted_norm

    config, eq, dt = result.config, result.equilibrium, result.config.dt
    state = run_initial(result).state
    vg, sg = state.vgrid, state.sgrid
    plan = plan_step(result.kernel, vg, sg, config)  # config.dt is the run's dt
    samples = []

    def collect(state):
        rho, j = moments(state.f, vg)
        _, grad_phi = solve_poisson(rho, eq.density, sg)
        fields = FieldSet(rho=rho, j=j, grad_phi=grad_phi)
        samples.append((
            state.time,
            relative_entropy(state.f, eq.profile, 1.0 - eq.profile, vg, sg),
            field_current_pairing(fields, sg),
            weighted_norm(state.f - eq.profile[None, :], vg, sg),
        ))

    n_run = max(1, math.ceil(config.t_final / dt - 1e-12))
    n_window = max(1, math.ceil(min(config.t_final, 5.0) / dt - 1e-12))
    collect(state)
    for k in range(1, n_window + 1):
        state = step(state, plan)
        if k % config.record_every == 0 or k == n_run:
            collect(state)
    return tuple(np.array(column) for column in zip(*samples))


# Public helpers that no run path used, kept here as oracles: the run
# forms E in `experiment.modified_entropy`, and the audit's `c2_max_ratio` is the
# probe's ratio over the audited states.


def lyapunov_functional(f, eq_profile, fields, delta, vgrid, sgrid):
    """Relative entropy plus delta times the field-current pairing."""
    from fermibolt.functionals import field_current_pairing, relative_entropy

    entropy = relative_entropy(f, eq_profile, 1.0 - eq_profile, vgrid, sgrid)
    return entropy + delta * field_current_pairing(fields, sgrid)


def collision_norm_probe(samples, kernel, grid, spacing=1.0, floor=1e-12):
    """Empirical bound ||Q(f)|| / ||f - Pf|| over a batch of states.

    Both norms carry the 1/M weight. Samples whose distance to the local
    equilibrium falls below `floor` are skipped; if everything is
    skipped the probe is degenerate and reports 0. Returns
    (value, skipped, degenerate).
    """
    from fermibolt.collision import apply_collision
    from fermibolt.equilibrium import project

    inv_m = 1.0 / grid.maxwellian
    best = 0.0
    skipped = 0
    seen = 0
    for sample in samples:
        f = np.asarray(getattr(sample, "f", sample), dtype=float)
        if f.ndim == 1:
            f = f[None, :]
        seen += 1
        proj, _ = project(f, grid)
        dev = f - proj
        dist = np.sqrt(np.sum(dev * dev * inv_m * grid.weights) * spacing)
        if dist <= floor:
            skipped += 1
            continue
        q = apply_collision(f, kernel, grid)
        q_norm = np.sqrt(np.sum(q * q * inv_m * grid.weights) * spacing)
        best = max(best, q_norm / dist)
    return best, skipped, seen > 0 and skipped == seen


# The record pass as it was before `experiment.observe`: every quantity
# in the form of its own function, the projection rebuilt by
# `fermi_profile`, the gradient by `np.roll`, and `_diagnose` writing the
# new kappa into `state.kappa_cache`. The run must match it bit for bit.


def seed_integrate(values, grid):
    terms = np.asarray(values) * grid.weights
    half = grid.n_nodes // 2
    folded = terms[..., :half] + terms[..., ::-1][..., :half]
    out = np.sum(folded, axis=-1)
    return float(out) if out.ndim == 0 else out


def seed_moments(f, vgrid):
    rho = seed_integrate(f, vgrid)
    j = np.stack(
        [seed_integrate(f * vgrid.nodes[:, a], vgrid) for a in range(vgrid.dim)],
        axis=-1,
    )
    return rho, j


def seed_solve_poisson(rho, rho_inf, sgrid):
    source = np.asarray(rho, dtype=float) - rho_inf
    source = source - float(np.sum(source)) / sgrid.cells
    n = sgrid.cells
    src_hat = np.fft.rfft(source)
    k = np.arange(src_hat.shape[0])
    eig = (4.0 / sgrid.spacing**2) * np.sin(np.pi * k / n) ** 2
    phi_hat = np.zeros_like(src_hat)
    phi_hat[1:] = src_hat[1:] / eig[1:]
    phi = np.fft.irfft(phi_hat, n=n)
    return phi, (np.roll(phi, -1) - np.roll(phi, 1)) / (2.0 * sgrid.spacing)


def seed_solve_kappa_many(targets, grid, rel_tol=1e-12, initial=None):
    """Bracketed Newton for density -> kappa, one full pass per iteration."""
    from fermibolt.equilibrium import MAX_NEWTON_ITER

    targets = np.asarray(targets, dtype=float)
    m0 = float(seed_integrate(grid.maxwellian, grid))
    if initial is not None:
        kappa = np.clip(np.asarray(initial, dtype=float).copy(), 1e-300, None)
    else:
        kappa = targets / m0
    m = grid.maxwellian
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, np.inf)
    for _ in range(MAX_NEWTON_ITER):
        denom = 1.0 + kappa[:, None] * m
        dens = np.sum((kappa[:, None] * m / denom) * grid.weights, axis=-1)
        slope = np.sum((m / (denom * denom)) * grid.weights, axis=-1)
        resid = dens - targets
        done = np.abs(resid) <= rel_tol * targets
        if np.all(done):
            return kappa
        below = resid < 0.0
        lo = np.where(below, np.maximum(lo, kappa), lo)
        hi = np.where(~below, np.minimum(hi, kappa), hi)
        step = np.where(slope > 0.0, resid / np.where(slope > 0.0, slope, 1.0), np.nan)
        trial = kappa - step
        inside = np.isfinite(trial) & (trial > lo) & (trial < hi)
        fallback = np.where(np.isinf(hi), 2.0 * np.maximum(kappa, 1.0), 0.5 * (lo + hi))
        kappa = np.where(done, kappa, np.where(inside, trial, fallback))
    raise RuntimeError("kappa iteration did not converge")


def seed_project(f, grid, kappa_cache=None):
    from fermibolt.equilibrium import fermi_profile

    kappa = seed_solve_kappa_many(seed_integrate(f, grid), grid, initial=kappa_cache)
    return fermi_profile(kappa, grid), kappa


def seed_weighted_norm(g, vgrid, sgrid):
    total = np.sum(np.sum(g * g / vgrid.maxwellian * vgrid.weights, axis=-1))
    return float(np.sqrt(total * sgrid.spacing))


def seed_entropy(f, p, vgrid, sgrid):
    s = f * np.log(f / p) + (1.0 - f) * np.log((1.0 - f) / (1.0 - p))
    return float(np.sum(np.sum(s * vgrid.weights, axis=-1)) * sgrid.spacing)


def seed_scatter(kernel, g):
    if kernel.table is not None:
        return kernel.node_weight * np.einsum("ij,...j->...i", kernel.table, g)
    flat = (kernel.node_weight * kernel.level) * np.sum(g, axis=-1, keepdims=True)
    if kernel.bump is None:
        return flat
    if kernel.dim == 1:
        gauss = np.einsum("ij,...j->...i", kernel.bump, g)
    else:
        n = kernel.bump.shape[0]
        rows = np.einsum("ac,...cd->...ad", kernel.bump, g.reshape(g.shape[:-1] + (n, n)))
        gauss = np.einsum("...ad,bd->...ab", rows, kernel.bump).reshape(g.shape)
    return flat + (0.5 * kernel.node_weight) * gauss


def seed_dissipation(f, kernel, vgrid, sgrid):
    a = vgrid.maxwellian * (1.0 - f)
    ratio = f / a
    centre = np.sum(f, axis=-1) / np.sum(a, axis=-1)
    ratio_shift = ratio - centre[:, None]
    chi_shift = np.log(ratio) - np.log(centre)[:, None]
    bracket = chi_shift * seed_scatter(kernel, a) - seed_scatter(kernel, a * chi_shift)
    per_node = a * ratio_shift * bracket
    return float(np.sum(np.sum(per_node * vgrid.weights, axis=-1))) * sgrid.spacing


def seed_diagnose(state, kernel, eq):
    """One record; sets state.kappa_cache as it did."""
    from fermibolt.functionals import DiagnosticsRecord

    vg, sg, f = state.vgrid, state.sgrid, state.f
    rho, j = seed_moments(f, vg)
    _, grad_phi = seed_solve_poisson(rho, eq.density, sg)
    proj, kappa = seed_project(f, vg, kappa_cache=state.kappa_cache)
    state.kappa_cache = kappa
    return DiagnosticsRecord(
        t=state.time,
        mass=float(np.sum(rho)) * sg.spacing,
        H=seed_entropy(f, eq.profile, vg, sg),
        D=seed_dissipation(f, kernel, vg, sg),
        dist_total=seed_weighted_norm(f - eq.profile[None, :], vg, sg),
        dist_local=seed_weighted_norm(f - proj, vg, sg),
        dist_hydro=seed_weighted_norm(proj - eq.profile[None, :], vg, sg),
        pairing=float(np.sum(grad_phi * j[:, 0]) * sg.spacing),
        kappa_min=float(kappa.min()),
        kappa_max=float(kappa.max()),
    )


def seed_records(result):
    """A run's records and record-step kappa fields, re-derived with `seed_diagnose`.

    Re-steps the trajectory from the run's initial state and diagnoses on
    the record grid.
    """
    from fermibolt.evolution import plan_step, step

    config, dt = result.config, result.config.dt
    state = run_initial(result).state
    plan = plan_step(result.kernel, state.vgrid, state.sgrid, config)
    records, kappas = [], []

    def record():
        records.append(seed_diagnose(state, result.kernel, result.equilibrium))
        kappas.append(state.kappa_cache)

    n_steps = max(1, math.ceil(config.t_final / dt - 1e-12))
    record()
    for k in range(1, n_steps + 1):
        state = step(state, plan)
        if k % config.record_every == 0 or k == n_steps:
            record()
    return records, kappas
