"""Deterministic kinetic solver for Pauli-blocked electron transport.

Everything is re-exported lazily so that the command-line entry point
can pin threading environment variables before the numerical stack
loads; import order through this package never touches numpy until a
symbol is actually used.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # velocity space
    "GAUSS_NORM": ".velocity",
    "VelocityGrid": ".velocity",
    "build_velocity_grid": ".velocity",
    "integrate": ".velocity",
    # equilibrium profiles
    "SaturationError": ".equilibrium",
    "EquilibriumProfile": ".equilibrium",
    "fermi_profile": ".equilibrium",
    "density_of_kappa": ".equilibrium",
    "solve_kappa": ".equilibrium",
    "solve_kappa_many": ".equilibrium",
    "global_equilibrium": ".equilibrium",
    "project": ".equilibrium",
    # collision operator
    "CollisionKernel": ".collision",
    "build_kernel": ".collision",
    "apply_collision": ".collision",
    "collision_dt_ceiling": ".collision",
    "load_kernel_table": ".collision",
    "save_kernel_table": ".collision",
    # spatial fields
    "SpatialGrid": ".fields",
    "build_spatial_grid": ".fields",
    "FieldSet": ".fields",
    "moments": ".fields",
    "centered_gradient": ".fields",
    "laplacian": ".fields",
    "solve_poisson": ".fields",
    # functionals and diagnostics
    "weighted_norm": ".functionals",
    "relative_entropy": ".functionals",
    "generalized_entropy": ".functionals",
    "dissipation": ".functionals",
    "field_current_pairing": ".functionals",
    "log_ratio_chi": ".functionals",
    "identity_chi": ".functionals",
    "tabulated_chi": ".functionals",
    "RECORD_FIELDS": ".functionals",
    "DiagnosticsRecord": ".functionals",
    # time evolution
    "PhaseState": ".evolution",
    "SchemeConfig": ".evolution",
    "InitialData": ".evolution",
    "initial_state": ".evolution",
    "cfl_max_dt": ".evolution",
    "transport_step": ".evolution",
    "collision_step": ".evolution",
    "step": ".evolution",
    # configuration
    "ConfigError": ".config",
    "ExperimentConfig": ".config",
    "parse_config": ".config",
    "load_config": ".config",
    "format_config": ".config",
    "DELTA_CANDIDATES": ".config",
    # storage
    "CsvWriter": ".storage",
    "write_csv": ".storage",
    "load_csv": ".storage",
    "snapshot_dump": ".storage",
    "snapshot_load": ".storage",
    "SnapshotError": ".storage",
    # experiment driver
    "InvariantViolation": ".experiment",
    "FitError": ".experiment",
    "RateReport": ".experiment",
    "RunResult": ".experiment",
    "run_experiment": ".experiment",
    "estimate_decay_rate": ".experiment",
    "audit_proof_chain": ".experiment",
    "choose_delta": ".experiment",
    "write_rate_report": ".experiment",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(module_name, __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
