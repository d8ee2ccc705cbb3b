"""Shared fixtures.

The expensive trajectory runs are session-scoped so the refinement and
acceptance tests can share them instead of re-integrating.
"""
import dataclasses

import pytest

from fermibolt.collision import build_kernel, load_kernel_table
from fermibolt.config import ExperimentConfig
from fermibolt.experiment import run_experiment
from fermibolt.velocity import build_velocity_grid

import _bruteforce as bf

# (d_v, nodes per axis) of the lattices the structured kernels are checked on;
# d_v = 2 runs the axis-separable Gaussian path.
ORACLE_LATTICES = ((1, 64), (2, 32))
ORACLE_KINDS = ("constant", "gaussian_bump", "custom_table")
ORACLE_CASES = [(dim, kind) for dim, _ in ORACLE_LATTICES for kind in ORACLE_KINDS]


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_run")
    config = ExperimentConfig()
    return run_experiment(config, output_dir=str(out))


@pytest.fixture(scope="session")
def refined_x_run(default_run):
    config = dataclasses.replace(
        default_run.config, spatial_cells=128, dt=None, delta=default_run.config.delta
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def refined_v_run(default_run):
    config = dataclasses.replace(
        default_run.config, nodes_per_axis=128, dt=None, delta=default_run.config.delta
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def refined_t_run(default_run):
    config = dataclasses.replace(
        default_run.config, dt=default_run.config.dt / 2.0, delta=default_run.config.delta
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def fixed_point_run():
    # start exactly on the global equilibrium; over a thousand steps
    config = ExperimentConfig(amplitude=0.0, t_final=3.6, record_every=50)
    return run_experiment(config)


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    config = ExperimentConfig(
        nodes_per_axis=8,
        spatial_cells=8,
        t_final=2.0,
        record_every=2,
    )
    return run_experiment(config, output_dir=str(out))


@pytest.fixture(scope="session")
def oracle_kernels(tmp_path_factory):
    """{(d_v, kind): (grid, kernel, dense oracle table)} for ORACLE_CASES.

    The custom_table kernel is the Gaussian formula table written to disk
    and loaded back, so it shares the gaussian_bump oracle.
    """
    out = {}
    for dim, n in ORACLE_LATTICES:
        grid = build_velocity_grid(dim, 8.0, n)
        for kind in ("constant", "gaussian_bump"):
            out[dim, kind] = (grid, build_kernel(kind, grid), bf.bf_kernel_table(kind, grid))
        table = out[dim, "gaussian_bump"][2]
        path = tmp_path_factory.mktemp("kernel_table") / f"bump{dim}d.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{grid.n_nodes}\n")
            for row in table:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        out[dim, "custom_table"] = (grid, load_kernel_table(str(path), grid), table)
    return out


@pytest.fixture(params=ORACLE_CASES, ids=[f"{dim}d-{kind}" for dim, kind in ORACLE_CASES])
def oracle_case(request, oracle_kernels):
    """One (grid, kernel, dense oracle table) per built-in kernel and lattice."""
    return oracle_kernels[request.param]
