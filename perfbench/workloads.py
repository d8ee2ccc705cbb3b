"""The benchmark's workloads: one `fermibolt run` config each, plus its output bands.

Every workload perturbs its initial data with `perturbation = 0.001`
drawn from the benchmark seed, so one seed always gives one input.
`lambda_band` is the accepted range of the fitted decay rate in
`rate_report.kv`. It is wide enough for reordered floating-point sums and
for the seed-to-seed spread (about 0.2%), and narrow enough to catch a
collision rate 10% off (`lambda_obs` 0.92 and 0.98). A dropped Pauli
blocking factor already trips the solver's sandwich abort on both 1-d
workloads. `None` means the run is too short to reach the fit window, so
there is no rate report to check.

`entropy_ratio_band` bounds H at the last row over H at the first, for
a run too short for a rate fit. On `fd2d_bump32` it is 0.612 to 0.613
over seeds and 0.625 when the collision rate is 10% off. A dropped Pauli
factor moves it by only 0.4% there, so that defect is left to the 1-d
workloads.
"""
from __future__ import annotations

from dataclasses import dataclass

PERTURBATION = 0.001
# The audit constants that the decay argument needs to be positive.
AUDIT_SIGNS = ("c1_min", "c6_min", "c9_min")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    lambda_band: tuple[float, float] | None
    entropy_ratio_band: tuple[float, float] | None = None

    def config_text(self, seed: int) -> str:
        return (
            self.config
            + f"perturbation = {PERTURBATION}\n"
            + f"seed = {config_seed(seed)}\n"
        )


def config_seed(seed: int) -> int:
    """The config seed for a benchmark seed; numpy takes only non-negative ones."""
    return seed % 2**32


WORKLOADS = {
    w.name: w
    for w in (
        # The README default run: the paper's headline trajectory, long
        # enough for the rate fit and the audit. 11 200 steps on small
        # arrays, so per-call cost of collision and transport sets the time.
        Workload(
            name="fd1d_default",
            config=(
                "d_v = 1\n"
                "nodes_per_axis = 64\n"
                "spatial_cells = 64\n"
                "kernel = constant\n"
                "transport = upwind1\n"
                "splitting = strang\n"
                "t_final = 20\n"
                "record_every = 25\n"
                "delta = 0.01\n"
            ),
            lambda_band=(0.98, 1.03),
        ),
        # d_v = 2 with 32 x 32 nodes: the dense N x N collision dominates
        # and its temporaries set peak memory. Too short for a rate fit.
        Workload(
            name="fd2d_bump32",
            config=(
                "d_v = 2\n"
                "nodes_per_axis = 32\n"
                "spatial_cells = 32\n"
                "kernel = gaussian_bump\n"
                "transport = upwind1\n"
                "splitting = strang\n"
                "t_final = 0.25\n"
                "record_every = 100\n"
                "delta = 0.01\n"
            ),
            lambda_band=None,
            entropy_ratio_band=(0.60, 0.62),
        ),
        # One diagnostics row per step, the MUSCL path and the delta pilot:
        # per-record work (dissipation, projection, storage) dominates.
        Workload(
            name="fd1d_dense_records",
            config=(
                "d_v = 1\n"
                "nodes_per_axis = 64\n"
                "spatial_cells = 32\n"
                "kernel = constant\n"
                "transport = muscl2\n"
                "splitting = strang\n"
                "t_final = 2\n"
                "record_every = 1\n"
                "delta = auto\n"
            ),
            lambda_band=(1.04, 1.11),
        ),
    )
}
