from contextlib import closing

import numpy as np
import pytest

from fermibolt.velocity import build_velocity_grid
from fermibolt.fields import build_spatial_grid
from fermibolt.collision import build_kernel
from fermibolt.config import ExperimentConfig
from fermibolt.equilibrium import fermi_profile
from fermibolt.evolution import PhaseState, plan_step, step
from fermibolt.functionals import RECORD_FIELDS, DiagnosticsRecord
from fermibolt.storage import (
    CsvWriter,
    SnapshotError,
    load_csv,
    snapshot_dump,
    snapshot_load,
)


def write_csv(records, path):
    with closing(CsvWriter(path)) as writer:
        for record in records:
            writer.write(record)


def _records(n):
    rng = np.random.default_rng(101)
    out = []
    for k in range(n):
        values = [float(k)] + list(rng.uniform(-1.0, 1.0, size=len(RECORD_FIELDS) - 1))
        out.append(DiagnosticsRecord(*values))
    return out


def test_csv_round_trip(tmp_path):
    records = _records(7)
    path = tmp_path / "diag.csv"
    write_csv(records, str(path))
    loaded, n_warnings = load_csv(str(path))
    assert n_warnings == 0
    assert len(loaded) == 7
    for orig, back in zip(records, loaded):
        for name in RECORD_FIELDS:
            assert getattr(orig, name) == getattr(back, name)


def test_csv_header_schema(tmp_path):
    path = tmp_path / "diag.csv"
    write_csv(_records(1), str(path))
    header = path.read_text().splitlines()[0]
    assert header == ",".join(RECORD_FIELDS)


def test_csv_writer_streams(tmp_path):
    path = tmp_path / "diag.csv"
    records = _records(3)
    with closing(CsvWriter(str(path))) as writer:
        # the header is on disk as soon as the file is opened
        assert path.read_text().splitlines() == [",".join(RECORD_FIELDS)]
        writer.write(records[0])
        writer.flush()
        # and each row once it is flushed, as a run does once per batch
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        writer.write(records[1])
        writer.write(records[2])
    loaded, _ = load_csv(str(path))
    assert len(loaded) == 3


def test_csv_truncated_tail_is_warning(tmp_path):
    path = tmp_path / "diag.csv"
    write_csv(_records(4), str(path))
    text = path.read_text()
    clipped = text[: text.rfind(",") - 3]
    path.write_text(clipped)
    loaded, n_warnings = load_csv(str(path))
    assert len(loaded) == 3
    assert n_warnings == 1


def test_csv_malformed_interior_raises(tmp_path):
    path = tmp_path / "diag.csv"
    write_csv(_records(4), str(path))
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(",", ";", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_csv(str(path))


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "diag.csv"
    write_csv(_records(2), str(path))
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("dist_total", "distance")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_csv(str(path))


def _small_state():
    vg = build_velocity_grid(1, 8.0, 16)
    sg = build_spatial_grid(8)
    rng = np.random.default_rng(102)
    lower, upper = fermi_profile(0.5, vg), fermi_profile(2.0, vg)
    f = lower[None, :] + rng.uniform(0.0, 1.0, (8, 16)) * (upper - lower)[None, :]
    return PhaseState(
        f=f, time=1.75, vgrid=vg, sgrid=sg, kappa_cache=rng.uniform(0.5, 2.0, 8)
    )


def test_snapshot_round_trip(tmp_path):
    state = _small_state()
    path = tmp_path / "state.snap"
    snapshot_dump(state, str(path))
    back = snapshot_load(str(path))
    assert np.array_equal(back.f, state.f)
    assert back.time == state.time
    assert np.array_equal(back.kappa_cache, state.kappa_cache)
    assert back.vgrid.n_nodes == 16
    assert back.sgrid.cells == 8
    # supplying matching grids is accepted and the lattice is identical
    again = snapshot_load(str(path), vgrid=state.vgrid, sgrid=state.sgrid)
    assert np.array_equal(again.vgrid.nodes, state.vgrid.nodes)
    assert np.array_equal(again.f, state.f)


def test_snapshot_without_cache(tmp_path):
    state = _small_state()
    state.kappa_cache = None
    path = tmp_path / "state.snap"
    snapshot_dump(state, str(path))
    back = snapshot_load(str(path))
    assert back.kappa_cache is None


def test_snapshot_rejects_corruption(tmp_path):
    state = _small_state()
    path = tmp_path / "state.snap"
    snapshot_dump(state, str(path))
    raw = bytearray(path.read_bytes())
    bad_magic = tmp_path / "magic.snap"
    bad_magic.write_bytes(b"NOTMAGIC" + bytes(raw[8:]))
    with pytest.raises(SnapshotError):
        snapshot_load(str(bad_magic))
    truncated = tmp_path / "short.snap"
    truncated.write_bytes(bytes(raw[:-16]))
    with pytest.raises(SnapshotError):
        snapshot_load(str(truncated))


def test_snapshot_rejects_grid_mismatch(tmp_path):
    state = _small_state()
    path = tmp_path / "state.snap"
    snapshot_dump(state, str(path))
    other_vg = build_velocity_grid(1, 8.0, 32)
    with pytest.raises(SnapshotError):
        snapshot_load(str(path), vgrid=other_vg, sgrid=state.sgrid)
    other_sg = build_spatial_grid(16)
    with pytest.raises(SnapshotError):
        snapshot_load(str(path), vgrid=state.vgrid, sgrid=other_sg)


def test_restart_is_bitwise(tmp_path):
    vg = build_velocity_grid(1, 8.0, 16)
    sg = build_spatial_grid(16)
    kernel = build_kernel("constant", vg)
    rng = np.random.default_rng(103)
    lower, upper = fermi_profile(0.5, vg), fermi_profile(2.0, vg)
    f = lower[None, :] + rng.uniform(0.0, 1.0, (16, 16)) * (upper - lower)[None, :]
    state = PhaseState(f=f.copy(), time=0.0, vgrid=vg, sgrid=sg)
    plan = plan_step(kernel, vg, sg, ExperimentConfig())  # dt = auto

    straight = state
    for _ in range(60):
        straight = step(straight, plan)

    first_half = state
    for _ in range(30):
        first_half = step(first_half, plan)
    path = tmp_path / "mid.snap"
    snapshot_dump(first_half, str(path))
    resumed = snapshot_load(str(path), vgrid=vg, sgrid=sg)
    for _ in range(30):
        resumed = step(resumed, plan)

    assert np.array_equal(resumed.f, straight.f)
    assert resumed.time == straight.time
