"""Diagnostics CSV and binary state snapshots.

CSV rows carry 17 significant digits, enough to reproduce every float64
bit for bit on reload. Snapshots are little-endian binary with a magic
string and version tag followed by the lattice shape, the time stamp,
the occupation field in row-major order, and the per-cell kappa warm
start, so a resumed run continues on exactly the bytes it left.
"""
from __future__ import annotations

import os
import struct

import numpy as np

from .evolution import PhaseState
from .fields import build_spatial_grid
from .functionals import RECORD_FIELDS, DiagnosticsRecord
from .velocity import build_velocity_grid

__all__ = [
    "SnapshotError",
    "SNAPSHOT_PARTIAL",
    "CsvWriter",
    "load_csv",
    "snapshot_dump",
    "snapshot_load",
]

SNAPSHOT_MAGIC = b"FBOLTSN1"
SNAPSHOT_VERSION = 1
SNAPSHOT_PARTIAL = ".partial"  # suffix of a snapshot while it is written
_HEADER = struct.Struct("<8sI IIdId I")  # magic, version, d_v, N_v, L, N_x, t, cache flag


class SnapshotError(RuntimeError):
    """Unreadable, mismatched, or wrong-version snapshot file."""


class CsvWriter:
    """Streaming diagnostics writer: one line per record, on disk at each `flush`.

    The header is flushed when the file is opened; a run flushes once per
    batch of records.
    """

    def __init__(self, path: str):
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(RECORD_FIELDS) + "\n")
        self._fh.flush()

    def write(self, record: DiagnosticsRecord) -> None:
        self._fh.write(",".join(f"{v:.17g}" for v in record.as_row()) + "\n")

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def load_csv(path: str):
    """Read diagnostics back; returns (records, n_warnings).

    A truncated final line is tolerated (the run may have been killed
    mid-write) and counted as a warning; garbage elsewhere is an error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    header = lines[0].split(",")
    if header != list(RECORD_FIELDS):
        raise ValueError(
            f"{path} has wrong columns {header!r}; expected {list(RECORD_FIELDS)}"
        )
    records = []
    warnings = 0
    body = [ln for ln in lines[1:] if ln.strip()]
    for idx, line in enumerate(body):
        parts = line.split(",")
        try:
            if len(parts) != len(RECORD_FIELDS):
                raise ValueError
            values = [float(p) for p in parts]
        except ValueError:
            if idx == len(body) - 1:
                warnings += 1
                break
            raise ValueError(f"{path}: malformed row {idx + 1}: {line!r}") from None
        records.append(DiagnosticsRecord(*values))
    return records, warnings


def snapshot_dump(state: PhaseState, path: str) -> None:
    """Write `state` to `path` atomically: into `path` + SNAPSHOT_PARTIAL, then renamed.

    A dump that fails removes its partial file; one killed outright
    leaves that file, never a truncated `path`.
    """
    vg, sg = state.vgrid, state.sgrid
    has_cache = state.kappa_cache is not None
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        vg.dim,
        vg.nodes_per_axis,
        vg.half_width,
        sg.cells,
        state.time,
        1 if has_cache else 0,
    )
    partial = path + SNAPSHOT_PARTIAL
    fh = open(partial, "wb")
    try:
        with fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(state.f, dtype="<f8").tobytes())
            if has_cache:
                fh.write(np.ascontiguousarray(state.kappa_cache, dtype="<f8").tobytes())
    except BaseException:
        os.remove(partial)
        raise
    os.replace(partial, path)


def snapshot_load(path: str, vgrid=None, sgrid=None) -> PhaseState:
    """Rebuild a state; optional grids assert the expected lattice shape."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise SnapshotError(f"{path} is too short to be a snapshot")
    magic, version, d_v, n_v, half_width, cells, time, has_cache = _HEADER.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path} lacks the snapshot magic string")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path} has snapshot version {version}, this build reads "
            f"{SNAPSHOT_VERSION}"
        )
    vg = build_velocity_grid(d_v, half_width, n_v)
    sg = build_spatial_grid(cells)
    if vgrid is not None and (
        vgrid.dim != vg.dim
        or vgrid.nodes_per_axis != vg.nodes_per_axis
        or vgrid.half_width != vg.half_width
    ):
        raise SnapshotError(f"{path} was written on a different velocity lattice")
    if sgrid is not None and sgrid.cells != sg.cells:
        raise SnapshotError(f"{path} was written on a different spatial grid")
    n_nodes = vg.n_nodes
    need = cells * n_nodes * 8 + (cells * 8 if has_cache else 0)
    payload = blob[_HEADER.size:]
    if len(payload) != need:
        raise SnapshotError(
            f"{path} payload is {len(payload)} bytes, expected {need}"
        )
    f = np.frombuffer(payload[: cells * n_nodes * 8], dtype="<f8").reshape(
        cells, n_nodes
    ).astype(float, copy=True)
    cache = None
    if has_cache:
        cache = np.frombuffer(payload[cells * n_nodes * 8:], dtype="<f8").astype(
            float, copy=True
        )
    return PhaseState(f=f, time=time, vgrid=vg, sgrid=sg, kappa_cache=cache)
