"""Run artifacts read back the way `fermibolt audit` reads them."""
import os

from fermibolt.storage import snapshot_load


def snapshot_states(output_dir):
    """The snapshot states of a run directory, in record order."""
    snap_dir = os.path.join(output_dir, "snapshots")
    names = sorted(n for n in os.listdir(snap_dir) if n.endswith(".snap"))
    return [snapshot_load(os.path.join(snap_dir, name)) for name in names]
