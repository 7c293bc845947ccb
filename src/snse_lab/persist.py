"""Deterministic on-disk formats: trajectory files, reports, manifests, tables.

Trajectory files are a one-line JSON header followed by raw little-endian
payload (times, recorded squared norms, then interleaved complex
coefficients).  Reports are canonical JSON (sorted keys, no timestamps), so a
rerun with the same config and seed is byte-identical.  The manifest lists
every output with its SHA-256 checksum.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

from .solvers import Trajectory
from .spectral import to_velocity

_MAGIC = "snse-lab-trajectory-v1"


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _sanitize(value):
    """Make numpy scalars/arrays and infinities JSON-safe."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        f = float(value)
        if f != f:
            return {"float": "nan"}
        if f == float("inf"):
            return {"float": "inf"}
        if f == float("-inf"):
            return {"float": "-inf"}
        return f
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def write_report(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(canonical_json(_sanitize(data)))
        fh.write("\n")


def read_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_trajectory(path: str, traj: Trajectory) -> None:
    """Write traj, its frames expanded into the file format's full
    two-component arrays (`to_velocity`)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    header = {
        "magic": _MAGIC,
        "max_wavenumber": traj.grid.max_wavenumber,
        "physical_resolution": traj.grid.physical_resolution,
        "dt": traj.dt,
        "record_stride": traj.record_stride,
        "n_records": traj.n_records,
        "sup_h2": traj.sup_h2,
        "int_v2": traj.int_v2,
        "provenance": _sanitize(traj.provenance),
    }
    with open(path, "wb") as fh:
        fh.write(canonical_json(header).encode())
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(traj.times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(traj.h2, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(traj.v2, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(to_velocity(traj.grid, traj.frames), dtype="<c16").tobytes())


def write_manifest(
    out_dir: str,
    config_hash: str,
    code_version: str,
    seeds: list[int],
    outputs: list[str],
    status: str,
    error: dict | None = None,
) -> str:
    """Write the run manifest listing every output file with its checksum."""
    inventory = []
    for rel in sorted(outputs):
        full = os.path.join(out_dir, rel)
        if os.path.exists(full):
            inventory.append(
                {
                    "path": rel,
                    "sha256": sha256_file(full),
                    "bytes": os.path.getsize(full),
                }
            )
    manifest = {
        "config_hash": config_hash,
        "code_version": code_version,
        "seeds": seeds,
        "status": status,
        "error": error,
        "outputs": inventory,
        "created_unix": time.time(),
    }
    path = os.path.join(out_dir, "manifest.json")
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
