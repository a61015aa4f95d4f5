"""Raster dumps, CSV reports, and run manifests.

Numeric rasters are little-endian float64 in C (row-major) order next to a
JSON header carrying {t, m, h, shape}; step logs and reports are plain CSV so
external tools can plot them without this package.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np


def dump_raster(out_dir, name, array, header):
    """Write one raster (<name>.bin) and its JSON header (<name>.json)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = np.ascontiguousarray(array, dtype="<f8")
    bin_path = out_dir / f"{name}.bin"
    bin_path.write_bytes(data.tobytes())
    meta = dict(header)
    meta["shape"] = list(array.shape)
    meta["dtype"] = "<f8"
    meta["file"] = bin_path.name
    (out_dir / f"{name}.json").write_text(json.dumps(meta, indent=2))
    return bin_path


def load_raster(json_path):
    """Read back a raster written by :func:`dump_raster`."""
    json_path = Path(json_path)
    meta = json.loads(json_path.read_text())
    raw = np.fromfile(json_path.parent / meta["file"], dtype=meta["dtype"])
    return raw.reshape(meta["shape"]), meta


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir, manifest):
    """Write manifest.json including a hash of every produced output file."""
    out_dir = Path(out_dir)
    hashes = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            hashes[str(path.relative_to(out_dir))] = file_sha256(path)
    manifest = dict(manifest)
    manifest["output_hashes"] = hashes
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True))
    return out_dir / "manifest.json"
