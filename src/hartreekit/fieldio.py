"""Binary field dumps: portable, deterministic on-disk format for grid fields.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header
(grid geometry, gamma, omega, potential description, free-form scalars),
then the payload as little-endian float64 in C order -- the real part of the
field only, which is lossless for ground states and sampled potentials.
A JSON sidecar (same stem, .meta.json) duplicates the header plus any
diagnostic scalars so the dump is inspectable without parsing binary.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .spectral import Field, Grid

MAGIC = b"HKFIELD1"


def _canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(_canonical_json(obj))


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def dump_field(path, f: Field, header: dict, sidecar: dict | None = None) -> None:
    """Write the real part of f with the given header; header must carry
    dim/points/half_length (filled in from the grid if absent)."""
    path = Path(path)
    head = dict(header)
    head.setdefault("dim", f.grid.dim)
    head.setdefault("points", f.grid.points)
    head.setdefault("half_length", f.grid.half_length)
    if np.iscomplexobj(f.values) and float(np.abs(f.values.imag).max()) > 1e-12 * float(
        np.abs(f.values).max() or 1.0
    ):
        raise ValueError("field dump stores the real part only; field has a non-negligible imaginary part")
    hbytes = _canonical_json(head).encode()
    payload = np.ascontiguousarray(f.values.real, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(hbytes)))
        fh.write(hbytes)
        fh.write(payload)
    if sidecar is not None:
        meta = dict(head)
        meta.update(sidecar)
        write_json(path.with_suffix(path.suffix + ".meta.json"), meta)


def load_field(path) -> tuple:
    """Read a dump; returns (Field, header dict).  A payload with a NaN or an inf is rejected."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a field dump (bad magic {magic!r})")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        head = json.loads(fh.read(hlen).decode())
        grid = Grid(int(head["dim"]), int(head["points"]), float(head["half_length"]))
        count = grid.points**grid.dim
        data = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count)
    vals = data.reshape(grid.shape).astype(float)
    if not np.isfinite(vals).all():
        raise ValueError(f"{path}: the payload holds non-finite values (NaN or inf)")
    return Field(grid, vals), head
