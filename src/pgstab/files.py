"""The one module that writes files: strict JSON and exact-float CSV, each
replaced atomically, and the digest that identifies a configuration."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np


def _plain(value):
    """A numpy scalar as the Python number it holds, anything else as text, so
    ``seed=np.int64(3)`` is written, and hashed, as ``seed=3``."""
    return value.item() if isinstance(value, np.generic) else str(value)


def digest(config, *excluded: str) -> str:
    """First 16 hex digits of the SHA-256 of a dataclass config's fields,
    less ``excluded``, as sorted-key JSON."""
    hashed = {k: v for k, v in asdict(config).items() if k not in excluded}
    text = json.dumps(hashed, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _replace(path: Path, text: str) -> None:
    """Write through ``<name>.tmp`` and rename, so a reader never sees half a
    file; the directory is created when missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, newline="")
    tmp.replace(path)


def write_json(path: Path, obj) -> None:
    """Indented strict JSON: a non-finite float fails the write with
    ``ValueError`` rather than produce a file a strict reader refuses."""
    _replace(path, json.dumps(obj, indent=2, allow_nan=False, default=_plain))


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """CSV whose floats are written with ``repr``, so they re-parse exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        # csv reprs floats, and np.float64 reprs as "np.float64(...)"
        writer.writerow([float(v) if isinstance(v, np.floating) else v for v in row])
    _replace(path, buf.getvalue())
