"""Deterministic seed derivation and canonical JSON.

Every random stream in the package is a pure function of a master seed and a
tuple of labels (ints, strings, or coordinate arrays).  Child seeds are the
first 8 bytes of a SHA-256 over the canonical encoding of the labels, so the
scheme is splittable and stable across runs, platforms, and versions.  Every
JSON artefact and digest is written by :func:`canonical_json`, so equal
payloads give equal bytes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def derive_seed(master: int, *parts) -> int:
    """Derive a 64-bit child seed from a master seed and hashable labels."""
    h = hashlib.sha256()
    h.update(int(master).to_bytes(16, "little", signed=True))
    for part in parts:
        if isinstance(part, (int, np.integer)):
            h.update(b"i")
            h.update(int(part).to_bytes(16, "little", signed=True))
        elif isinstance(part, str):
            h.update(b"s")
            h.update(part.encode("utf-8"))
        elif isinstance(part, np.ndarray):
            h.update(b"a")
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        elif isinstance(part, float):
            h.update(b"f")
            h.update(np.float64(part).tobytes())
        else:
            raise TypeError(f"cannot derive seed from {type(part)!r}")
    return int.from_bytes(h.digest()[:8], "little")


def rng_for(master: int, *parts) -> np.random.Generator:
    """Generator seeded by :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(master, *parts))


def canonical_json(payload, default=None) -> str:
    """Sorted keys, no whitespace: the one JSON form of every artefact;
    ``default`` converts values ``json`` cannot (see :func:`json.dumps`)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=default)
