"""Canonical digests of job answers and the reference table they are checked
against.

A job returns its answer as plain data: strings, ints, bools, Fractions,
floats, None, numpy arrays, and tuples, lists, sets or dicts of them.
Floats are written with nine significant digits and arrays rounded to nine
decimals before hashing, so the digest does not depend on the last bits a
BLAS build or thread count may change; everything else is exact.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).with_name("references.json")


def canon(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (str, type(None))):
        return value
    if isinstance(value, dict):
        return tuple(sorted((canon(k), canon(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(canon(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(canon(v) for v in value))
    if isinstance(value, np.ndarray):
        return array_digest(value)
    raise TypeError(f"no canonical form for {type(value).__name__}")


def array_digest(arr: np.ndarray) -> str:
    """Digest of a float array rounded to nine decimals (coordinates in [-1, 1])."""
    rounded = np.round(np.asarray(arr, dtype=float), 9) + 0.0  # folds -0.0 into 0.0
    return "array" + str(rounded.shape) + hashlib.sha256(rounded.tobytes()).hexdigest()[:16]


def digest(answer) -> str:
    return hashlib.sha256(repr(canon(answer)).encode()).hexdigest()[:16]


def load_references(path: Path = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def expected_digests(refs: dict, workload: str, size_key: str, set_id: int) -> dict[str, str]:
    """Job name -> reference digest for one input set of a workload."""
    entry = refs[workload]
    if entry["size"] != size_key:
        raise KeyError(f"references for {workload} were recorded at another size")
    return dict(zip(entry["jobs"], entry["sets"][set_id]))
