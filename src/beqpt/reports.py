"""File formats: matrix files and command reports.

Everything is JSON (one schema, versioned).  Floats are written with
Python's shortest round-trip representation, so serialize/deserialize
is the identity and repeated deterministic runs produce byte-identical
results sections.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from .bipartite import BipartiteOperator, DensityMatrix

SCHEMA_VERSION = 1


def _matrix_payload(mat: np.ndarray) -> dict:
    return {
        "re": [[float(x) for x in row] for row in mat.real],
        "im": [[float(x) for x in row] for row in mat.imag],
    }


def matrix_file(op: BipartiteOperator) -> dict:
    """Serialize a bipartite operator (dims recorded explicitly)."""
    out = {"schema_version": SCHEMA_VERSION, "dims": [op.dA, op.dB]}
    out.update(_matrix_payload(op.mat))
    return out


def operator_file(mat: np.ndarray) -> dict:
    """Serialize a single local operator as a [d, 1] matrix file."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"local operator must be square, got shape {mat.shape}")
    out = {"schema_version": SCHEMA_VERSION, "dims": [mat.shape[0], 1]}
    out.update(_matrix_payload(mat))
    return out


def parse_matrix_file(obj: dict) -> tuple:
    """Return (matrix, dA, dB) from a matrix-file dict, validating shapes."""
    if not isinstance(obj, dict):
        raise ValueError("matrix file must be a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {obj.get('schema_version')!r}")
    dims = obj.get("dims")
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1
                       for d in dims)):
        raise ValueError(f"bad dims {dims!r}")
    dA, dB = dims
    n = dA * dB
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"bad matrix payload: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(
            f"matrix shape {re.shape}/{im.shape} does not match dims {dims} "
            f"(expected {(n, n)})"
        )
    return re + 1j * im, dA, dB


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def load_density_matrix(path: str) -> DensityMatrix:
    mat, dA, dB = parse_matrix_file(load_json(path))
    return DensityMatrix(mat, dA, dB)


def load_local_operator(path: str) -> np.ndarray:
    """Load a [d, 1] operator file as a plain d x d matrix."""
    mat, dA, dB = parse_matrix_file(load_json(path))
    if dB != 1:
        raise ValueError(f"{path}: expected a local operator file with dims [d, 1]")
    return mat


def to_jsonable(x):
    """Recursively coerce numpy containers/scalars to plain JSON types."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, numbers.Integral):
        return int(x)
    if isinstance(x, numbers.Real):
        x = float(x)
        return x if np.isfinite(x) else None
    if isinstance(x, np.ndarray):
        return to_jsonable(x.tolist())
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def make_report(command: str, inputs: dict, results: dict, timings: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": to_jsonable(inputs),
        "results": to_jsonable(results),
        "timings": to_jsonable(timings),
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def results_json(report: dict) -> str:
    """The deterministic part of a report (no timings), for byte-level
    reproducibility checks."""
    return json.dumps(
        {k: report[k] for k in ("schema_version", "command", "inputs", "results")},
        indent=2,
        sort_keys=True,
    )


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(report))
        fh.write("\n")
