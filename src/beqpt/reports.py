"""File formats: matrix files and command reports.

Everything is JSON (one schema, versioned).  Floats are written with
Python's shortest round-trip representation, so serialize/deserialize
is the identity and repeated deterministic runs produce byte-identical
results sections.  ``report_json`` writes reports byte for byte as
``json.dumps(report, indent=2, sort_keys=True)``, but faster: that call runs
json's pure-Python encoder, and its compact C one changes every report.
"""

from __future__ import annotations

import dataclasses
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .bipartite import BipartiteOperator, DensityMatrix, check_number

SCHEMA_VERSION = 1


def matrix_file(op: BipartiteOperator) -> dict:
    """Serialize a bipartite operator (dims recorded explicitly)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "dims": [op.dA, op.dB],
        "re": op.mat.real.tolist(),
        "im": op.mat.imag.tolist(),
    }


def parse_matrix_file(obj: dict) -> tuple:
    """Return (matrix, dA, dB) from a matrix-file dict, validating shapes."""
    if not isinstance(obj, dict):
        raise ValueError("matrix file must be a JSON object")
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    dims = obj.get("dims")
    if not isinstance(dims, list) or len(dims) != 2:
        raise ValueError(f"bad dims {dims!r}")
    for d in dims:
        check_number("dims", d, lo=1)
    dA, dB = dims
    n = dA * dB
    re, im = (np.array(obj.get(k), dtype=object) for k in ("re", "im"))
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(
            f"matrix shape {re.shape}/{im.shape} does not match dims {dims} "
            f"(expected {(n, n)})"
        )
    # a float conversion would also take strings and bools
    if not {*map(type, re.flat), *map(type, im.flat)} <= {int, float}:
        raise ValueError("bad matrix payload: entries must be numbers")
    try:
        return re.astype(float) + 1j * im.astype(float), dA, dB
    except OverflowError as exc:  # an integer entry too large for a float
        raise ValueError(f"bad matrix payload: {exc}") from exc


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # RecursionError: arrays or objects nested too deeply
        except (json.JSONDecodeError, RecursionError) as exc:
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
    """Recursively coerce a result to plain JSON types.  This is the one
    serialization rule: a bipartite operator (so also every density matrix
    and Choi state) becomes its matrix file, any other dataclass the dict
    of its fields, and numpy containers and scalars plain lists and
    numbers, with non-finite floats as None."""
    if isinstance(x, np.generic):
        x = x.item()
    if x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, np.ndarray):
        return to_jsonable(x.tolist())
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    # tested last, so the numbers and lists ahead of them pay nothing for them
    if isinstance(x, BipartiteOperator):
        return matrix_file(x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: to_jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    raise TypeError(f"cannot serialize {type(x).__name__}")


class Record:
    """Base of the result dataclasses: a new field reaches the report
    without a serializer edit."""

    def to_dict(self) -> dict:
        return to_jsonable(self)


def make_report(command: str, inputs: dict, results, timings: dict) -> dict:
    """Each section, records and operators included, serialized in one pass."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": to_jsonable(inputs),
        "results": to_jsonable(results),
        "timings": to_jsonable(timings),
    }


def report_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` for str-keyed dicts,
    lists, tuples, str, float, int, bool and None; any other type raises
    TypeError."""
    parts: list[str] = []
    _encode(report, "\n", parts.append)
    return "".join(parts)


def _encode(x, newline: str, put) -> None:
    """Put the pieces of ``x``; its items go on ``newline`` indented once more."""
    if isinstance(x, str):
        put(encode_basestring_ascii(x))
    elif x is None or x is True or x is False:
        put("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        put(int.__repr__(x))
    elif isinstance(x, float):
        put(float.__repr__(x) if math.isfinite(x) else json.dumps(x))
    elif isinstance(x, (list, tuple, dict)) and not x:
        put("{}" if isinstance(x, dict) else "[]")
    elif isinstance(x, dict):
        inner, sep = newline + "  ", "{"
        for key, value in sorted(x.items()):
            put(sep + inner + encode_basestring_ascii(key) + ": ")
            _encode(value, inner, put)
            sep = ","
        put(newline + "}")
    elif isinstance(x, (list, tuple)):
        inner = newline + "  "
        try:  # a row of floats in one join
            row = ("," + inner).join(map(float.__repr__, x))
        except TypeError:  # an item that is not a float
            row = None
        if row is not None and "n" not in row:  # finite: "nan" and "inf" hold an n
            put("[" + inner + row)
        else:
            sep = "["
            for value in x:
                put(sep + inner)
                _encode(value, inner, put)
                sep = ","
        put(newline + "]")
    else:
        raise TypeError(f"cannot write {type(x).__name__} to a report")


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(report))
        fh.write("\n")
