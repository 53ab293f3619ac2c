"""JSON wire format for matrices, channels, states and bases.

Complex scalars travel as two-element arrays [re, im]; matrices as
row-major nested arrays of those.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import BipartiteState, KrausChannel
from .coherence import Basis
from .linalg import validate_density_matrix


class ParseError(ValueError):
    pass


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    try:
        rows = []
        for row in data:
            rows.append([complex(cell[0], cell[1]) for cell in row])
        out = np.array(rows, dtype=complex)
    except (TypeError, IndexError, ValueError) as err:
        raise ParseError(f"malformed matrix: {err}") from err
    if out.ndim != 2:
        raise ParseError("matrix must be two-dimensional")
    if not np.all(np.isfinite(out)):
        raise ParseError("matrix has a non-finite entry")
    return out


def channel_to_json(channel: KrausChannel) -> dict:
    return {
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [matrix_to_json(k) for k in channel.kraus],
    }


def channel_from_json(data) -> KrausChannel:
    try:
        kraus = tuple(matrix_from_json(k) for k in data["kraus"])
        return KrausChannel(kraus, dim_in=int(data["dim_in"]), dim_out=int(data["dim_out"]))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"malformed channel: {err}") from err


def state_to_json(rho) -> dict:
    if isinstance(rho, BipartiteState):
        return {"dims": [rho.dim_a, rho.dim_b], "matrix": matrix_to_json(rho.state)}
    return {"matrix": matrix_to_json(rho)}


def state_from_json(data):
    """A validated density matrix: a BipartiteState when "dims" is present."""
    try:
        mat = matrix_from_json(data["matrix"])
        if "dims" in data:
            da, db = (int(x) for x in data["dims"])
            return BipartiteState(mat, da, db)
        validate_density_matrix(mat)
        return mat
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"malformed state: {err}") from err


def basis_to_json(basis: Basis) -> dict:
    return {"dim": basis.dim, "columns": matrix_to_json(basis.columns)}


def basis_from_json(data) -> Basis:
    try:
        return Basis(matrix_from_json(data["columns"]))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"malformed basis: {err}") from err


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ParseError(f"cannot read {path}: {err}") from err


def round_floats(obj, digits: int = 12):
    """Recursively format floats to a fixed number of significant digits."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.{digits}g}")
    if isinstance(obj, complex):
        return [round_floats(obj.real, digits), round_floats(obj.imag, digits)]
    if isinstance(obj, dict):
        return {k: round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, digits) for v in obj]
    return obj
