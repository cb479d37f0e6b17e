"""Serialization for states, triads, sampled curves and star data.

All floating point output is rounded to 15 significant digits before it
is written, so repeated runs on the same input produce byte-identical
files.  Readers validate structure eagerly and raise ``ValueError`` with
a message naming the offending field.
"""

from __future__ import annotations

import cmath
import csv
import io
import json

import numpy as np

from .curves import CurveLift
from .majorana import MajoranaRep


def round15(x: float) -> float:
    """Round to 15 significant digits (the output precision)."""
    return float(f"{float(x):.15g}")


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [round15(z.real), round15(z.imag)]


def is_number(value) -> bool:
    """Whether a decoded JSON value is a number; JSON's true and false
    decode to bool, a subclass of int, and are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(pair, label: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(is_number(v) for v in pair)
    ):
        raise ValueError(f"{label}: expected a [re, im] pair, got {pair!r}")
    try:
        z = complex(pair[0], pair[1])
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{label}: non-finite value") from None
    if not cmath.isfinite(z):
        raise ValueError(f"{label}: non-finite value")
    return z


def json_dumps(obj) -> str:
    """Serialize to JSON with a trailing newline, keys in insertion order."""
    return json.dumps(obj, indent=2) + "\n"


def json_loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON input: {exc}") from exc


# ---------------------------------------------------------------------------
# states and triads


def state_to_dict(psi: np.ndarray) -> dict:
    psi = np.asarray(psi, dtype=complex)
    return {"dim": psi.size, "amplitudes": [_pair(z) for z in psi]}


def state_from_dict(d, label: str = "state") -> np.ndarray:
    if not isinstance(d, dict):
        raise ValueError(f"{label}: expected a JSON object, got {type(d).__name__}")
    if "amplitudes" not in d:
        raise ValueError(f"{label}: missing 'amplitudes'")
    amps = d["amplitudes"]
    if not isinstance(amps, list) or not amps:
        raise ValueError(f"{label}: 'amplitudes' must be a non-empty list")
    if "dim" in d and not (is_number(d["dim"]) and d["dim"] == len(amps)):
        raise ValueError(
            f"{label}: 'dim' is {d['dim']} but {len(amps)} amplitudes given"
        )
    return np.array(
        [_as_complex(p, f"{label}.amplitudes[{k}]") for k, p in enumerate(amps)],
        dtype=complex,
    )


def states_to_dict(states) -> dict:
    return {"states": [state_to_dict(psi) for psi in states]}


def states_from_dict(d) -> list[np.ndarray]:
    """Read ``{"states": [...]}``: three or more states of one dimension."""
    if not isinstance(d, dict) or "states" not in d:
        raise ValueError("expected a JSON object with a 'states' list")
    raw = d["states"]
    if not isinstance(raw, list):
        raise ValueError("'states' must be a list")
    states = [state_from_dict(s, f"states[{k}]") for k, s in enumerate(raw)]
    if len(states) < 3:
        raise ValueError(f"need at least 3 states, got {len(states)}")
    dims = {psi.size for psi in states}
    if len(dims) > 1:
        raise ValueError(f"states have mixed dimensions {sorted(dims)}")
    return states


# ---------------------------------------------------------------------------
# star decompositions


def rep_to_dict(rep: MajoranaRep) -> dict:
    return {
        "dim": rep.dim,
        "scale": _pair(rep.scale),
        "spinors": [[_pair(z) for z in row] for row in rep.spinors],
    }


def rep_from_dict(d) -> MajoranaRep:
    if not isinstance(d, dict) or "spinors" not in d or "scale" not in d:
        raise ValueError("expected a JSON object with 'spinors' and 'scale'")
    rows = d["spinors"]
    if not isinstance(rows, list):  # empty for a dimension-1 state
        raise ValueError("'spinors' must be a list")
    spinors = np.empty((len(rows), 2), dtype=complex)
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 2:
            raise ValueError(f"spinors[{k}]: expected two [re, im] pairs")
        spinors[k, 0] = _as_complex(row[0], f"spinors[{k}][0]")
        spinors[k, 1] = _as_complex(row[1], f"spinors[{k}][1]")
    scale = _as_complex(d["scale"], "scale")
    if "dim" in d and not (is_number(d["dim"]) and d["dim"] == len(rows) + 1):
        raise ValueError(
            f"'dim' is {d['dim']} but {len(rows)} spinors imply {len(rows) + 1}"
        )
    norms = np.linalg.norm(spinors, axis=1)
    bad = np.nonzero(np.abs(norms - 1.0) > 1e-9)[0]
    if bad.size:
        raise ValueError(f"spinors[{bad[0]}] is not unit length")
    spinors /= norms[:, None]
    return MajoranaRep(spinors=spinors, scale=scale)


def _csv_table(header: list[str], table: np.ndarray) -> str:
    """CSV text: the header line, then one line of .15g values per table row."""
    row = ",".join(["{:.15g}"] * len(header))
    return "".join([",".join(header) + "\n"]
                   + [row.format(*values) + "\n" for values in table.tolist()])


def stars_to_rows(stars: np.ndarray) -> str:
    """Bare star list, one ``x,y,z`` row per line with a header."""
    return _csv_table(["x", "y", "z"], np.asarray(stars, dtype=float))


# ---------------------------------------------------------------------------
# sampled curves


def curve_to_csv(lift: CurveLift) -> str:
    header = ["s"] + [f"{part}_{k}" for k in range(lift.dim) for part in ("re", "im")]
    psi = np.ascontiguousarray(lift.psi).view(float)  # re_0, im_0, re_1, ...
    return _csv_table(header, np.column_stack([lift.s, psi]))


def curve_from_csv(text: str) -> CurveLift:
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if len(rows) < 2:
        raise ValueError("curve CSV has no data rows")
    header = [c.strip() for c in rows[0]]
    if header[0] != "s" or len(header) < 3 or len(header) % 2 == 0:
        raise ValueError(
            "curve CSV header must be s,re_0,im_0,... with one re/im pair per axis"
        )
    dim = (len(header) - 1) // 2
    for k in range(dim):
        if header[1 + 2 * k] != f"re_{k}" or header[2 + 2 * k] != f"im_{k}":
            raise ValueError(f"curve CSV header: expected re_{k},im_{k} columns")
    values = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ValueError(f"curve CSV row {i} has {len(row)} fields")
        try:
            values.append([float(c) for c in row])
        except ValueError as exc:
            raise ValueError(f"curve CSV row {i}: {exc}") from exc
    table = np.array(values)
    # the samples read back through curve_to_csv's layout, signed zeros
    # included; the table was just made here, so the lift copies its
    # columns once, into its component-major buffer
    return CurveLift._owned(table[:, 0].copy(), table[:, 1:].view(complex))


def star_trajectory_to_csv(s: np.ndarray, traj: np.ndarray) -> str:
    """Two-star trajectory as ``s,n1x,n1y,n1z,n2x,n2y,n2z`` rows."""
    traj = np.asarray(traj, dtype=float)
    if traj.ndim != 3 or traj.shape[1:] != (2, 3):
        raise ValueError("expected a trajectory of shape (N, 2, 3)")
    return _csv_table(["s", "n1x", "n1y", "n1z", "n2x", "n2y", "n2z"],
                      np.column_stack([np.asarray(s, dtype=float),
                                       traj.reshape(-1, 6)]))


# ---------------------------------------------------------------------------
# structured results


def result_to_jsonable(obj):
    """Recursively convert a result into JSON-friendly values: NumPy arrays
    and scalars become Python values, complex numbers [real, imag] pairs
    and floats 15 significant digits."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: result_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [result_to_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return _pair(obj)
    if isinstance(obj, float):
        return round15(obj)
    return obj
