"""Reading and writing system files and signal files.

A system file is a UTF-8 JSON document::

    {"poset": {"p": 4, "edges": [[1, 2], [3, 2], [2, 4]]},
     "partitions": {"n": [...], "m": [...], "r": [...]},
     "A": [[...]], "B": [[...]], "C": [[...]], "D": [[...]],
     "x0": [...]}                       # optional

An edge [j, i] asserts that node j is above node i. Matrix entries may be
integers, decimal strings, or "a/b" rational strings; everything is parsed
exactly, and an entry whose numerator or denominator has more digits than
``sys.get_int_max_str_digits()`` allows is refused, so every loaded system can
be written back. Signal files are whitespace-separated columns: time followed
by the input components (none for a system without inputs), one grid point per
line.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from sys import get_int_max_str_digits

import numpy as np

from . import _linalg as la
from .errors import CycleError, IncompatibleShapes, IndexOutOfRange, ParseError, PosetSysError
from .poset import build_poset
from .sim import InputSignal, Trajectory
from .system import PosetCausalSystem

__all__ = [
    "parse_rational",
    "format_rational",
    "system_from_dict",
    "system_to_dict",
    "load_system",
    "save_system",
    "read_signal",
    "write_trajectory",
]


def parse_rational(value) -> Fraction:
    """Exact parse of a decimal or 'a/b' string; other values go to ``_linalg.exact_entry``.

    A value is refused when its numerator or denominator has more digits than
    ``sys.get_int_max_str_digits()`` allows (0 allows any), since it could not
    be written back as decimal text.
    """
    limit = get_int_max_str_digits() or math.inf
    try:
        if not isinstance(value, str):
            return la.exact_entry(value)
        text = value.strip()
        # Fraction expands the power, so "1e1000000000" would never finish
        _, marker, exponent = text.lower().partition("e")
        if marker and abs(int(exponent)) > limit:
            raise ValueError(f"exponent exceeds {limit}")
        out = Fraction(text)
        # below 2 ** (3 * limit) a number has at most `limit` digits, so most entries skip the power
        big = max(abs(out.numerator), out.denominator)
        if big.bit_length() > 3 * limit and big >= 10**limit:
            raise ValueError(f"more than {limit} digits")
        return out
    except TypeError as exc:
        raise ParseError(f"bad rational entry {value!r}: {exc}; write a non-integer "
                         "as a decimal or 'a/b' string") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational entry {value!r}: {exc}") from exc


def _ratio(num: int, den: int):
    """num / den (den > 0) in lowest terms, an int or "a/b": the one way a rational is written."""
    g = math.gcd(num, den)
    return num // g if g == den else f"{num // g}/{den // g}"


def format_rational(value: Fraction):
    value = la.exact_entry(value)
    return _ratio(value.numerator, value.denominator)


def format_basis(sub) -> list:
    """The canonical basis of a ``Subspace`` (pivots 1) as columns of ``format_rational`` values.

    Each entry is its integer column's entry over the column's pivot; no
    Fraction is formed. A numerator or denominator too long for decimal text
    (``sys.get_int_max_str_digits()``) raises ``ValueError``. Like
    ``_linalg.exact_entry`` it is not in ``__all__``, so the benchmark's
    tracer does not count it.
    """
    columns = sub.integer_basis.T.tolist()
    return [[_ratio(x, pivot) for x in col] for col, pivot in zip(columns, sub.pivots)]


def _parse_matrix(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError(f"{what} must be a 2-D array")
    try:
        return la.fmat([[parse_rational(x) for x in row] for row in rows])
    except (ParseError, IncompatibleShapes) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer; floats, booleans and strings are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def system_from_dict(doc: dict) -> PosetCausalSystem:
    try:
        poset_doc = doc["poset"]
        parts = doc["partitions"]
        p = _integer(poset_doc["p"], "poset p")
        edges = []
        for edge in _list(poset_doc["edges"], "poset edges"):
            j, i = _list(edge, "an edge")
            edges.append((_integer(j, "an edge endpoint"), _integer(i, "an edge endpoint")))
        n, m, r = (
            [_integer(v, f"partition size in {key}") for v in _list(parts[key], f"partition {key}")]
            for key in ("n", "m", "r")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed system document: {exc}") from exc
    for key, sizes in zip("nmr", (n, m, r)):
        if min(sizes, default=0) < 0:
            raise ParseError(f"partition {key} has a negative size {min(sizes)}")
    if not len(n) == len(m) == len(r) == p:
        raise ParseError(f"partitions have {len(n)}/{len(m)}/{len(r)} parts, poset has {p}")
    try:
        poset = build_poset(p, edges)
    except (IndexOutOfRange, CycleError) as exc:
        raise ParseError(f"poset: {exc}") from exc
    mats = {}
    for name, shape in (("A", (sum(n), sum(n))), ("B", (sum(n), sum(m))),
                        ("C", (sum(r), sum(n))), ("D", (sum(r), sum(m)))):
        if name not in doc:
            raise ParseError(f"missing matrix {name}")
        mat = _parse_matrix(doc[name], name)
        if mat.shape != shape and not (0 in shape and mat.size == 0):
            raise ParseError(f"{name} has shape {mat.shape}, expected {shape}")
        if mat.shape != shape:
            mat = la.zeros(*shape)
        mats[name] = mat
    x0 = None
    if doc.get("x0") is not None:
        x0 = [parse_rational(v) for v in _list(doc["x0"], "x0")]
        if len(x0) != sum(n):
            raise ParseError(f"x0 has {len(x0)} entries, expected {sum(n)}")
    return PosetCausalSystem(poset=poset, n=n, m=m, r=r, x0=x0, **mats)


def _matrix_doc(entries: np.ndarray) -> list:
    return [[format_rational(x) for x in row] for row in entries]


def system_to_dict(sys: PosetCausalSystem) -> dict:
    from .poset import hasse_edges

    doc = {
        "poset": {"p": sys.poset.p, "edges": [list(e) for e in sorted(hasse_edges(sys.poset))]},
        "partitions": {"n": list(sys.n.sizes), "m": list(sys.m.sizes), "r": list(sys.r.sizes)},
        "A": _matrix_doc(sys.A.entries),
        "B": _matrix_doc(sys.B.entries),
        "C": _matrix_doc(sys.C.entries),
        "D": _matrix_doc(sys.D.entries),
    }
    if sys.x0 is not None:
        doc["x0"] = [format_rational(x) for x in sys.x0.flat]
    return doc


def load_system(path) -> PosetCausalSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, an integer over the digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return system_from_dict(doc)


def save_system(sys: PosetCausalSystem, path) -> None:
    """Write the system file; the whole document is rendered first, so a failure writes no file.

    An entry too long for decimal text (``sys.get_int_max_str_digits()``)
    raises ``ParseError``.
    """
    try:
        text = json.dumps(system_to_dict(sys), indent=2) + "\n"
    except ValueError as exc:  # an integer over the digit limit
        raise ParseError(f"cannot write {path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_signal(path, step: float | None = None) -> InputSignal:
    """Columnar signal file: time column followed by input components, if any."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    row = [float(tok) for tok in line.replace(",", " ").split()]
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
                if not all(map(math.isfinite, row)):
                    raise ParseError(f"{path}:{lineno}: non-finite value in {line!r}")
                rows.append(row)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: signal file is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: expected uniform columns (time plus components)")
    times = np.array([r[0] for r in rows])
    values = np.array([r[1:] for r in rows])
    if step is None:
        if len(times) < 2:
            raise ParseError(f"{path}: need at least two rows to infer the step size")
        diffs = np.diff(times)
        step = float(diffs[0])
        if step <= 0 or not np.allclose(diffs, step, rtol=1e-9, atol=1e-12):
            raise ParseError(f"{path}: time column is not a uniform increasing grid")
    try:
        return InputSignal(step=float(step), values=values)
    except PosetSysError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_trajectory(traj: Trajectory, fh) -> None:
    """Columns: time, state components, output components; ``fh`` is a text file or a path."""
    np.savetxt(fh, np.column_stack([traj.times, traj.states, traj.outputs]), fmt="%.12g")
