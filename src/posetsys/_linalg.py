"""Exact dense linear algebra over the rationals.

All matrices are 2-D numpy arrays of dtype=object holding ``fractions.Fraction``
entries (plain ints are tolerated as inputs and normalized on construction).
Everything here is exact; nothing ever rounds.

The interface stays Fraction arrays, but the two kernels the other routines
are built on, ``mdot`` and ``rref``, compute on Python ints: they clear the
denominators of each row on the way in and form Fractions only on the way
out. A product then costs one gcd per output entry instead of one per
multiply-add, and an elimination forms no Fraction until it divides out its
pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import IncompatibleShapes, SingularMatrix

__all__ = [
    "F",
    "fmat",
    "fvec",
    "zeros",
    "eye",
    "mdot",
    "is_zero_matrix",
    "rref",
    "column_echelon",
    "kernel_basis",
    "rank",
    "det",
    "inverse",
    "solve_gram",
    "char_poly",
    "poly_mul",
    "poly_eval",
    "poly_eval_matrix",
    "mat_to_float",
]

F = Fraction
_ZERO = Fraction(0)


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    raise TypeError(f"cannot use {x!r} as an exact rational entry")


def fmat(rows) -> np.ndarray:
    """Build an exact matrix from an iterable of rows of ints and Fractions.

    Text entries are parsed by ``fileio.parse_rational`` before they get here.
    A numpy array keeps its shape; a float entry is refused like any other.
    """
    if isinstance(rows, np.ndarray):
        return np.vectorize(_coerce, otypes=[object])(rows)
    rows = [list(r) for r in rows]
    if not rows:
        return np.empty((0, 0), dtype=object)
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise IncompatibleShapes("ragged rows in matrix literal")
    out = np.empty((len(rows), ncols), dtype=object)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            out[i, j] = _coerce(x)
    return out


def fvec(entries) -> np.ndarray:
    """Build an exact column vector."""
    return fmat(entries.reshape(-1, 1) if isinstance(entries, np.ndarray) else [[x] for x in entries])


def zeros(nrows: int, ncols: int) -> np.ndarray:
    out = np.empty((nrows, ncols), dtype=object)
    out[...] = Fraction(0)
    return out


def eye(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def _int_rows(m: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Row i of ``m`` as integers ``rows[i]`` over the common denominator ``dens[i]``."""
    rows, dens = [], []
    for row in m.tolist():
        row_dens = [x.denominator for x in row]
        d = lcm(*row_dens)
        if d == 1:
            rows.append([x.numerator for x in row])
        else:
            rows.append([x.numerator * (d // e) for x, e in zip(row, row_dens)])
        dens.append(d)
    return rows, dens


def mdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix product; handles zero-sized operands.

    With a = diag(da)^-1 Ia and b = Ib diag(db)^-1 for integer Ia, Ib, the
    product is Ia Ib scaled by 1/(da[i] db[j]) entrywise.
    """
    if a.shape[1] != b.shape[0]:
        raise IncompatibleShapes(f"cannot multiply {a.shape} by {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return zeros(a.shape[0], b.shape[1])
    a_ints, a_dens = _int_rows(a)
    b_ints, b_dens = _int_rows(b.T)
    prod = np.dot(np.array(a_ints, dtype=object), np.array(b_ints, dtype=object).T)
    out = np.empty(prod.shape, dtype=object)
    for i, (row, da) in enumerate(zip(prod.tolist(), a_dens)):
        out[i, :] = [Fraction(x, da * db) if x else _ZERO for x, db in zip(row, b_dens)]
    return out


def is_zero_matrix(a: np.ndarray) -> bool:
    return all(x == 0 for x in a.flat)


def rref(m: np.ndarray):
    """Reduced row echelon form. Returns (R, pivot_columns).

    Gauss-Jordan on integer rows: each row is cleared of denominators and
    every update ``(p/g) row - (f/g) pivot_row`` is divided by its content,
    which changes rows only by nonzero scalars. Dividing each pivot row by its
    pivot at the end gives the reduced form, which is unique for the row space.
    """
    nrows, ncols = m.shape
    rows = _int_rows(m)[0]
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sel = next((i for i in range(row, nrows) if rows[i][col]), None)
        if sel is None:
            continue
        rows[row], rows[sel] = rows[sel], rows[row]
        prow = rows[row]
        piv = prow[col]
        for i, cur in enumerate(rows):
            factor = cur[col]
            if factor and i != row:
                g = gcd(piv, factor)
                p, f = piv // g, factor // g
                new = [p * x - f * y for x, y in zip(cur, prow)]
                content = gcd(*new)
                if content > 1:
                    new = [x // content for x in new]
                rows[i] = new
        pivots.append(col)
        row += 1
    r = np.empty((nrows, ncols), dtype=object)  # not zeros(): rref calls no public function
    r[...] = _ZERO
    for i, col in enumerate(pivots):
        piv = rows[i][col]
        r[i, :] = [Fraction(x, piv) if x else _ZERO for x in rows[i]]
    return r, pivots


def column_echelon(m: np.ndarray) -> np.ndarray:
    """Canonical basis of the column space: reduced column echelon form.

    Pivot entries are normalized to 1 and zero columns are dropped, so two
    matrices have identical output iff their column spaces coincide.
    """
    r, pivots = rref(m.T)
    return r[: len(pivots), :].T


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Columns spanning the exact null space of ``m`` (possibly 0 columns)."""
    nrows, ncols = m.shape
    r, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    out = zeros(ncols, len(free))
    for k, fc in enumerate(free):
        out[fc, k] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            out[pc, k] = -r[row_idx, fc]
    return out


def rank(m: np.ndarray) -> int:
    return len(rref(m)[1])


def det(m: np.ndarray) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n, nc = m.shape
    if n != nc:
        raise IncompatibleShapes("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    a = m.copy()
    result = Fraction(1)
    for col in range(n):
        sel = None
        for i in range(col, n):
            if a[i, col] != 0:
                sel = i
                break
        if sel is None:
            return Fraction(0)
        if sel != col:
            a[[col, sel], :] = a[[sel, col], :]
            result = -result
        piv = a[col, col]
        result *= piv
        for i in range(col + 1, n):
            if a[i, col] != 0:
                factor = a[i, col] / piv
                a[i, col:] = [x - factor * y for x, y in zip(a[i, col:], a[col, col:])]
    return result


def inverse(m: np.ndarray) -> np.ndarray:
    """Exact inverse via Gauss-Jordan; raises SingularMatrix."""
    n, nc = m.shape
    if n != nc:
        raise IncompatibleShapes("inverse of a non-square matrix")
    aug = np.hstack([m.copy(), eye(n)])
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return r[:, n:]


def solve_gram(basis: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (basis^T basis) x = basis^T rhs, the normal equations of a projection.

    ``basis`` must have independent columns; returns the coordinate matrix x.
    """
    g = mdot(basis.T, basis)
    return mdot(inverse(g), mdot(basis.T, rhs))


def char_poly(m: np.ndarray) -> list[Fraction]:
    """Coefficients of det(lambda I - m), low degree first, leading 1.

    Uses the trace-recursion (Faddeev-LeVerrier) scheme, exact over Q.
    """
    n, nc = m.shape
    if n != nc:
        raise IncompatibleShapes("characteristic polynomial of a non-square matrix")
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = eye(n)
    for k in range(1, n + 1):
        mk = mdot(m, mk)
        trace = sum((mk[i, i] for i in range(n)), Fraction(0))
        c = -trace / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i, i] += c
    return coeffs


def poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_eval_matrix(p: list[Fraction], m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    acc = zeros(n, n)
    for c in reversed(p):
        acc = mdot(acc, m)
        for i in range(n):
            acc[i, i] += c
    return acc


def mat_to_float(m: np.ndarray) -> np.ndarray:
    return m.astype(float)
