"""Exact dense linear algebra over the rationals.

Matrices are 2-D numpy arrays of dtype=object, of two kinds:

* *Exact* matrices hold ``fractions.Fraction`` entries. They are the system
  matrices and what every caller outside the package sees. ``mdot``,
  ``inverse``, ``solve_gram`` and ``krylov`` take and return them; ``rank``
  and ``char_poly`` take them.
* *Integer* matrices hold Python ints. The eliminations ``rref``,
  ``column_echelon`` and ``kernel_basis`` take and return them, and
  ``subspace`` keeps every basis in this form, so a lattice operation forms
  no Fraction. ``rref`` returns each pivot row primitive with a positive
  pivot, which is as unique for the row space as the pivot-1 form (fraction
  free in the sense of Bareiss, Math. Comp. 22, 1968).

This module alone decides what an exact entry is (``exact_entry``): a
Fraction, an int or a numpy integer; a bool, a float or anything else raises
TypeError. ``cleared_rows`` turns an exact matrix into an integer one by
scaling each row by its common denominator, which keeps the row space and
the kernel. ``exact_entry``, ``exact_matrix`` and ``cleared_rows`` are not in
``__all__``, so the benchmark's tracer, which wraps every listed function,
does not count them. Everything here is exact; nothing ever rounds.

Products of exact matrices run on ints too: ``mdot`` clears each row of both
factors on the way in and forms Fractions only on the way out, and
``krylov``, the one power loop, clears ``a`` once to a single denominator and
multiplies Python ints at every step.
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
    "krylov",
    "is_zero_matrix",
    "rref",
    "column_echelon",
    "kernel_basis",
    "rank",
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


def exact_entry(x) -> Fraction:
    """``x`` as a Fraction; only a Fraction, an int or a numpy integer is exact, not a bool."""
    if type(x) is Fraction:  # not isinstance: an ABC check is slow when it fails, as for an int
        return x
    if type(x) is int or isinstance(x, np.integer):
        return Fraction(int(x))
    raise TypeError(f"cannot use {x!r} as an exact rational entry")


def exact_matrix(rows) -> np.ndarray:
    """An exact matrix: each entry through ``exact_entry``, an object array of Fractions untouched.

    A numpy array keeps its shape. Text is parsed by ``fileio.parse_rational``.
    """
    if isinstance(rows, np.ndarray):
        if rows.dtype == object and all(type(x) is Fraction for x in rows.flat):
            return rows
        return np.vectorize(exact_entry, otypes=[object])(rows)
    rows = [list(r) for r in rows]
    if not rows:
        return np.empty((0, 0), dtype=object)
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise IncompatibleShapes("ragged rows in matrix literal")
    out = np.empty((len(rows), ncols), dtype=object)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            out[i, j] = exact_entry(x)
    return out


def fmat(rows) -> np.ndarray:
    """Build an exact matrix from rows or an array, as ``exact_matrix`` does."""
    return exact_matrix(rows)


def fvec(entries) -> np.ndarray:
    """Build an exact column vector; a numpy array is reshaped, then made exact as in ``fmat``."""
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


def _int_matrix(rows: list, shape: tuple) -> np.ndarray:
    out = np.empty(shape, dtype=object)  # not from a nested list: a 0 x n matrix would lose a dimension
    for i, row in enumerate(rows):
        out[i, :] = row
    return out


def cleared_rows(m: np.ndarray) -> np.ndarray:
    """The integer matrix whose row i is row i of the exact matrix ``m`` times its common denominator."""
    return _int_matrix(_int_rows(m)[0], m.shape)


def _cleared(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``m`` as an integer matrix over one common denominator."""
    d = lcm(*(x.denominator for x in m.flat))
    rows = [[x.numerator * (d // x.denominator) for x in row] for row in m.tolist()]
    return _int_matrix(rows, m.shape), d


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


def krylov(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """The exact matrix [b, ab, ..., a^(k-1) b]: the one power loop.

    ``a`` is cleared once, to Ia / d, and ``b`` to Ib / e, so a^j b is the
    integer product Ia^j Ib over d^j e. Each block forms its Fractions once.
    """
    n, cols = b.shape
    if a.shape != (n, n):
        raise IncompatibleShapes(f"cannot take powers of {a.shape} against {b.shape}")
    a_ints, d = _cleared(a)
    cur, den = _cleared(b)
    out = np.empty((n, k * cols), dtype=object)
    for j in range(k):
        if j:
            cur = a_ints.dot(cur)
            den *= d
        for i, row in enumerate(cur.tolist()):
            out[i, j * cols : (j + 1) * cols] = [Fraction(x, den) if x else _ZERO for x in row]
    return out


def is_zero_matrix(a: np.ndarray) -> bool:
    return all(x == 0 for x in a.flat)


def rref(m: np.ndarray):
    """Reduced row echelon form of an integer matrix, in integers. Returns (R, pivot_columns).

    Gauss-Jordan on Python ints: every update ``(p/g) row - (f/g) pivot_row``
    is divided by its content, which changes rows only by nonzero scalars. At
    the end each pivot row is made primitive with a positive pivot. Divided by
    its pivot it is the pivot-1 reduced form, so R is unique for the row space
    as well. Rows past the pivots are zero.
    """
    nrows, ncols = m.shape
    rows = m.tolist()
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
    for i, col in enumerate(pivots):
        content = gcd(*rows[i]) if rows[i][col] > 0 else -gcd(*rows[i])
        if content != 1:
            rows[i] = [x // content for x in rows[i]]
    return _int_matrix(rows, (nrows, ncols)), pivots


def column_echelon(m: np.ndarray) -> np.ndarray:
    """Canonical basis of the column space of an integer matrix: reduced column echelon form.

    Each column is primitive with a positive pivot and zero columns are
    dropped, so two matrices have identical output iff their column spaces
    coincide.
    """
    r, pivots = rref(m.T)
    return r[: len(pivots), :].T


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Integer columns spanning the exact null space of the integer matrix ``m`` (possibly 0 columns).

    Column k is the primitive null vector that is positive at the k-th free
    column and zero at the others; divided by that entry it is the usual
    rational kernel basis read off the pivot-1 reduced form.
    """
    ncols = m.shape[1]
    r, pivots = rref(m)
    rows = r.tolist()
    free = [c for c in range(ncols) if c not in pivots]
    out = np.zeros((ncols, len(free)), dtype=object)  # not zeros(): that is a Fraction matrix
    for k, fc in enumerate(free):
        hits = [(pc, row[fc], row[pc]) for row, pc in zip(rows, pivots) if row[fc]]
        scale = lcm(*(piv for _, _, piv in hits))
        col = [0] * ncols
        col[fc] = scale
        for pc, x, piv in hits:
            col[pc] = -x * (scale // piv)
        content = gcd(*col)
        out[:, k] = [x // content for x in col] if content > 1 else col
    return out


def rank(m: np.ndarray) -> int:
    """Rank of an exact matrix."""
    return len(rref(cleared_rows(m))[1])


def inverse(m: np.ndarray) -> np.ndarray:
    """Exact inverse via Gauss-Jordan; raises SingularMatrix."""
    n, nc = m.shape
    if n != nc:
        raise IncompatibleShapes("inverse of a non-square matrix")
    r, pivots = rref(cleared_rows(np.hstack([m, eye(n)])))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    out = np.empty((n, n), dtype=object)
    for i, row in enumerate(r.tolist()):
        out[i, :] = [Fraction(x, row[i]) if x else _ZERO for x in row[n:]]
    return out


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
