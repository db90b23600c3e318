"""Exact dense linear algebra over the rationals.

Matrices are 2-D numpy arrays of dtype=object, of two kinds:

* *Exact* matrices hold ``fractions.Fraction`` entries. They are the system
  matrices and what every caller outside the package sees. ``mdot``,
  ``inverse``, ``solve_gram`` and ``krylov`` take and return them; ``rank``,
  ``char_poly``, ``invariant_span``, ``invariant_kernel`` and
  ``certified_kernel`` take them. An int is an exact entry too, so the power
  and kernel loops (``krylov``, ``invariant_span``, ``invariant_kernel``,
  ``certified_kernel``) also take an integer matrix: the per-node sets pass
  them integer slices of the system, cleared once
  (``system.model_integers``).
* *Integer* matrices hold Python ints. The eliminations ``rref``,
  ``column_echelon`` and ``kernel_basis`` take and return them, and
  ``subspace`` keeps every basis in this form, so a lattice operation forms
  no Fraction. ``rref`` returns each pivot row primitive with a positive
  pivot, which is as unique for the row space as the pivot-1 form (fraction
  free in the sense of Bareiss, Math. Comp. 22, 1968). It is the one
  elimination core: ``column_echelon``, ``kernel_basis``, ``solve`` and
  ``rank`` all call it. It takes the rows one at a time and stops reading
  them once the rank is the number of columns, so a tall matrix of full rank,
  such as a Krylov matrix or a sum of subspaces, leaves its last rows, which
  hold its largest integers, unread.

This module alone decides what an exact entry is (``exact_entry``): a
Fraction, an int or a numpy integer; a bool, a float or anything else raises
TypeError. ``cleared_rows`` turns an exact matrix into an integer one by
scaling each row by its common denominator, which keeps the row space and
the kernel. ``exact_entry``, ``exact_matrix``, ``cleared_rows`` and
``solve`` (under ``inverse`` and ``solve_gram``) are not in ``__all__``, so
the benchmark's tracer, which wraps every listed function, does not count
them. Everything here is exact; nothing ever rounds.

Products of exact matrices run on ints too: ``mdot`` clears each row of both
factors on the way in and forms Fractions only on the way out. ``krylov`` is
the power loop of ``ctrb_matrix``, which the per-node downstream and local
models and the test oracles use. The global sets form no power matrix:
``invariant_span`` saturates the reachable set (for ``reachable`` and the
moment check) and ``invariant_kernel`` the unobservable set (for
``unobservable``). ``certified_kernel`` finds each per-node unobservable set
(for ``upstream_indistinguishable``) from the rows of the observability
matrix that stay independent modulo a prime, and certifies it exactly. All
four clear ``a`` once to one denominator and multiply Python ints, and so do
``char_poly`` (Faddeev-LeVerrier on the cleared matrix) and
``poly_eval_matrix`` (Horner's rule on the cleared matrix and coefficients):
neither calls ``mdot``, and each forms its Fractions once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import attrgetter, truediv

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
    "invariant_span",
    "invariant_kernel",
    "certified_kernel",
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
_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")

# The prime ``certified_kernel`` picks its rows modulo; a failed certificate
# moves to the next prime below it.
START_PRIME = 2**31 - 1


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
    """The exact matrix [b, ab, ..., a^(k-1) b]: the power loop of ``ctrb_matrix``.

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


def invariant_span(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical integer basis of the smallest ``a``-invariant subspace containing im ``b``.

    It is the column space of [b, ab, ..., a^(n-1) b]: the reachable set of
    the pair (a, b), which ``reachability.reachable`` and the moment check
    read from here. V <- column_echelon([V, Ia V]) from the cleared columns
    of ``b`` until the dimension stops growing, or at once when V is {0} or
    the whole space, which every map keeps: then no elimination is run just
    to see nothing grow. ``a`` is cleared once, to Ia / d, which keeps its
    invariant subspaces; clearing it row by row would change the map.
    """
    a_ints = _cleared(a)[0]
    span = column_echelon(cleared_rows(b.T).T)
    while 0 < span.shape[1] < a.shape[0]:
        grown = column_echelon(np.hstack([span, a_ints.dot(span)]))
        if grown.shape[1] == span.shape[1]:
            break
        span = grown
    return span


def invariant_kernel(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Integer basis (not canonical) of the largest ``a``-invariant subspace inside ker ``c``.

    It is the kernel of [c; ca; ...; c a^(n-1)]: the unobservable set of the
    pair (c, a). W <- W kernel_basis(P^T Ia W), with P spanning W^perp, keeps
    the w in W with Ia w in W; it starts from the kernel of the cleared rows
    of ``c`` and stops when the dimension stops shrinking or reaches 0. ``a``
    is cleared once, to Ia / d, as in ``invariant_span``.
    """
    a_ints = _cleared(a)[0]
    kern = kernel_basis(cleared_rows(c))
    while kern.shape[1]:
        perp = kernel_basis(kern.T)
        shrunk = kern.dot(kernel_basis(perp.T.dot(a_ints.dot(kern))))
        if shrunk.shape[1] == kern.shape[1]:
            break
        kern = shrunk
    return kern


def certified_kernel(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Integer basis (not canonical) of the kernel of [c; ca; ...; c a^(n-1)], certified exactly.

    That kernel is the unobservable set N of the pair (c, a). ``a`` is
    cleared once, to Ia / d, and ``c`` row by row; neither changes N. Modulo
    a prime p, ``_rows_mod`` keeps each row c_j Ia^k that is independent of
    the rows kept before it. Rows independent modulo p are independent over
    Q, so if p keeps n rows, N = {0} and nothing is eliminated exactly.
    Otherwise the kept rows are formed exactly and W is their kernel, which
    contains N. Every other row of [c; kept Ia] is one p dropped; if each
    vanishes on W, then c W = 0 and kept Ia W = 0, so W is an a-invariant
    subspace inside ker c, W is inside N, and W = N. If one does not vanish,
    p divides a minor the rank decision needed: the walk retries with the
    next prime below p. Only finitely many primes divide those minors, so
    the walk ends, and the result never depends on the prime.
    """
    n = a.shape[0]
    a_ints = _cleared(a)[0]
    c_ints = cleared_rows(c)
    p = START_PRIME
    while True:
        picks, rank = _rows_mod(a_ints, c_ints, p)
        if rank == n:
            return np.zeros((n, 0), dtype=object)
        kept, dropped = [], []
        rows = c_ints
        for pick in picks:
            kept.append(rows[pick])
            dropped.append(rows[~pick])
            rows = rows[pick].dot(a_ints)
        kern = kernel_basis(np.vstack(kept))
        if is_zero_matrix(np.vstack(dropped).dot(kern)):
            return kern
        p = _prime_below(p)


def _rows_mod(a_ints: np.ndarray, c_ints: np.ndarray, p: int) -> tuple[list, int]:
    """Which rows of [c; c a; ...] stay independent modulo ``p``, block by block, and their rank.

    Block 0 is the rows of ``c_ints``, block k + 1 the rows block k kept
    times ``a_ints``; one boolean mask per block says which rows it kept. A
    dropped row is a combination of the rows kept before it, and so is its
    product with ``a_ints``, so dropping it loses nothing. The walk stops
    when a block keeps nothing or the rank is the state dimension.
    """
    n = a_ints.shape[0]
    if n >= 1 << 15:
        raise IncompatibleShapes(f"state dimension {n} is too large for the int64 products modulo p")
    a_mod = (a_ints % p).astype(np.int64)
    block = (c_ints % p).astype(np.int64)
    echelon = []  # (pivot, row) pairs: 1 at its pivot, 0 at the pivots of the rows before it
    picks = []
    while True:
        pick = np.zeros(block.shape[0], dtype=bool)
        for k, row in enumerate(block.tolist()):
            for col, kept in echelon:
                f = row[col]
                if f:
                    row = [(x - f * y) % p for x, y in zip(row, kept)]
            col = next((j for j, x in enumerate(row) if x), None)
            if col is not None:
                inv = pow(row[col], -1, p)
                echelon.append((col, [x * inv % p for x in row]))
                pick[k] = True
        picks.append(pick)
        if not pick.any() or len(echelon) == n:
            return picks, len(echelon)
        block = _mulmod(block[pick], a_mod, p)


def _mulmod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x y modulo p for int64 matrices with entries in [0, p), p < 2**31, inner dimension < 2**15.

    x is split into 16-bit halves, so no partial sum of either product passes 2**62.
    """
    high, low = x >> 16, x & 0xFFFF
    return (((high @ y) % p << 16) + low @ y) % p


def _prime_below(p: int) -> int:
    """The largest prime below ``p``, by trial division (only a failed certificate asks).

    About 10**8 primes lie below ``START_PRIME``; a walk uses only as many as
    divide the minors of its rank decisions, plus one.
    """
    for q in range(p - 1, 1, -1):
        if all(q % f for f in range(2, isqrt(q) + 1)):
            return q
    raise ArithmeticError("no prime is left below 2 to pick rows modulo")


def is_zero_matrix(a: np.ndarray) -> bool:
    return all(x == 0 for x in a.flat)


def rref(m: np.ndarray):
    """Reduced row echelon form of an integer matrix, in integers. Returns (R, pivot_columns).

    The rows are taken one at a time. Each is reduced against the pivot rows
    found so far, in the order they were found, by ``(p/g) row - (f/g)
    pivot_row`` divided by its content, which changes rows only by nonzero
    scalars. A row that stays nonzero becomes a pivot row at its first
    nonzero entry. Once there are as many pivots as columns, R is the
    identity and the rows left are never read: the tall Krylov matrices and
    sums reach full rank long before their last rows, which hold the largest
    integers. Otherwise one back-substitution, last pivot first, clears each
    pivot column above its pivot. Each pivot row is then made primitive with
    a positive pivot. Divided by its pivot it is the pivot-1 reduced form,
    which is unique for the row space, so R does not depend on the order of
    the rows. Rows past the pivots are zero.
    """
    nrows, ncols = m.shape
    pivots: list[int] = []
    rows: list[list] = []
    for row in m.tolist():
        for col, prow in zip(pivots, rows):
            if row[col]:
                row = _eliminate(row, prow, col)
        for col, x in enumerate(row):
            if x:
                break
        else:
            continue
        pivots.append(col)
        rows.append(row)
        if len(pivots) == ncols:
            out = np.zeros((nrows, ncols), dtype=object)
            np.fill_diagonal(out, 1)
            return out, list(range(ncols))
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    pivots = [pivots[k] for k in order]
    rows = [rows[k] for k in order]
    for k in range(len(rows) - 1, 0, -1):
        col, prow = pivots[k], rows[k]
        for i in range(k):
            if rows[i][col]:
                rows[i] = _eliminate(rows[i], prow, col)
    out = np.zeros((nrows, ncols), dtype=object)
    for i, (col, row) in enumerate(zip(pivots, rows)):
        content = gcd(*row) if row[col] > 0 else -gcd(*row)
        out[i, :] = [x // content for x in row] if content != 1 else row
    return out, pivots


def _eliminate(row: list, prow: list, col: int) -> list:
    """``row`` with its entry in ``col`` cleared by the pivot row ``prow``, divided by its content."""
    piv, factor = prow[col], row[col]
    g = gcd(piv, factor)
    p, f = piv // g, factor // g
    new = [p * x - f * y for x, y in zip(row, prow)]
    content = gcd(*new)
    return [x // content for x in new] if content > 1 else new


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
    return solve(m, eye(n))


def solve_gram(basis: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (basis^T basis) x = basis^T rhs, the normal equations of a projection.

    ``basis`` must have independent columns; returns the coordinate matrix x.
    """
    return solve(mdot(basis.T, basis), mdot(basis.T, rhs))


def solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The x with m x = rhs for a square exact ``m``: one Gauss-Jordan pass on [m, rhs].

    Raises SingularMatrix. Row i of the integer result has its pivot in column
    i; the rest of the row over that pivot is row i of x.
    """
    n = m.shape[0]
    r, pivots = rref(cleared_rows(np.hstack([m, rhs])))
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    out = np.empty((n, rhs.shape[1]), dtype=object)
    for i, row in enumerate(r.tolist()):
        out[i, :] = [Fraction(x, row[i]) if x else _ZERO for x in row[n:]]
    return out


def char_poly(m: np.ndarray) -> list[Fraction]:
    """Coefficients of det(lambda I - m), low degree first, leading 1.

    ``m`` is cleared once, to Ia / d, and the Faddeev-LeVerrier recursion
    runs on the integer matrix Ia: M_1 = I, M_(k+1) = Ia M_k + c_(n-k) I
    with c_(n-k) = -tr(Ia M_k) / k. The c_j are the integer coefficients of
    det(lambda I - Ia), so every division by k is exact; one that is not
    raises ArithmeticError. Scaling lambda by d gives c_j / d^(n-j), the
    coefficients of ``m``.
    """
    n, nc = m.shape
    if n != nc:
        raise IncompatibleShapes("characteristic polynomial of a non-square matrix")
    a_ints, d = _cleared(m)
    coeffs = [0] * n + [1]
    diagonal = np.arange(n)
    prod = a_ints.copy()  # Ia M_1
    for k in range(1, n + 1):
        trace = prod.trace()
        c, rest = divmod(-trace, k)
        if rest:
            raise ArithmeticError(f"Faddeev-LeVerrier step {k}: trace {trace} is not divisible by {k}")
        coeffs[n - k] = c
        if k < n:
            prod[diagonal, diagonal] += c
            prod = a_ints.dot(prod)
    return [Fraction(c, d ** (n - j)) for j, c in enumerate(coeffs)]


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
    """The exact matrix p(m) = sum_j p[j] m^j.

    ``m`` is cleared once, to Ia / d, and ``p`` to C_j / D, so p(m) is
    sum_j C_j d^(deg-j) Ia^j over D d^deg: Horner's rule on ints, divided once.
    """
    n = m.shape[0]
    if not p:
        return zeros(n, n)
    a_ints, d = _cleared(m)
    den = lcm(*(c.denominator for c in p))
    deg = len(p) - 1
    diagonal = np.arange(n)
    acc = np.zeros((n, n), dtype=object)
    for j in range(deg, -1, -1):
        if j < deg:
            acc = a_ints.dot(acc)
        acc[diagonal, diagonal] += p[j].numerator * (den // p[j].denominator) * d ** (deg - j)
    den *= d**deg
    out = np.empty((n, n), dtype=object)
    for i, row in enumerate(acc.tolist()):
        out[i, :] = [Fraction(x, den) if x else _ZERO for x in row]
    return out


def mat_to_float(m: np.ndarray) -> np.ndarray:
    """An exact matrix as doubles, each entry correctly rounded; OverflowError if one is too large.

    ``numerator / denominator`` is Python's correctly rounded int division, the
    value ``float(x)`` gives, without its per-entry ``numbers.Rational`` detour.
    ``fromiter`` stores each quotient as it is made, so no list of floats is held.
    """
    flat = m.ravel()
    quotients = map(truediv, map(_NUMERATOR, flat), map(_DENOMINATOR, flat))
    return np.fromiter(quotients, dtype=float, count=m.size).reshape(m.shape)
