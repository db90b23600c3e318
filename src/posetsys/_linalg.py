"""Exact dense linear algebra over the rationals.

Matrices are 2-D numpy arrays of dtype=object, of two kinds:

* *Exact* matrices hold ``fractions.Fraction`` entries. They are the system
  matrices and what every caller outside the package sees. ``mdot`` and
  ``inverse`` take and return them; ``rank`` and ``char_poly`` take them.
* *Integer* matrices hold Python ints. The eliminations ``rref``,
  ``column_echelon`` and ``kernel_basis`` take and return them, and
  ``subspace`` keeps every basis in this form, so a lattice operation forms
  no Fraction. ``rref`` returns each pivot row primitive with a positive
  pivot, which is as unique for the row space as the pivot-1 form (fraction
  free in the sense of Bareiss, Math. Comp. 22, 1968). It is the one
  elimination core: ``column_echelon``, ``kernel_basis``, ``solve``,
  ``normal_equations`` and ``rank`` all call it, and ``invariant_span``
  reduces its vectors by its row step (``_reduce_into``). It takes the rows
  one at a time and stops reading them once the rank is the number of
  columns, so a tall matrix of full rank, such as a Krylov matrix or a sum
  of subspaces, leaves its last rows, which hold its largest integers, unread.

The crossing between the two kinds is decided here alone, in three boundary
routines. ``cleared`` takes a matrix to integers over one common denominator,
which keeps a square matrix's invariant subspaces, and ``cleared_rows`` row by
row, which keeps the row space and the kernel (columns: clear the transpose).
Each returns its denominators and takes an integer matrix as it is. Any
other entry goes through ``exact_entry``: a Fraction, an int or a numpy
integer is exact; a bool, a float or anything else raises TypeError.
``exact_over`` is the way back: it forms the exact matrix
ints[i, j] / (rows[i] cols[j]), and every Fraction that a product, power,
solve or polynomial of matrices yields, and that ``subspace`` and
``reduction`` yield, is formed there. ``exact_entry``, ``exact_matrix``, the
three boundary routines, ``solve`` (under ``inverse``) and
``normal_equations`` are not in ``__all__``, so the benchmark's tracer, which
wraps every listed function, does not count them. Everything here is exact;
nothing ever rounds.

The power and kernel loops ``krylov``, ``invariant_span``,
``invariant_kernel`` and ``certified_kernel`` run on integer matrices. The
per-node sets pass them integer slices of the system, cleared once
(``system.model_integers``), and they take those as they are. A caller with
an exact matrix is cleared once, at the top of the same routine: ``a`` to
one common denominator and ``b`` by columns or ``c`` by rows. ``krylov``
gives an integer matrix for integer operands and an exact one otherwise.
That dispatch is needed: an exact matrix read as integers by
``certified_kernel`` is reduced modulo p to nonsense, and its walk of primes
never finds a certificate.

Products of exact matrices run on ints too: ``mdot`` clears the rows of
``a`` and the columns of ``b`` on the way in and forms Fractions only on the
way out. The projections and compressions form no such product:
``normal_equations`` solves the Gram system of an integer basis in one
``rref``, and ``reduction`` turns its integer solution into Fractions once,
through ``exact_over``. ``krylov`` is the power loop of ``ctrb_matrix``,
which the per-node downstream and local models and the test oracles use. The
global sets form no power matrix: ``invariant_span`` grows the reachable set
by a span chain (for ``reachable`` and the moment check), which multiplies by
Ia only the vectors its last step added and canonicalizes once, and
``invariant_kernel`` shrinks the unobservable set (for ``unobservable``).
``certified_kernel`` finds each per-node unobservable set (for
``upstream_indistinguishable``) from the rows of the observability matrix
that stay independent modulo a prime, and certifies it exactly. ``char_poly``
clears ``m`` once and multiplies Python ints: it calls no ``mdot`` and forms
its Fractions once, at the end. ``integer_char_poly`` (not in ``__all__``,
like ``cleared``) takes the power sums of the cleared matrix from about
2 sqrt(n) products, by baby steps and giant steps, and Newton's identities
turn them into the coefficients; ``poly_over`` divides them by powers of the
denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import attrgetter, mul, truediv

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
    "char_poly",
    "poly_mul",
    "poly_eval",
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


def _is_integer(m: np.ndarray) -> bool:
    """Whether ``m`` is an integer matrix: an object array whose every entry is an int."""
    return m.dtype == object and all(type(x) is int for x in m.flat)


def cleared(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(Im, d) with m = Im / d: ``m`` as an integer matrix over one common denominator.

    This keeps the invariant subspaces of a square ``m``. An integer matrix
    is taken as it is, with d = 1. Any other goes through ``exact_matrix``
    first, so a float or bool entry raises ``exact_entry``'s TypeError.
    """
    if _is_integer(m):
        return m, 1
    m = exact_matrix(m)
    d = lcm(*map(_DENOMINATOR, m.flat))
    rows = [[x.numerator * (d // x.denominator) for x in row] for row in m.tolist()]
    return np.array(rows, dtype=object).reshape(m.shape), d  # reshape: [] loses a 0 x n shape


def cleared_rows(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(Im, dens): row i of ``m`` is row i of the integer matrix Im over its denominator dens[i].

    This keeps the row space and the kernel; ``cleared_rows(m.T)`` clears by
    columns, which keeps the column space. Entries are taken as in ``cleared``.
    """
    if _is_integer(m):
        return m, [1] * m.shape[0]
    m = exact_matrix(m)
    rows, dens = [], []
    for row in m.tolist():
        row_dens = [x.denominator for x in row]
        d = lcm(*row_dens)
        if d == 1:
            rows.append([x.numerator for x in row])
        else:
            rows.append([x.numerator * (d // e) for x, e in zip(row, row_dens)])
        dens.append(d)
    return np.array(rows, dtype=object).reshape(m.shape), dens


def exact_over(ints: np.ndarray, rows, cols) -> np.ndarray:
    """The exact matrix whose entry (i, j) is ints[i, j] / (rows[i] cols[j]), for an integer ``ints``.

    The one place where a result leaves the integers: each Fraction is formed
    here, once, and every zero is the same Fraction(0).
    """
    out = [
        [Fraction(x, r * c) if x else _ZERO for x, c in zip(row, cols)]
        for row, r in zip(ints.tolist(), rows)
    ]
    return np.array(out, dtype=object).reshape(ints.shape)


def mdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix product; handles zero-sized operands.

    With a = diag(da)^-1 Ia and b = Ib diag(db)^-1 for integer Ia, Ib, the
    product is Ia Ib scaled by 1/(da[i] db[j]) entrywise.
    """
    if a.shape[1] != b.shape[0]:
        raise IncompatibleShapes(f"cannot multiply {a.shape} by {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return zeros(a.shape[0], b.shape[1])
    a_ints, a_dens = cleared_rows(a)
    b_ints, b_dens = cleared_rows(b.T)
    return exact_over(a_ints.dot(b_ints.T), a_dens, b_dens)


def krylov(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """The matrix [b, ab, ..., a^(k-1) b]: the power loop of ``ctrb_matrix``.

    Integer ``a`` and ``b`` give the integer matrix, with no clearing pass.
    Otherwise ``a`` is cleared once, to Ia / d, and ``b`` to Ib / e, so a^j b
    is the integer product Ia^j Ib over d^j e, made exact once.
    """
    n, cols = b.shape
    if a.shape != (n, n):
        raise IncompatibleShapes(f"cannot take powers of {a.shape} against {b.shape}")
    if _is_integer(a) and _is_integer(b):
        return _powers(a, b, k)
    a_ints, d = cleared(a)
    b_ints, e = cleared(b)
    dens = [e * d**j for j in range(k) for _ in range(cols)]  # block j is over e d^j
    return exact_over(_powers(a_ints, b_ints, k), [1] * n, dens)


def _powers(a_ints: np.ndarray, b_ints: np.ndarray, k: int) -> np.ndarray:
    """The integer matrix [Ib, Ia Ib, ..., Ia^(k-1) Ib]."""
    n, cols = b_ints.shape
    out = np.empty((n, k * cols), dtype=object)
    cur = b_ints
    for j in range(k):
        if j:
            cur = a_ints.dot(cur)
        out[:, j * cols : (j + 1) * cols] = cur
    return out


def invariant_span(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical integer basis of the smallest ``a``-invariant subspace containing im ``b``.

    It is the column space of [b, ab, ..., a^(n-1) b]: the reachable set of
    the pair (a, b), which ``reachability.reachable`` and the moment check
    read from here. A span chain grows it on integers, with no power of
    ``a``: the cleared columns of ``b`` enter a forward-reduced echelon by
    ``rref``'s own row step (``_reduce_into``), and each step multiplies by
    Ia only the vectors the step before it added and reduces the products
    into the echelon. The chain stops when a step adds nothing, since then
    Ia maps every vector of the echelon into its span, or as soon as the
    dimension is n. The full space is the identity and {0} has no columns,
    so neither runs an elimination; any other span is canonicalized once,
    by a ``column_echelon`` that only back-substitutes, because each vector
    of the echelon is zero at the pivots of those before it. An integer
    ``a`` is taken as it is and an exact one cleared once, to Ia / d, which
    keeps its invariant subspaces; clearing it row by row would change the map.
    """
    n = a.shape[0]
    a_ints = cleared(a)[0]
    pivots: list[int] = []
    rows: list[list] = []  # the echelon's vectors, as lists
    new = cleared_rows(b.T)[0].tolist()
    while new:
        known = len(rows)
        for vec in new:
            if _reduce_into(pivots, rows, vec) and len(rows) == n:
                return np.identity(n, dtype=object)
        added = rows[known:]
        new = a_ints.dot(np.array(added, dtype=object).T).T.tolist() if added else []
    if not rows:
        return np.zeros((n, 0), dtype=object)
    return column_echelon(np.array(rows, dtype=object).T)


def invariant_kernel(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Integer basis (not canonical) of the largest ``a``-invariant subspace inside ker ``c``.

    It is the kernel of [c; ca; ...; c a^(n-1)]: the unobservable set of the
    pair (c, a). W <- W kernel_basis(P^T Ia W), with P spanning W^perp, keeps
    the w in W with Ia w in W; it starts from the kernel of the cleared rows
    of ``c`` and stops when the dimension stops shrinking or reaches 0. An
    exact ``a`` is cleared once, to Ia / d, as in ``invariant_span``.
    """
    a_ints = cleared(a)[0]
    kern = kernel_basis(cleared_rows(c)[0])
    while kern.shape[1]:
        perp = kernel_basis(kern.T)
        shrunk = kern.dot(kernel_basis(perp.T.dot(a_ints.dot(kern))))
        if shrunk.shape[1] == kern.shape[1]:
            break
        kern = shrunk
    return kern


def certified_kernel(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Integer basis (not canonical) of the kernel of [c; ca; ...; c a^(n-1)], certified exactly.

    That kernel is the unobservable set N of the pair (c, a). Integer ``a``
    and ``c`` are taken as they are; an exact ``a`` is cleared once, to
    Ia / d, and an exact ``c`` row by row; neither changes N. Modulo
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
    a_ints = cleared(a)[0]
    c_ints = cleared_rows(c)[0]
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
        if _reduce_into(pivots, rows, row) and len(pivots) == ncols:
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


def _reduce_into(pivots: list[int], rows: list[list], row: list) -> bool:
    """Reduce ``row`` against a forward echelon and keep what is left; whether it was kept.

    ``rows`` are the pivot rows in the order they were found and ``pivots``
    their pivot columns. Each clears its column of ``row`` by ``_eliminate``,
    in that order; a later pivot row is zero at the earlier pivots, so the
    cleared entries stay zero. A nonzero remainder joins the echelon with
    its first nonzero entry as its pivot.
    """
    for col, prow in zip(pivots, rows):
        if row[col]:
            row = _eliminate(row, prow, col)
    for col, x in enumerate(row):
        if x:
            pivots.append(col)
            rows.append(row)
            return True
    return False


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
    """Rank of an exact or integer matrix."""
    return len(rref(cleared_rows(m)[0])[1])


def inverse(m: np.ndarray) -> np.ndarray:
    """Exact inverse via Gauss-Jordan; raises SingularMatrix."""
    n, nc = m.shape
    if n != nc:
        raise IncompatibleShapes("inverse of a non-square matrix")
    return solve(m, eye(n))


def normal_equations(basis: np.ndarray, rhs: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The normal equations G x = basis^T rhs, G = basis^T basis, on integers: (q, rows).

    ``basis`` and ``rhs`` are integer matrices and the k columns of ``basis``
    are independent, so G is invertible. One ``rref`` of [G, basis^T rhs]
    gives pivot row i as q_i e_i, q_i > 0, followed by row i of the integer
    matrix ``rows``: row i of x is that row over q_i.
    """
    k = basis.shape[1]
    r, _ = rref(np.hstack([basis.T.dot(basis), basis.T.dot(rhs)]))
    return r.diagonal().tolist(), r[:, k:]


def solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The x with m x = rhs for a square exact ``m``: one Gauss-Jordan pass on [m, rhs].

    Raises SingularMatrix. Row i of the integer result has its pivot in column
    i; the rest of the row over that pivot is row i of x.
    """
    n = m.shape[0]
    r, pivots = rref(cleared_rows(np.hstack([m, rhs]))[0])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return exact_over(r[:, n:], r.diagonal(), [1] * rhs.shape[1])


def char_poly(m: np.ndarray) -> list[Fraction]:
    """Coefficients of det(lambda I - m), low degree first, leading 1.

    ``m`` is cleared once, to Ia / d, and ``integer_char_poly`` gives the
    integer coefficients c_j of det(lambda I - Ia). Scaling lambda by d gives
    c_j / d^(n-j), the coefficients of ``m`` (``poly_over``).
    """
    n, nc = m.shape
    if n != nc:
        raise IncompatibleShapes("characteristic polynomial of a non-square matrix")
    a_ints, d = cleared(m)
    return poly_over(integer_char_poly(a_ints), d)


def integer_char_poly(a_ints: np.ndarray) -> list[int]:
    """Integer coefficients of det(lambda I - Ia) for a square integer matrix, low degree first.

    The power sums p_k = tr(Ia^k), k = 1..n, come from baby steps Ia^1 ..
    Ia^s, s = isqrt(n), and giant steps Ia^(js), j >= 2, each made only once
    a trace needs it. With k = i + js and 1 <= i <= s, p_k is tr(Ia^i) for
    j = 0 and otherwise the elementwise product sum of Ia^i and
    (Ia^(js))^T, so about 2 sqrt(n) matrix products are made (Preparata and
    Sarwate, Inf. Process. Lett. 7, 1978). Newton's identities,
    k c_(n-k) = -sum_(i=1..k) c_(n-k+i) p_i with c_n = 1, then give the
    coefficients. They are integers, so every division by k is exact; one
    that is not raises ArithmeticError. Not in ``__all__``, like ``cleared``.
    """
    n = a_ints.shape[0]
    s = isqrt(n)
    baby = [a_ints]  # baby[i - 1] = Ia^i
    for _ in range(1, s):
        baby.append(a_ints.dot(baby[-1]))
    sums = [0]  # sums[k] = p_k
    giant = None  # Ia^(js); None while j = 0
    for k in range(1, n + 1):
        j, i = divmod(k - 1, s)
        if j and not i:
            giant = baby[-1] if j == 1 else giant.dot(baby[-1])
        sums.append(baby[i].trace() if giant is None else (baby[i] * giant.T).sum())
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        total = sum(map(mul, coeffs[n - k + 1 :], sums[1 : k + 1]))
        c, rest = divmod(-total, k)
        if rest:
            raise ArithmeticError(f"Newton identity {k}: {total} is not divisible by {k}")
        coeffs[n - k] = c
    return coeffs


def poly_over(coeffs: list[int], d: int) -> list[Fraction]:
    """The coefficients c_j / d^(n-j) of det(lambda I - Ia / d), from those c_j of det(lambda I - Ia).

    Not in ``__all__``, like ``exact_over``: the one place a characteristic
    polynomial leaves the integers.
    """
    n = len(coeffs) - 1
    return [Fraction(c, d ** (n - j)) for j, c in enumerate(coeffs)]


def poly_mul(p: list, q: list) -> list:
    """The product of two polynomials, low degree first; int operands give ints."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def mat_to_float(m: np.ndarray) -> np.ndarray:
    """An exact matrix as doubles, each entry correctly rounded; OverflowError if one is too large.

    ``numerator / denominator`` is Python's correctly rounded int division, the
    value ``float(x)`` gives, without its per-entry ``numbers.Rational`` detour.
    ``fromiter`` stores each quotient as it is made, so no list of floats is held.
    """
    flat = m.ravel()
    quotients = map(truediv, map(_NUMERATOR, flat), map(_DENOMINATOR, flat))
    return np.fromiter(quotients, dtype=float, count=m.size).reshape(m.shape)
