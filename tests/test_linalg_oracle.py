"""The integer core of ``_linalg`` against the Fraction elimination it replaced.

``oracle_rref`` and ``oracle_mdot`` are the Fraction-arithmetic ``rref`` and
``mdot`` that ``_linalg`` used before its products and eliminations moved to
Python ints. Every routine built on them must give identical matrices: same
shape, same pivots and equal entries, every one a ``Fraction``.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetsys import _linalg as la
from posetsys.errors import SingularMatrix

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def oracle_mdot(a, b):
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return la.zeros(a.shape[0], b.shape[1])
    return np.dot(a, b)


def oracle_rref(m):
    r = m.copy()
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sel = None
        for i in range(row, nrows):
            if r[i, col] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != row:
            r[[row, sel], :] = r[[sel, row], :]
        piv = r[row, col]
        if piv != 1:
            r[row, :] = [x / piv for x in r[row, :]]
        for i in range(nrows):
            if i != row and r[i, col] != 0:
                factor = r[i, col]
                r[i, :] = [x - factor * y for x, y in zip(r[i, :], r[row, :])]
        pivots.append(col)
        row += 1
    return r, pivots


def oracle_column_echelon(m):
    r, pivots = oracle_rref(m.T)
    return r[: len(pivots), :].T


def oracle_kernel_basis(m):
    r, pivots = oracle_rref(m)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    out = la.zeros(m.shape[1], len(free))
    for k, fc in enumerate(free):
        out[fc, k] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            out[pc, k] = -r[row_idx, fc]
    return out


def assert_identical(got, want):
    assert got.shape == want.shape
    assert all(type(x) is Fraction for x in got.flat)
    assert all(x == y for x, y in zip(got.flat, want.flat)), (got, want)


def as_fractions(m):
    return np.array([[Fraction(x) for x in row] for row in m], dtype=object).reshape(m.shape)


# strategies -----------------------------------------------------------------

DENOMINATORS = st.one_of(
    st.integers(1, 12),
    st.sampled_from([2**61 - 1, 3**40, 10**30, 97 * 89 * 83 * 79]),
)
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), DENOMINATORS),
    st.builds(Fraction, st.integers(-(2**90), 2**90), DENOMINATORS),
)


@st.composite
def matrices(draw, entries=RATIONALS, max_dim=6, rows=None, cols=None):
    """Random matrices, often with zero rows/columns and dependent rows."""
    nrows = draw(st.integers(0, max_dim)) if rows is None else rows
    ncols = draw(st.integers(0, max_dim)) if cols is None else cols
    m = np.empty((nrows, ncols), dtype=object)
    for i in range(nrows):
        for j in range(ncols):
            m[i, j] = draw(entries)
    if nrows >= 2 and ncols and draw(st.booleans()):
        # rank deficiency: overwrite a row by a combination of two others
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        s, t = draw(RATIONALS), draw(RATIONALS)
        m[i, :] = [s * x + t * y for x, y in zip(m[j, :], m[k, :])]
    if nrows and draw(st.booleans()):
        m[draw(st.integers(0, nrows - 1)), :] = Fraction(0)
    if ncols and draw(st.booleans()):
        m[:, draw(st.integers(0, ncols - 1))] = Fraction(0)
    return m


INT_MATRICES = matrices(entries=st.integers(-(2**70), 2**70))


@st.composite
def products(draw, entries=RATIONALS):
    inner = draw(st.integers(0, 6))
    return draw(matrices(entries, cols=inner)), draw(matrices(entries, rows=inner))


# properties -----------------------------------------------------------------


@SETTINGS
@given(matrices())
def test_rref_matches_fraction_oracle(m):
    r, pivots = la.rref(m)
    want, want_pivots = oracle_rref(m)
    assert pivots == want_pivots
    assert_identical(r, want)


@SETTINGS
@given(INT_MATRICES)
def test_rref_of_plain_ints_matches_oracle(m):
    r, pivots = la.rref(m)
    want, want_pivots = oracle_rref(as_fractions(m))
    assert pivots == want_pivots
    assert_identical(r, want)


@SETTINGS
@given(products())
def test_mdot_matches_fraction_oracle(ab):
    a, b = ab
    assert_identical(la.mdot(a, b), oracle_mdot(a, b))


@SETTINGS
@given(products(st.integers(-(2**70), 2**70)))
def test_mdot_of_plain_ints_matches_oracle(ab):
    a, b = ab
    assert_identical(la.mdot(a, b), oracle_mdot(as_fractions(a), as_fractions(b)))


@SETTINGS
@given(matrices())
def test_column_echelon_matches_fraction_oracle(m):
    assert_identical(la.column_echelon(m), oracle_column_echelon(m))


@SETTINGS
@given(matrices())
def test_kernel_basis_matches_fraction_oracle(m):
    k = la.kernel_basis(m)
    assert_identical(k, oracle_kernel_basis(m))
    assert la.is_zero_matrix(la.mdot(m, k))


@SETTINGS
@given(st.integers(0, 5).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_inverse_matches_fraction_oracle(m):
    n = m.shape[0]
    r, pivots = oracle_rref(np.hstack([m, la.eye(n)]))
    if pivots != list(range(n)):
        with pytest.raises(SingularMatrix):
            la.inverse(m)
        return
    inv = la.inverse(m)
    assert_identical(inv, r[:, n:])
    assert_identical(la.mdot(m, inv), la.eye(n))


def test_edge_shapes_match_oracle():
    for shape in ((0, 0), (0, 3), (3, 0)):
        m = la.zeros(*shape)
        r, pivots = la.rref(m)
        assert (r.shape, pivots) == (shape, [])
        assert_identical(la.kernel_basis(m), oracle_kernel_basis(m))
        assert_identical(la.column_echelon(m), oracle_column_echelon(m))
    assert_identical(la.mdot(la.zeros(3, 0), la.zeros(0, 2)), la.zeros(3, 2))
    assert_identical(la.mdot(la.zeros(0, 2), la.zeros(2, 3)), la.zeros(0, 3))
