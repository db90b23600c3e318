"""The row-incremental ``rref`` against the column-wise Gauss-Jordan it replaced.

``_linalg.rref`` takes the rows one at a time, reduces each against the pivot
rows found so far and stops reading once the rank is the number of columns.
``gauss_jordan_rref`` (``conftest``) is the elimination it replaced. The
reduced form is unique for the row space, so both must return identical
``(R, pivots)`` on every input: on tall random matrices with large entries,
full rank or not, and on every matrix one ``analyze`` eliminates, of each
shipped system and of the reference ladder's n9 system. R must not depend on
the order of the rows, and no row after the one that makes the rank full may
be read at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gauss_jordan_rref
from posetsys import _linalg as la
from posetsys import report
from posetsys.fileio import load_system
from test_global_sets_oracle import ladder_seed_1  # noqa: F401
from test_power_loop_oracle import SHIPPED, _stem

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)
BIG = 2**70


def int_matrix(rows, ncols):
    out = np.zeros((len(rows), ncols), dtype=object)
    for i, row in enumerate(rows):
        out[i, :] = row
    return out


@st.composite
def tall_matrices(draw):
    """Up to 4 rows per column, entries up to 2**70, at any rank.

    A dense draw is almost surely of full rank well before its last row; a
    product of two thinner factors has lower rank; zeros scattered in either
    move the pivots around.
    """
    ncols = draw(st.integers(0, 6))
    nrows = draw(st.integers(0, 4 * ncols + 1))
    sparse = draw(st.booleans())

    def entries(bound):
        value = st.integers(-bound, bound)
        return st.one_of(st.just(0), value) if sparse else value

    if draw(st.booleans()):
        flat = draw(st.lists(entries(BIG), min_size=nrows * ncols, max_size=nrows * ncols))
        return np.array(flat, dtype=object).reshape(nrows, ncols)
    rank = draw(st.integers(0, max(ncols - 1, 0)))
    left = draw(st.lists(st.lists(entries(2**34), min_size=rank, max_size=rank), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entries(2**34), min_size=ncols, max_size=ncols), min_size=rank, max_size=rank))
    return int_matrix(left, rank).dot(int_matrix(right, ncols)) if rank else np.zeros((nrows, ncols), dtype=object)


def assert_same_as_gauss_jordan(m):
    got, pivots = la.rref(m)
    want, want_pivots = gauss_jordan_rref(m)
    assert pivots == want_pivots
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()
    assert all(type(x) is int for x in got.flat)


@SETTINGS
@given(tall_matrices())
def test_tall_matrices_match_gauss_jordan(m):
    assert_same_as_gauss_jordan(m)


@SETTINGS
@given(tall_matrices(), st.randoms(use_true_random=False))
def test_the_form_does_not_depend_on_the_row_order(m, rnd):
    order = list(range(m.shape[0]))
    rnd.shuffle(order)
    got, pivots = la.rref(m[order, :])
    want, want_pivots = la.rref(m)
    assert pivots == want_pivots
    assert got.tolist() == want.tolist()


def captured_inputs(system):
    """Every matrix ``rref`` is given during one ``analyze`` of ``system``."""
    seen = []
    real = la.rref

    def spy(m):
        seen.append(m.copy())
        return real(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "rref", spy)
        report.analyze(system)
    return seen


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_every_input_of_a_shipped_analysis_matches_gauss_jordan(entry):
    inputs = captured_inputs(load_system(entry))
    assert inputs
    for m in inputs:
        assert_same_as_gauss_jordan(m)


def test_every_input_of_the_reference_n9_analysis_matches_gauss_jordan(ladder_seed_1):  # noqa: F811
    inputs = captured_inputs(ladder_seed_1[0])
    assert any(m.shape[0] > m.shape[1] for m in inputs)
    for m in inputs:
        assert_same_as_gauss_jordan(m)


class Unreadable:
    """An entry that refuses to be tested, compared or computed with."""

    def _refuse(self, *args):
        raise AssertionError("rref read a row after the rank was full")

    __bool__ = __index__ = __int__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __floordiv__ = __rfloordiv__ = __neg__ = __abs__ = _refuse
    __hash__ = object.__hash__


@st.composite
def full_rank_prefixes(draw):
    """Rows that reach full rank exactly at their last row, with dependent rows mixed in.

    Returns (rows, ncols). The independent rows are those of a unit lower
    triangular matrix times random integers; each dependent row is a
    combination of the independent rows before it.
    """
    ncols = draw(st.integers(1, 6))
    coeff = st.integers(-(2**20), 2**20)
    basis = []
    for i in range(ncols):
        row = [draw(coeff) for _ in range(i)] + [1] + [0] * (ncols - i - 1)
        basis.append(row)
    perm = draw(st.permutations(range(ncols)))
    basis = [[row[j] for j in perm] for row in basis]  # the pivots land anywhere
    rows = []
    for i, row in enumerate(basis):
        for _ in range(draw(st.integers(0, 2))):
            weights = [draw(coeff) for _ in range(i)]
            rows.append([sum(w * b[j] for w, b in zip(weights, basis)) for j in range(ncols)])
        rows.append(row)
    return rows, ncols


@SETTINGS
@given(full_rank_prefixes(), st.integers(1, 4))
def test_no_row_is_read_after_the_rank_is_full(prefix, extra):
    rows, ncols = prefix
    m = int_matrix(rows + [[Unreadable() for _ in range(ncols)] for _ in range(extra)], ncols)
    got, pivots = la.rref(m)
    assert pivots == list(range(ncols))
    assert got.tolist() == np.identity(ncols, dtype=object).tolist() + [[0] * ncols] * (len(rows) + extra - ncols)


@SETTINGS
@given(full_rank_prefixes())
def test_a_row_short_of_full_rank_is_not_the_identity(prefix):
    # without the row that completes the rank, every row must be read and the rank stays short
    rows, ncols = prefix
    m = int_matrix(rows[:-1] + rows[:-1], ncols)
    got, pivots = la.rref(m)
    assert len(pivots) == ncols - 1
    assert_same_as_gauss_jordan(m)


def test_an_empty_or_zero_matrix_has_no_pivots():
    for shape in ((0, 0), (0, 3), (3, 0), (4, 2)):
        m = np.zeros(shape, dtype=object)
        got, pivots = la.rref(m)
        assert pivots == [] and got.shape == shape and not got.any()

