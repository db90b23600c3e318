from fractions import Fraction as F

import numpy as np
import pytest

from conftest import det
from posetsys import _linalg as la
from posetsys.errors import SingularMatrix


def test_rref_identity():
    r, pivots = la.rref(la.cleared_rows(la.eye(3))[0])
    assert pivots == [0, 1, 2]
    assert np.array_equal(r, la.eye(3))


def test_rref_rank_deficient():
    m = la.fmat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = la.rref(la.cleared_rows(m)[0])
    assert pivots == [0, 1]
    assert la.rank(m) == 2


def test_kernel_basis_annihilates():
    m = la.fmat([[1, 2, 3], [4, 5, 6]])
    k = la.kernel_basis(la.cleared_rows(m)[0])
    assert k.shape == (3, 1)
    assert la.is_zero_matrix(la.mdot(m, k))


def test_eliminations_run_on_ints_in_primitive_form():
    # rows and columns are primitive with a positive pivot; nothing is a Fraction
    m = la.cleared_rows(la.fmat([[F(-1, 2), -1, 0], [0, 2, 6]]))[0]
    assert m.tolist() == [[-1, -2, 0], [0, 2, 6]]
    r, pivots = la.rref(m)
    assert pivots == [0, 1] and r.tolist() == [[1, 0, -6], [0, 1, 3]]
    assert la.column_echelon(m).tolist() == [[1, 0], [0, 1]]
    assert la.kernel_basis(m).tolist() == [[6], [-3], [1]]
    r, pivots = la.rref(la.cleared_rows(la.fmat([[-2, 4, 6], [F(1, 3), 0, F(-1, 6)]]))[0])
    assert pivots == [0, 1] and r.tolist() == [[2, 0, -1], [0, 4, 5]]
    assert la.kernel_basis(r).tolist() == [[2], [-5], [4]]
    assert la.column_echelon(np.array([[0, 0], [-4, 6]], dtype=object)).tolist() == [[0], [1]]


def test_kernel_of_zero_matrix_is_everything():
    k = la.kernel_basis(la.cleared_rows(la.zeros(2, 3))[0])
    assert k.shape == (3, 3)


def test_inverse_exact():
    m = la.fmat([[2, 1], [7, 4]])
    inv = la.inverse(m)
    assert np.array_equal(la.mdot(m, inv), la.eye(2))
    assert inv[0, 0] == F(4)


def test_inverse_singular():
    with pytest.raises(SingularMatrix):
        la.inverse(la.fmat([[1, 2], [2, 4]]))


def test_det_triangular_and_swap():
    assert det(la.fmat([[2, 5], [0, 3]])) == 6
    assert det(la.fmat([[0, 1], [1, 0]])) == -1
    assert det(la.zeros(0, 0)) == 1


from conftest import char_poly_by_interpolation as _char_poly_by_interpolation


def test_char_poly_against_interpolated_determinant(rng):
    for _ in range(10):
        n = rng.randint(1, 5)
        m = la.fmat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert la.char_poly(m) == _char_poly_by_interpolation(m)


def test_char_poly_companion():
    # companion matrix of x^3 - 2x + 5
    m = la.fmat([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert la.char_poly(m) == [F(5), F(-2), F(0), F(1)]


def test_poly_helpers():
    assert la.poly_mul([F(1), F(1)], [F(-1), F(1)]) == [F(-1), F(0), F(1)]
    assert la.poly_eval([F(2), F(0), F(1)], F(3)) == 11


def test_mdot_empty_operands():
    out = la.mdot(la.zeros(2, 0), la.zeros(0, 3))
    assert out.shape == (2, 3)
    assert la.is_zero_matrix(out)


def test_exact_entries_are_fractions_ints_and_numpy_integers():
    assert "exact_entry" not in la.__all__ and "exact_matrix" not in la.__all__
    for good, value in ((F(1, 2), F(1, 2)), (3, 3), (np.int64(-4), -4), (np.uint8(5), 5)):
        entry = la.exact_entry(good)
        assert type(entry) is F and entry == value
    for bad in (True, np.bool_(False), 0.5, np.float64(1.0), 1j, "1", None):
        with pytest.raises(TypeError, match="exact rational"):
            la.exact_entry(bad)
    with pytest.raises(TypeError, match="exact rational"):
        la.fmat([[1, False]])


def test_object_arrays_pass_through_untouched():
    m = la.fmat([[1, 2]])
    assert la.fmat(m) is m and la.exact_matrix(m) is m
    assert la.fvec(la.fvec([1, 2])).shape == (2, 1)
    ints = la.fmat(np.array([[1, 2]]))
    assert ints.dtype == object and all(type(x) is F for x in ints.flat)
    held = la.fmat(np.array([[1, np.int64(2)]], dtype=object))
    assert held.dtype == object and all(type(x) is F for x in held.flat)
    for bad in (0.5, True):
        with pytest.raises(TypeError, match="exact rational"):
            la.fmat(np.array([[1, bad]], dtype=object))
        with pytest.raises(TypeError, match="exact rational"):
            la.fvec(np.array([1, bad], dtype=object))


def test_fmat_refuses_text_entries():
    # text goes through fileio.parse_rational, which bounds decimal exponents
    for text in ("1/2", "1e1000000000"):
        with pytest.raises(TypeError):
            la.fmat([[text]])


def _scanned_is_integer(m) -> bool:
    """``_linalg._is_integer`` as the generator it replaced: every entry's type, one at a time."""
    return m.dtype == object and all(type(x) is int for x in m.flat)


def test_is_integer_gives_the_entry_scans_verdict():
    def obj(entries, shape):
        out = np.empty(shape, dtype=object)
        out.flat[:] = entries
        return out

    integer = [
        obj([1, -2, 3, 0], (2, 2)),
        obj([1 << 200, 0], (1, 2)),
        np.empty((0, 0), dtype=object),
        np.empty((0, 3), dtype=object),
        np.empty((2, 0), dtype=object),
    ]
    other = [
        obj([1, True], (1, 2)),
        obj([False], (1, 1)),
        obj([np.int64(1), 2], (2, 1)),
        obj([3, np.uint8(4)], (1, 2)),
        obj([F(1), 2], (1, 2)),
        obj([F(1, 2)], (1, 1)),
        obj([1, 0.5], (1, 2)),
        obj([np.float64(1.0)], (1, 1)),
        obj([None, 1], (1, 2)),
        np.array([[1, 2]]),
        np.array([[True]]),
        np.array([[0.5]]),
        np.empty((0, 0)),
        la.fmat([[1, 2]]),
    ]
    assert [la._is_integer(m) for m in integer + other] == [_scanned_is_integer(m) for m in integer + other]
    assert all(map(la._is_integer, integer)) and not any(map(la._is_integer, other))
