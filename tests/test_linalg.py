from fractions import Fraction as F

import numpy as np
import pytest

from posetsys import _linalg as la
from posetsys.errors import SingularMatrix


def test_rref_identity():
    r, pivots = la.rref(la.eye(3))
    assert pivots == [0, 1, 2]
    assert np.array_equal(r, la.eye(3))


def test_rref_rank_deficient():
    m = la.fmat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = la.rref(m)
    assert pivots == [0, 1]
    assert la.rank(m) == 2


def test_kernel_basis_annihilates():
    m = la.fmat([[1, 2, 3], [4, 5, 6]])
    k = la.kernel_basis(m)
    assert k.shape == (3, 1)
    assert la.is_zero_matrix(la.mdot(m, k))


def test_kernel_of_zero_matrix_is_everything():
    k = la.kernel_basis(la.zeros(2, 3))
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
    assert la.det(la.fmat([[2, 5], [0, 3]])) == 6
    assert la.det(la.fmat([[0, 1], [1, 0]])) == -1
    assert la.det(la.zeros(0, 0)) == 1


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
    m = la.fmat([[1, 1], [0, 1]])
    res = la.poly_eval_matrix([F(-1), F(0), F(1)], m)  # m^2 - I
    assert np.array_equal(res, la.fmat([[0, 2], [0, 0]]))


def test_mdot_empty_operands():
    out = la.mdot(la.zeros(2, 0), la.zeros(0, 3))
    assert out.shape == (2, 3)
    assert la.is_zero_matrix(out)


def test_fmat_refuses_text_entries():
    # text goes through fileio.parse_rational, which bounds decimal exponents
    for text in ("1/2", "1e1000000000"):
        with pytest.raises(TypeError):
            la.fmat([[text]])
