"""Characteristic polynomials and matrix polynomials on integers, against three oracles.

``_linalg.char_poly`` clears its matrix once and runs Faddeev-LeVerrier on
Python ints; ``_linalg.poly_eval_matrix`` runs Horner's rule on the cleared
matrix and coefficients. Each must equal, with ``==``, the Fraction routine it
replaced (``fraction_char_poly``, ``fraction_poly_eval_matrix``), sympy, and a
route that shares nothing with it: the interpolated determinant for
``char_poly``, Cayley-Hamilton for ``poly_eval_matrix``. The matrices are
``hypothesis`` rational matrices (numerators up to 2**90, denominators up to
10**30), the 0 x 0, 1 x 1 and zero matrices, and the A matrices of the seed-1
reference ladder.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import char_poly_by_interpolation, fraction_char_poly, fraction_poly_eval_matrix
from posetsys import _linalg as la
from posetsys.blockmat import BlockMatrix, Partition
from posetsys.errors import StructureViolation
from posetsys.poset import build_poset
from posetsys.reachability import char_poly_factored
from test_global_sets_oracle import LADDER_SYSTEMS, ladder_seed_1  # noqa: F401
from test_linalg_oracle import RATIONALS, assert_identical, matrices

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
SQUARE = st.integers(0, 6).flatmap(lambda k: matrices(rows=k, cols=k))
POLYNOMIALS = st.lists(RATIONALS, max_size=6)
EDGE_MATRICES = {
    "empty": la.zeros(0, 0),
    "one-zero": la.zeros(1, 1),
    "one-int": la.fmat([[-7]]),
    "one-large-denominator": la.fmat([[Fraction(3, 2**61 - 1)]]),
    "zero-3": la.zeros(3, 3),
    "zero-5": la.zeros(5, 5),
}


def _sympy(m):
    n, k = m.shape
    return sympy.Matrix(n, k, [sympy.Rational(x.numerator, x.denominator) for x in m.flat])


def _fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def sympy_char_poly(m):
    return [_fraction(c) for c in reversed(_sympy(m).charpoly().all_coeffs())]


def sympy_poly_eval_matrix(p, m):
    n = m.shape[0]
    power, acc = sympy.eye(n), sympy.zeros(n, n)
    for c in p:
        acc += sympy.Rational(c.numerator, c.denominator) * power
        power = power * _sympy(m)
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        out[i, :] = [_fraction(x) for x in acc.row(i)]
    return out


def assert_char_poly_oracles(m):
    got = la.char_poly(m)
    assert all(type(c) is Fraction for c in got) and got[-1] == 1
    assert got == fraction_char_poly(m)
    assert got == sympy_char_poly(m)
    assert got == char_poly_by_interpolation(m)


def assert_poly_eval_oracles(p, m):
    got = la.poly_eval_matrix(p, m)
    assert_identical(got, fraction_poly_eval_matrix(p, m))
    assert_identical(got, sympy_poly_eval_matrix(p, m))


@SETTINGS
@given(SQUARE)
def test_char_poly_matches_the_oracles(m):
    assert_char_poly_oracles(m)


@pytest.mark.parametrize("m", EDGE_MATRICES.values(), ids=EDGE_MATRICES.keys())
def test_char_poly_edge_matrices_match_the_oracles(m):
    assert_char_poly_oracles(m)
    assert la.char_poly(la.zeros(0, 0)) == [1]


@pytest.mark.parametrize("k", range(sum(LADDER_SYSTEMS.values())))
def test_char_poly_of_the_reference_ladder_matches_the_oracles(ladder_seed_1, k):  # noqa: F811
    assert_char_poly_oracles(ladder_seed_1[k].A.entries)


@SETTINGS
@given(POLYNOMIALS, SQUARE)
def test_poly_eval_matrix_matches_the_oracles(p, m):
    assert_poly_eval_oracles(p, m)


@SETTINGS
@given(SQUARE)
def test_poly_eval_matrix_of_the_char_poly_vanishes(m):
    # Cayley-Hamilton: an independent route to the zero matrix
    assert_identical(la.poly_eval_matrix(la.char_poly(m), m), la.zeros(*m.shape))


@pytest.mark.parametrize("m", EDGE_MATRICES.values(), ids=EDGE_MATRICES.keys())
def test_poly_eval_matrix_edge_matrices_match_the_oracles(m):
    for p in ([], [Fraction(0)], [Fraction(5, 3)], [Fraction(1, 10**30), Fraction(-2), Fraction(1)]):
        assert_poly_eval_oracles(p, m)
    assert_identical(la.poly_eval_matrix(la.char_poly(m), m), la.zeros(*m.shape))


@pytest.mark.parametrize("k", range(sum(LADDER_SYSTEMS.values())))
def test_poly_eval_matrix_on_the_reference_ladder_matches_the_oracles(ladder_seed_1, k):  # noqa: F811
    a = ladder_seed_1[k].A.entries
    n = a.shape[0]
    target = [Fraction(j - 2, j + 1) for j in range(n)] + [Fraction(1)]
    assert_poly_eval_oracles(target, a)
    assert_identical(la.poly_eval_matrix(la.char_poly(a), a), la.zeros(n, n))


def test_char_poly_factored_rejects_a_wrong_block_polynomial(monkeypatch):
    poset = build_poset(2, [(2, 1)])
    part = Partition([2, 1])
    a = BlockMatrix(la.fmat([[1, 2, 3], [4, 5, 6], [0, 0, 7]]), part, part)
    assert char_poly_factored(a, poset).product == la.char_poly(a.entries)
    exact = la.char_poly

    def perturbed(m):
        # block 1's polynomial comes back with its constant term off by one
        coeffs = exact(m)
        return [coeffs[0] + 1, *coeffs[1:]] if m.shape == (2, 2) else coeffs

    monkeypatch.setattr(la, "char_poly", perturbed)
    with pytest.raises(StructureViolation, match="block factorization"):
        char_poly_factored(a, poset)
