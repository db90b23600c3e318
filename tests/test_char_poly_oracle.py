"""Characteristic polynomials on integers, against their oracles.

``_linalg.char_poly`` clears its matrix once and ``_linalg.integer_char_poly``
takes the power traces of the integer matrix by baby steps and giant steps,
then Newton's identities. Each must equal, with ``==``, the routine it
replaced (``fraction_char_poly``, the integer Faddeev-LeVerrier recursion
``faddeev_leverrier_char_poly``), sympy, and two routes that share nothing
with it: the interpolated determinant, and Cayley-Hamilton, by which the
polynomial evaluated at its matrix (``looped_poly_eval_matrix``) vanishes.
The matrices are ``hypothesis`` rational and integer matrices, the 0 x 0,
1 x 1 and zero matrices, the shipped systems and their duals, and the A
matrices of the seed-1 reference ladder, each with its diagonal blocks.
``reachability.char_poly_factored``, which multiplies its block polynomials
on ints, must equal the Fraction route it replaced.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    char_poly_by_interpolation,
    faddeev_leverrier_char_poly,
    fraction_char_poly,
    looped_poly_eval_matrix,
)
from posetsys import _linalg as la
from posetsys import corpus
from posetsys.blockmat import BlockMatrix, Partition
from posetsys.errors import StructureViolation
from posetsys.fileio import load_system
from posetsys.poset import build_poset
from posetsys.reachability import char_poly_factored
from posetsys.system import dual_system
from test_global_sets_oracle import LADDER_SYSTEMS, ladder_seed_1  # noqa: F401
from test_linalg_oracle import RATIONALS, assert_identical, matrices
from test_power_loop_oracle import SHIPPED, _stem

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
SQUARE = st.integers(0, 6).flatmap(lambda k: matrices(rows=k, cols=k))
POLYNOMIALS = st.lists(RATIONALS, max_size=6)
INT64 = st.integers(-(2**64), 2**64)
RATIONAL64 = st.builds(Fraction, INT64, st.integers(1, 2**64))


def square_up_to_8(entries):
    """Square object matrices with n = 0..8 drawn from ``entries``."""
    return st.integers(0, 8).flatmap(
        lambda n: st.lists(entries, min_size=n * n, max_size=n * n).map(
            lambda xs: np.array(xs, dtype=object).reshape(n, n)
        )
    )
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


def sympy_integer_char_poly(ints):
    n = ints.shape[0]
    return [int(c) for c in reversed(sympy.Matrix(n, n, ints.flatten().tolist()).charpoly().all_coeffs())]


def fraction_poly_mul(p, q):
    """The Fraction(0)-seeded product loop ``_linalg.poly_mul`` ran before it took ints as ints."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def assert_integer_char_poly_oracles(ints):
    """``integer_char_poly`` of ``ints`` is ints, and equals Faddeev-LeVerrier and sympy."""
    got = la.integer_char_poly(ints)
    assert all(type(c) is int for c in got) and got[-1] == 1
    assert got == faddeev_leverrier_char_poly(ints)
    assert got == sympy_integer_char_poly(ints)


def assert_blockwise_oracles(sys):
    """The integer oracles on the cleared A of ``sys`` and on each of its diagonal blocks."""
    ints = la.cleared(sys.A.entries)[0]
    assert_integer_char_poly_oracles(ints)
    for j in sys.poset.nodes:
        rows = sys.n.block_range(j)
        assert_integer_char_poly_oracles(ints[rows.start : rows.stop, rows.start : rows.stop])


def fraction_char_poly_factored(a, poset):
    """The route ``char_poly_factored`` took before it multiplied on ints: (blocks, product)."""
    blocks = {j: fraction_char_poly(a.block(j, j)) for j in poset.nodes}
    product = [Fraction(1)]
    for j in poset.nodes:
        product = fraction_poly_mul(product, blocks[j])
    return blocks, product


def assert_factored_is_the_fraction_route(a, poset):
    fact = char_poly_factored(a, poset)
    assert (fact.blocks, fact.product) == fraction_char_poly_factored(a, poset)
    assert all(type(c) is Fraction for p in (*fact.blocks.values(), fact.product) for c in p)


def assert_char_poly_oracles(m):
    got = la.char_poly(m)
    assert all(type(c) is Fraction for c in got) and got[-1] == 1
    assert got == fraction_char_poly(m)
    assert got == sympy_char_poly(m)
    assert got == char_poly_by_interpolation(m)


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
@given(square_up_to_8(INT64))
def test_integer_char_poly_of_int_matrices_matches_the_oracles(m):
    assert_integer_char_poly_oracles(m)


@SETTINGS
@given(square_up_to_8(RATIONAL64))
def test_char_poly_of_rational_matrices_matches_the_oracles(m):
    assert_integer_char_poly_oracles(la.cleared(m)[0])
    assert la.char_poly(m) == sympy_char_poly(m)


@pytest.mark.parametrize("k", range(sum(LADDER_SYSTEMS.values())))
def test_integer_char_poly_of_the_reference_ladder_and_its_blocks_matches_the_oracles(
    ladder_seed_1, k  # noqa: F811
):
    assert_blockwise_oracles(ladder_seed_1[k])


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_char_poly_of_the_shipped_systems_and_their_duals_matches_the_oracles(entry):
    sys = load_system(entry)
    for s in (sys, dual_system(sys)):
        assert_blockwise_oracles(s)
        assert la.char_poly(s.A.entries) == sympy_char_poly(s.A.entries)


@SETTINGS
@given(st.lists(INT64, max_size=6), st.lists(INT64, max_size=6))
def test_poly_mul_of_ints_gives_ints(p, q):
    got = la.poly_mul(p, q)
    assert all(type(c) is int for c in got)
    assert got == fraction_poly_mul(p, q)


@SETTINGS
@given(POLYNOMIALS, POLYNOMIALS)
def test_poly_mul_of_fractions_matches_the_fraction_seeded_loop(p, q):
    got = la.poly_mul(p, q)
    assert got == fraction_poly_mul(p, q)
    if p and q:  # an empty operand leaves every coefficient the zero it was seeded with
        assert all(type(c) is Fraction for c in got)


def test_poly_mul_with_an_empty_operand():
    assert la.poly_mul([], [Fraction(1), Fraction(2)]) == [Fraction(0)]
    assert la.poly_mul([Fraction(3)], []) == []
    assert la.poly_mul([], []) == []


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_char_poly_factored_of_the_shipped_systems_is_the_fraction_route(entry):
    sys = load_system(entry)
    assert_factored_is_the_fraction_route(sys.A, sys.poset)


@pytest.mark.parametrize("k", range(sum(LADDER_SYSTEMS.values())))
def test_char_poly_factored_of_the_reference_ladder_is_the_fraction_route(ladder_seed_1, k):  # noqa: F811
    sys = ladder_seed_1[k]
    assert_factored_is_the_fraction_route(sys.A, sys.poset)


def test_char_poly_factored_of_the_demo_closed_loops_is_the_fraction_route(monkeypatch):
    seen = []

    def recording(a, poset):
        seen.append((a, poset))
        return char_poly_factored(a, poset)

    monkeypatch.setattr(corpus, "char_poly_factored", recording)
    assert corpus.run_demo("feedback-obstruction").ok
    assert len(seen) == 20  # zero stays an eigenvalue of every closed loop, so none ends the search
    for a, poset in seen:
        assert_factored_is_the_fraction_route(a, poset)


def assert_cayley_hamilton(m):
    assert_identical(looped_poly_eval_matrix(la.char_poly(m), m), la.zeros(*m.shape))


@SETTINGS
@given(SQUARE)
def test_char_poly_satisfies_cayley_hamilton(m):
    assert_cayley_hamilton(m)


@pytest.mark.parametrize("m", EDGE_MATRICES.values(), ids=EDGE_MATRICES.keys())
def test_char_poly_of_the_edge_matrices_satisfies_cayley_hamilton(m):
    assert_cayley_hamilton(m)


@pytest.mark.parametrize("k", range(sum(LADDER_SYSTEMS.values())))
def test_char_poly_of_the_reference_ladder_satisfies_cayley_hamilton(ladder_seed_1, k):  # noqa: F811
    assert_cayley_hamilton(ladder_seed_1[k].A.entries)


def _factored_with_one_side_perturbed(monkeypatch, shape):
    """char_poly_factored of a 2 + 1 block triangle, with ``integer_char_poly`` off by one at ``shape``."""
    poset = build_poset(2, [(2, 1)])
    part = Partition([2, 1])
    a = BlockMatrix(la.fmat([[1, 2, 3], [4, 5, 6], [0, 0, 7]]), part, part)
    assert char_poly_factored(a, poset).product == la.char_poly(a.entries)
    exact = la.integer_char_poly

    def perturbed(ints):
        # the polynomial of a ``shape`` matrix comes back with its constant term off by one
        coeffs = exact(ints)
        return [coeffs[0] + 1, *coeffs[1:]] if ints.shape == shape else coeffs

    monkeypatch.setattr(la, "integer_char_poly", perturbed)
    with pytest.raises(StructureViolation, match="block factorization"):
        char_poly_factored(a, poset)


def test_char_poly_factored_rejects_a_wrong_block_polynomial(monkeypatch):
    _factored_with_one_side_perturbed(monkeypatch, (2, 2))


def test_char_poly_factored_rejects_a_wrong_whole_matrix_polynomial(monkeypatch):
    _factored_with_one_side_perturbed(monkeypatch, (3, 3))
