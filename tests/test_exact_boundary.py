"""The one boundary between exact matrices and integer ones, in ``_linalg``.

``cleared`` (to one common denominator) and ``cleared_rows`` (row by row;
columns by transposing) are the only routines that turn an exact matrix into
an integer one, and ``exact_over`` the only one that turns an integer result
back into Fractions. Checked here:

* the exact-entry contract at the boundary: a float or bool entry raises
  ``exact_entry``'s TypeError in every routine that clears, and a numpy
  integer is exact;
* ``exact_over`` against the Fraction-forming loops it replaced
  (``conftest.looped_*``), by ``==`` and dtype;
* the dual's integer form, taken from the system's, against a fresh clearing
  of the dual's own matrices;
* ``moments_equal`` on the two systems' integer forms, on hand pairs whose
  six scales (d, e and f of each system) all differ;
* the integer-or-exact dispatch of the kernel and span loops.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    looped_basis,
    looped_krylov,
    looped_mdot,
    looped_solve,
    random_poset,
    random_system,
)
from posetsys import _linalg as la
from posetsys.errors import SingularMatrix
from posetsys.fileio import load_system
from posetsys.reachability import ctrb_matrix
from posetsys.reduction import moments_equal
from posetsys.subspace import Subspace, kernel
from posetsys.system import PosetCausalSystem, dual_system
from test_global_sets_oracle import LADDER_SYSTEMS, ladder_seed_1  # noqa: F401
from test_linalg_oracle import matrices, products
from test_power_loop_oracle import SHIPPED, _stem, old_moments_equal, one_node, power_moments_equal

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
LADDER = range(sum(LADDER_SYSTEMS.values()))
MESSAGE = "cannot use .* as an exact rational entry"


def assert_same(got, want):
    """Equal shape, dtype object, every entry a Fraction and equal to the oracle's."""
    assert got.shape == want.shape and got.dtype == want.dtype == object
    assert all(type(x) is F for x in got.flat)
    assert all(x == y for x, y in zip(got.flat, want.flat)), (got, want)


# the exact-entry contract ---------------------------------------------------

CLEARING = {
    "ctrb_matrix a": lambda m: ctrb_matrix(m, la.eye(2)),
    "ctrb_matrix b": lambda m: ctrb_matrix(la.eye(2), m),
    "rank": la.rank,
    "mdot a": lambda m: la.mdot(m, la.eye(2)),
    "mdot b": lambda m: la.mdot(la.eye(2), m),
    "char_poly": la.char_poly,
    "inverse": la.inverse,
    "kernel": kernel,
    "cleared": la.cleared,
    "cleared_rows": la.cleared_rows,
}
INEXACT = {
    "float array": np.array([[2.0, 1.0], [0.0, 1.0]]),
    "float entry": np.array([[F(2), 0.5], [F(0), F(1)]], dtype=object),
    "numpy float entry": np.array([[F(2), np.float64(1)], [F(0), F(1)]], dtype=object),
    "bool entry": np.array([[F(2), True], [F(0), F(1)]], dtype=object),
    "bool array": np.array([[True, False], [False, True]]),
    "bools only": np.array([[True, False], [False, True]], dtype=object),
}


@pytest.mark.parametrize("routine", CLEARING)
@pytest.mark.parametrize("bad", INEXACT)
def test_inexact_entries_raise_the_exact_entry_error(routine, bad):
    with pytest.raises(TypeError, match=MESSAGE):
        CLEARING[routine](INEXACT[bad])


@pytest.mark.parametrize("routine", CLEARING)
def test_numpy_integers_are_exact(routine):
    exact = la.fmat([[2, 1], [0, 1]])
    want = CLEARING[routine](exact)
    for good in (np.array([[2, 1], [0, 1]]), np.array([[np.int64(2), 1], [0, np.int64(1)]], dtype=object)):
        got = CLEARING[routine](good)
        if isinstance(want, np.ndarray):
            assert_same(got, want)
        elif isinstance(want, Subspace):
            assert got == want
        elif isinstance(want, tuple):  # an integer matrix and its denominators
            assert got[0].tolist() == want[0].tolist() and got[1] == want[1]
            assert all(type(x) is int for x in got[0].flat)
        else:
            assert got == want


def test_a_single_bool_is_no_longer_a_rank_or_a_polynomial():
    with pytest.raises(TypeError, match=MESSAGE):
        la.rank(np.array([[True, False]], dtype=object))
    with pytest.raises(TypeError, match=MESSAGE):
        la.char_poly(np.array([[True]], dtype=object))


def test_integer_matrices_pass_through_and_exact_ones_are_cleared():
    ints = np.array([[4, -2], [0, 6]], dtype=object)
    assert la.cleared(ints) == (ints, 1) and la.cleared(ints)[0] is ints
    assert la.cleared_rows(ints)[0] is ints and la.cleared_rows(ints)[1] == [1, 1]
    exact = la.fmat([[F(1, 2), F(-1, 3)], [0, F(3, 4)]])
    got, d = la.cleared(exact)
    assert (got.tolist(), d) == ([[6, -4], [0, 9]], 12)
    got, dens = la.cleared_rows(exact)
    assert (got.tolist(), dens) == ([[3, -2], [0, 3]], [6, 4])
    for m in (la.zeros(0, 3), la.zeros(3, 0)):
        assert la.cleared(m)[0].shape == la.cleared_rows(m)[0].shape == m.shape


# exact_over against the loops it replaced ----------------------------------

_positive = st.one_of(st.integers(1, 12), st.sampled_from([2**61 - 1, 3**40, 10**30]))


@st.composite
def integer_results(draw):
    """(ints, rows, cols): an integer matrix, often sparse, and a positive scale per row and column."""
    shape = draw(st.tuples(st.integers(0, 5), st.integers(0, 5)))
    entries = st.one_of(st.just(0), st.integers(-(2**80), 2**80))
    ints = np.array(draw(st.lists(entries, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])), dtype=object)
    rows = draw(st.lists(_positive, min_size=shape[0], max_size=shape[0]))
    cols = draw(st.lists(_positive, min_size=shape[1], max_size=shape[1]))
    return ints.reshape(shape), rows, cols


@SETTINGS
@given(integer_results())
def test_exact_over_divides_each_entry_by_its_row_and_column_scale(drawn):
    ints, rows, cols = drawn
    want = np.empty(ints.shape, dtype=object)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            want[i, j] = F(ints[i, j], r * c)
    assert_same(la.exact_over(ints, rows, cols), want)


@SETTINGS
@given(products())
def test_mdot_matches_the_row_loop(ab):
    assert_same(la.mdot(*ab), looped_mdot(*ab))


@SETTINGS
@given(st.data(), st.integers(0, 5), st.integers(0, 3), st.integers(0, 5))
def test_krylov_matches_the_block_loop(data, n, cols, k):
    a, b = data.draw(matrices(rows=n, cols=n)), data.draw(matrices(rows=n, cols=cols))
    assert_same(la.krylov(a, b, k), looped_krylov(a, b, k))


@SETTINGS
@given(st.data(), st.integers(0, 5), st.integers(0, 3))
def test_solve_and_inverse_match_the_row_loop(data, n, cols):
    m, rhs = data.draw(matrices(rows=n, cols=n)), data.draw(matrices(rows=n, cols=cols))
    try:
        want = looped_solve(m, rhs)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            la.solve(m, rhs)
        with pytest.raises(SingularMatrix):
            la.inverse(m)
        return
    assert_same(la.solve(m, rhs), want)
    assert_same(la.inverse(m), looped_solve(m, la.eye(n)))


@SETTINGS
@given(matrices())
def test_basis_matches_the_column_loop(m):
    space = Subspace(m.shape[0], m)
    assert_same(space.basis, looped_basis(space))


# the dual's integer form ----------------------------------------------------


def fresh_form(sys):
    """The integer form a system with the same matrices clears for itself."""
    return PosetCausalSystem._unchecked(sys.poset, sys.n, sys.m, sys.r, sys.A, sys.B, sys.C, sys.D)._integer_form


def assert_form_is_fresh(sys):
    (ints, dens), (want_ints, want_dens) = sys._integer_form, fresh_form(sys)
    for got, want in zip(ints, want_ints):
        assert got.shape == want.shape and got.dtype == object
        assert all(type(x) is int for x in got.flat)
        assert (got == want).all()
    assert dens == want_dens


def assert_dual_shares_the_form(sys):
    dual = dual_system(sys)
    (ia, ib, ic), dens = sys._integer_form
    dual_ints, dual_dens = dual._integer_form
    assert dual_dens == (dens[0], dens[2], dens[1])
    for got, source in zip(dual_ints, (ia, ic, ib)):
        assert not got.flags.writeable and got.base is not None  # a read-only view
        assert got.size == 0 or np.shares_memory(got, source)
    for s in (dual, dual_system(dual)):
        assert_form_is_fresh(s)
    assert all((x == y).all() for x, y in zip(dual_system(dual)._integer_form[0], (ia, ib, ic)))


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_the_dual_of_a_shipped_system_shares_its_form(entry):
    assert_dual_shares_the_form(load_system(entry))


@pytest.mark.parametrize("k", LADDER)
def test_the_dual_of_a_ladder_system_shares_its_form(ladder_seed_1, k):  # noqa: F811
    assert_dual_shares_the_form(ladder_seed_1[k])


@st.composite
def rational_systems(draw):
    """A random system, empty blocks allowed, with each entry of A, B and C over its own denominator."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    sys = random_system(rng, random_poset(rng, rng.randint(1, 4)))
    over = np.vectorize(lambda x: x / rng.choice([1, 2, 3, 5, 12, 2**61 - 1]), otypes=[object])
    a, b, c = (over(m.entries) if m.entries.size else m.entries for m in (sys.A, sys.B, sys.C))
    return PosetCausalSystem(sys.poset, sys.n, sys.m, sys.r, a, b, c, sys.D.entries)


@SETTINGS
@given(rational_systems())
def test_the_dual_of_a_rational_system_shares_its_form(sys):
    assert_dual_shares_the_form(sys)


# moments on the integer forms ------------------------------------------------


def scaled_pair(b_scale=1, c_scale=1):
    """Two realizations of [1/7; 1/3] (1/2)^k [1/5, 1/4] whose six scales all differ.

    The second system's B column 1 is scaled by ``b_scale`` and its C row 0 by
    ``c_scale``: the moments agree exactly when both are 1.
    """
    sys1 = one_node(la.fmat([[F(1, 2)]]), la.fmat([[F(1, 5), F(1, 4)]]), la.fmat([[F(1, 7)], [F(1, 3)]]))
    sys2 = one_node(
        la.fmat([[F(1, 2), 0], [0, F(1, 3)]]),
        la.fmat([[F(1, 10), F(1, 8) * b_scale], [0, 0]]),
        la.fmat([[F(2, 7) * c_scale, F(1, 9) * c_scale], [F(2, 3), F(1, 11)]]),
    )
    return sys1, sys2


def test_the_hand_pair_has_six_different_scales():
    sys1, sys2 = scaled_pair()
    assert sys1._integer_form[1] == (2, [5, 4], [7, 3])
    assert sys2._integer_form[1] == (6, [10, 8], [63, 33])


def test_moments_agree_on_integer_forms_of_different_scales():
    sys1, sys2 = scaled_pair()
    assert moments_equal(sys1, sys2) and moments_equal(sys2, sys1)
    assert old_moments_equal(sys1, sys2) and power_moments_equal(sys1, sys2)


@pytest.mark.parametrize("scales", [(2, 1), (F(5, 3), 1), (1, 3), (1, F(7, 2))])
def test_a_scaled_input_column_or_output_row_changes_the_moments(scales):
    sys1, sys2 = scaled_pair(*scales)
    assert not moments_equal(sys1, sys2) and not moments_equal(sys2, sys1)
    assert not old_moments_equal(sys1, sys2)


# the integer-or-exact dispatch -------------------------------------------------

DISPATCH_CASES = [
    # a, b (its columns spanned), c (its rows' kernel)
    (
        la.fmat([[F(1, 2), 0], [0, F(1, 3)]]),
        la.fmat([[F(1, 5)], [0]]),
        la.fmat([[F(1, 5), 0]]),
    ),
    (
        la.fmat([[F(1, 2), F(1, 3), 0], [0, F(1, 5), 0], [0, F(2, 7), F(-3, 4)]]),
        la.fmat([[0], [0], [F(5, 6)]]),
        la.fmat([[F(1, 6), F(-2, 9), 0], [F(1, 3), F(-4, 9), 0]]),
    ),
]


def _no_second_prime(p):
    raise AssertionError(f"the certificate failed modulo {p}: were the exact rows taken as integers?")


@pytest.mark.parametrize("case", range(len(DISPATCH_CASES)))
def test_exact_and_cleared_inputs_give_the_same_basis(monkeypatch, case):
    # both certificates hold modulo the first prime; an exact matrix taken as
    # integers is reduced modulo p to nonsense and would walk the primes forever
    monkeypatch.setattr(la, "_prime_below", _no_second_prime)
    a, b, c = DISPATCH_CASES[case]
    ia, ib, ic = la.cleared(a)[0], la.cleared_rows(b.T)[0].T, la.cleared_rows(c)[0]
    for routine, exact, ints in (
        (la.invariant_span, (a, b), (ia, ib)),
        (la.invariant_kernel, (a, c), (ia, ic)),
        (la.certified_kernel, (a, c), (ia, ic)),
    ):
        got, want = routine(*exact), routine(*ints)
        assert got.shape == want.shape and 0 < want.shape[1] < a.shape[0], routine.__name__
        assert got.tolist() == want.tolist(), routine.__name__
        assert all(type(x) is int for x in got.flat), routine.__name__
