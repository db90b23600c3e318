"""The span chain of ``_linalg.invariant_span`` against the two routes it replaced.

``invariant_span`` grows the smallest A-invariant subspace containing im B
by a span chain: a forward-reduced echelon that multiplies by A only the
vectors its last step added, canonicalized once. It must equal, by ``==``,
both the saturation it replaced (``conftest.eliminated_invariant_span``:
V <- column_echelon([V, Ia V]) until the dimension stops growing) and the
canonical basis of the Krylov matrix, column_echelon(ctrb_matrix(a, b)).
The pairs are the shipped systems and their duals, the seed-1 ladder
systems and their duals (exact and as their integer forms), the joint
(A, B) that ``moments_equal`` forms for each of the three reductions of
every shipped system, and hypothesis pairs with rational entries, zero
columns and n = 0.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import eliminated_invariant_span
from posetsys import _linalg as la
from posetsys.fileio import load_system
from posetsys.reachability import ctrb_matrix
from posetsys.reduction import REDUCTION_VARIANTS, moments_equal, poset_reduce
from posetsys.system import dual_system
from test_global_sets_oracle import LADDER_SYSTEMS, ladder_seed_1  # noqa: F401
from test_power_loop_oracle import SHIPPED, _stem

RULES = settings(max_examples=200, deadline=None, derandomize=True)


def krylov_echelon(a, b):
    """The canonical basis of the column space of the Krylov matrix [b, ab, ..., a^(n-1) b]."""
    return la.column_echelon(la.cleared_rows(ctrb_matrix(a, b).T)[0].T)


def assert_chain_matches(a, b):
    got = la.invariant_span(a, b)
    for want in (eliminated_invariant_span(a, b), krylov_echelon(a, b)):
        assert got.shape == want.shape and got.tolist() == want.tolist()


def assert_pairs_of(sys):
    """The chain on ``sys`` and its dual, from their exact matrices and from their integer forms."""
    for s in (sys, dual_system(sys)):
        assert_chain_matches(s.A.entries, s.B.entries)
        ia, ib, _ = s._integer_form[0]
        assert_chain_matches(ia, ib)


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_shipped_systems_and_their_duals(entry):
    assert_pairs_of(load_system(entry))


@pytest.mark.parametrize("k", range(sum(LADDER_SYSTEMS.values())))
def test_seed_1_ladder_systems_and_their_duals(ladder_seed_1, k):  # noqa: F811
    assert_pairs_of(ladder_seed_1[k])


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_the_joint_pairs_of_every_moment_check(entry, monkeypatch):
    sys = load_system(entry)
    reduced = [poset_reduce(sys, variant).system for variant in REDUCTION_VARIANTS]
    original, pairs = la.invariant_span, []

    def recorded(a, b):
        pairs.append((a, b))
        return original(a, b)

    monkeypatch.setattr(la, "invariant_span", recorded)
    assert all(moments_equal(sys, red) for red in reduced)
    monkeypatch.undo()
    assert len(pairs) == len(REDUCTION_VARIANTS)
    for a, b in pairs:
        assert_chain_matches(a, b)


_entries = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def _pair(draw):
    """An n x n matrix a and an n x k matrix b, n from 0 to 6, k from 0 to 4; some columns of b are zero.

    Zeros in the last n - r rows of b and in the block of a below row r and
    left of column r keep the span inside the first r coordinates, so it is
    often proper and the chain canonicalizes it.
    """
    n, k = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    entries = draw(st.lists(_entries, min_size=n * (n + k), max_size=n * (n + k)))
    ab = np.array(entries, dtype=object).reshape(n, n + k)
    r = draw(st.integers(0, n))
    ab[r:, :r] = ab[r:, n:] = Fraction(0)
    a, b = ab[:, :n], ab[:, n:]
    for j in draw(st.sets(st.integers(0, k - 1))) if k else ():
        b[:, j] = Fraction(0)
    return a, b


@RULES
@given(_pair())
@example((la.zeros(0, 0), la.zeros(0, 0)))
@example((la.zeros(0, 0), la.zeros(0, 3)))
@example((la.eye(4), la.zeros(4, 0)))
def test_random_rational_pairs(case):
    assert_chain_matches(*case)
