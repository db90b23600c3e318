"""The one power loop, ``_linalg.krylov``, against the ``mdot`` loops it replaced.

``old_krylov`` is the loop ``ctrb_matrix`` ran before: one exact ``mdot`` per
power, each clearing ``a`` again. ``old_moments_equal`` is the per-power
moment check ``moments_equal`` ran before. The new loop must give identical
Fraction matrices and the same verdicts, on the shipped systems and on random
systems with non-integer entries.
"""

from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetsys import _linalg as la
from posetsys.fileio import load_system
from posetsys.poset import build_poset
from posetsys.reachability import ctrb_matrix
from posetsys.reduction import REDUCTION_VARIANTS, moments_equal, poset_reduce
from posetsys.system import PosetCausalSystem, dual_system
from test_linalg_oracle import RATIONALS, assert_identical, matrices

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
SHIPPED = sorted(
    (entry for entry in resources.files("posetsys.data").iterdir() if entry.name.endswith(".json")),
    key=lambda entry: entry.name,
)


def old_krylov(a, b, k):
    blocks = []
    cur = b
    for j in range(k):
        if j:
            cur = la.mdot(a, cur)
        blocks.append(cur)
    return np.hstack(blocks) if blocks else la.zeros(a.shape[0], 0)


def old_ctrb_matrix(a, b):
    n = a.shape[0]
    return old_krylov(a, b, n) if n else la.zeros(0, 0)


def old_moments_equal(sys1, sys2):
    b1, b2 = sys1.B.entries, sys2.B.entries
    for _ in range(max(sys1.state_dim + sys2.state_dim - 1, 0) + 1):
        lhs = la.mdot(sys1.C.entries, b1)
        rhs = la.mdot(sys2.C.entries, b2)
        if not all(x == y for x, y in zip(lhs.flat, rhs.flat)):
            return False
        b1 = la.mdot(sys1.A.entries, b1)
        b2 = la.mdot(sys2.A.entries, b2)
    return True


def one_node(a, b, c, d=None):
    """(a, b, c, d) as a system over the one-element order."""
    n, m, r = a.shape[0], b.shape[1], c.shape[0]
    d = la.zeros(r, m) if d is None else d
    return PosetCausalSystem(build_poset(1, []), (n,), (m,), (r,), a, b, c, d)


@st.composite
def systems(draw, n=None, m=None, r=None):
    n = draw(st.integers(0, 4)) if n is None else n
    m = draw(st.integers(1, 2)) if m is None else m
    r = draw(st.integers(1, 2)) if r is None else r
    return one_node(
        draw(matrices(rows=n, cols=n)), draw(matrices(rows=n, cols=m)), draw(matrices(rows=r, cols=n))
    )


def _stem(entry):
    return entry.name.removesuffix(".json")


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_shipped_systems_match_the_old_loop(entry):
    sys = load_system(entry)
    for s in (sys, dual_system(sys)):
        a, b = s.A.entries, s.B.entries
        assert_identical(ctrb_matrix(a, b), old_ctrb_matrix(a, b))
        for k in range(s.state_dim + 2):
            assert_identical(la.krylov(a, b, k), old_krylov(a, b, k))


@SETTINGS
@given(systems(), st.integers(0, 6))
def test_krylov_and_ctrb_match_the_old_loop(sys, k):
    a, b, c = sys.A.entries, sys.B.entries, sys.C.entries
    assert_identical(la.krylov(a, b, k), old_krylov(a, b, k))
    assert_identical(ctrb_matrix(a, b), old_ctrb_matrix(a, b))
    assert_identical(ctrb_matrix(a.T, c.T), old_ctrb_matrix(a.T, c.T))


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_shipped_reductions_keep_the_old_moment_verdict(entry):
    sys = load_system(entry)
    for variant in REDUCTION_VARIANTS:
        reduced = poset_reduce(sys, variant).system
        assert moments_equal(sys, reduced) is old_moments_equal(sys, reduced) is True


@SETTINGS
@given(st.data())
def test_moments_equal_keeps_the_old_verdict(data):
    sys1 = data.draw(systems())
    m, r = sys1.input_dim, sys1.output_dim
    n = sys1.state_dim
    kind = data.draw(st.sampled_from(["similar", "perturbed", "independent"]))
    if kind == "similar":
        # T = I + strictly upper triangular part is invertible; T^-1 A T has the same moments
        t = la.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                t[i, j] = data.draw(RATIONALS)
        inv = la.inverse(t)
        a, b, c = sys1.A.entries, sys1.B.entries, sys1.C.entries
        sys2 = one_node(la.mdot(inv, la.mdot(a, t)), la.mdot(inv, b), la.mdot(c, t))
    elif kind == "perturbed" and n:
        a = sys1.A.entries.copy()
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        a[i, j] += data.draw(st.sampled_from([Fraction(1), Fraction(-1, 3), Fraction(1, 10**20)]))
        sys2 = one_node(a, sys1.B.entries, sys1.C.entries)
    else:
        sys2 = data.draw(systems(m=m, r=r))
    verdict = moments_equal(sys1, sys2)
    assert verdict is old_moments_equal(sys1, sys2)
    if kind == "similar":
        assert verdict is True


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_a_difference_at_the_last_moment_is_caught(n):
    # shift chain: C A^k B is 1 at k = n - 1 and 0 otherwise; against a
    # zero-state system the horizon n + 0 - 1 is exactly that k
    a = la.zeros(n, n)
    for i in range(n - 1):
        a[i + 1, i] = Fraction(1)
    b, c = la.zeros(n, 1), la.zeros(1, n)
    b[0, 0] = c[0, n - 1] = Fraction(1)
    chain = one_node(a, b, c)
    silent = one_node(la.zeros(0, 0), la.zeros(0, 1), la.zeros(1, 0))
    before_last = la.mdot(c, la.krylov(a, b, n - 1))
    assert la.is_zero_matrix(before_last)
    assert la.mdot(c, la.krylov(a, b, n))[0, n - 1] == 1
    assert moments_equal(chain, silent) is False
    assert moments_equal(silent, chain) is False
    assert old_moments_equal(chain, silent) is False
