"""The power loops against the routes that replaced them.

``old_krylov`` is the loop ``ctrb_matrix`` ran before ``_linalg.krylov``: one
exact ``mdot`` per power, each clearing ``a`` again; the new loop must give
identical Fraction matrices. ``old_moments_equal`` is the per-power moment
check and ``power_moments_equal`` the one-product ``krylov`` check that
``moments_equal`` ran before it tested the joint reachable subspace through
``_linalg.invariant_span``. Every verdict must agree, on the shipped systems,
on the reference ladder's reductions and on random systems with non-integer
entries.
"""

import importlib
from fractions import Fraction
from importlib import resources
from pathlib import Path

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
BENCH = Path(__file__).resolve().parents[1] / "bench"
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


def power_moments_equal(sys1, sys2):
    blocks = max(sys1.state_dim + sys2.state_dim - 1, 0) + 1
    lhs, rhs = (
        la.mdot(s.C.entries, la.krylov(s.A.entries, s.B.entries, blocks)) for s in (sys1, sys2)
    )
    return all(x == y for x, y in zip(lhs.flat, rhs.flat))


def one_node(a, b, c, d=None):
    """(a, b, c, d) as a system over the one-element order."""
    n, m, r = a.shape[0], b.shape[1], c.shape[0]
    d = la.zeros(r, m) if d is None else d
    return PosetCausalSystem(build_poset(1, []), (n,), (m,), (r,), a, b, c, d)


@st.composite
def systems(draw, n=None, m=None, r=None, max_n=4):
    n = draw(st.integers(0, max_n)) if n is None else n
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
        verdict = moments_equal(sys, reduced)
        assert verdict is power_moments_equal(sys, reduced) is old_moments_equal(sys, reduced)
        assert verdict is True


def _similar(data, a, b, c):
    """T^-1 A T, T^-1 B, C T for T = I + a strictly upper triangular part: the same moments."""
    n = a.shape[0]
    t = la.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            t[i, j] = data.draw(RATIONALS)
    inv = la.inverse(t)
    return la.mdot(inv, la.mdot(a, t)), la.mdot(inv, b), la.mdot(c, t)


def _companion(p, q):
    """A controllable-form realization (A, b, c) of the strictly proper p(z) / q(z), q monic.

    Coefficients are listed low degree first.
    """
    n = len(q) - 1
    a = la.zeros(n, n)
    for i in range(n - 1):
        a[i, i + 1] = Fraction(1)
    for j in range(n):
        a[n - 1, j] = -q[j]
    b, c = la.zeros(n, 1), la.zeros(1, n)
    if n:
        b[n - 1, 0] = Fraction(1)
    for j, x in enumerate(p):
        c[0, j] = x
    return a, b, c


def _last_moment_pair(data, n1, n2):
    """Two systems whose moments agree for k < n1 + n2 - 1 and differ at k = n1 + n2 - 1.

    G1 = p1 / z^n1 and G2 = p2 / q2 with p1 q2 - p2 z^n1 = 1 (q2(0) != 0 makes
    the denominators coprime), so G1 - G2 = 1 / (z^n1 q2) = z^-(n1 + n2) + ...
    Each realization is then made dense by a similarity, and a second input
    and output repeat the first ones scaled.
    """
    q2 = [data.draw(RATIONALS.filter(bool))]
    q2 += [data.draw(RATIONALS) for _ in range(n2 - 1)] + [Fraction(1)]
    p1 = []  # 1 / q2 as a power series, to n1 terms
    for k in range(n1):
        acc = sum((p1[i] * q2[k - i] for i in range(max(0, k - n2), k)), Fraction(0))
        p1.append(((1 if k == 0 else 0) - acc) / q2[0])
    prod = [Fraction(-1)] + [Fraction(0)] * (n1 + n2 - 1)  # p1 q2 - 1
    for i, x in enumerate(p1):
        for j, y in enumerate(q2):
            prod[i + j] += x * y
    assert all(x == 0 for x in prod[:n1]), prod
    p2 = prod[n1:]
    pair = []
    m, r = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    s_in, s_out = data.draw(RATIONALS), data.draw(RATIONALS)
    for p, q in ((p1, [Fraction(0)] * n1 + [Fraction(1)]), (p2, q2)):
        a, b, c = _similar(data, *_companion(p, q))
        b = np.hstack([b, b * s_in][:m])
        c = np.vstack([c, c * s_out][:r])
        pair.append(one_node(a, b, c))
    return pair


@SETTINGS
@given(st.data())
def test_moments_equal_keeps_the_old_verdict(data):
    sys1 = data.draw(systems(max_n=6))
    m, r = sys1.input_dim, sys1.output_dim
    n = sys1.state_dim
    kind = data.draw(st.sampled_from(["similar", "perturbed", "independent", "last"]))
    if kind == "similar":
        sys2 = one_node(*_similar(data, sys1.A.entries, sys1.B.entries, sys1.C.entries))
    elif kind == "perturbed" and n:
        a = sys1.A.entries.copy()
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        a[i, j] += data.draw(st.sampled_from([Fraction(1), Fraction(-1, 3), Fraction(1, 10**20)]))
        sys2 = one_node(a, sys1.B.entries, sys1.C.entries)
    elif kind == "last":
        n1, n2 = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
        sys1, sys2 = _last_moment_pair(data, n1, n2)
        if data.draw(st.booleans()):
            sys1, sys2 = sys2, sys1
    else:
        sys2 = data.draw(systems(m=m, r=r, max_n=6))
    verdict = moments_equal(sys1, sys2)
    assert verdict is power_moments_equal(sys1, sys2) is old_moments_equal(sys1, sys2)
    if kind == "similar":
        assert verdict is True
    if kind == "last":
        # every moment before the last one the horizon covers agrees
        last = sys1.state_dim + sys2.state_dim - 1
        lhs, rhs = (
            la.mdot(s.C.entries, la.krylov(s.A.entries, s.B.entries, last)) for s in (sys1, sys2)
        )
        assert np.array_equal(lhs, rhs)
        assert verdict is False


@pytest.fixture(scope="module")
def ladder_n9():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        ladder = importlib.import_module("ladder")
    drawn = ladder.generate(ladder.REFERENCE_SEED, 10)
    return [drawn[("n9", k)] for k in range(10)]


@pytest.mark.parametrize("k", range(10))
def test_reference_ladder_reductions_keep_the_power_verdict(ladder_n9, k):
    sys = ladder_n9[k]
    assert sys.state_dim == 9
    for variant in REDUCTION_VARIANTS:
        reduced = poset_reduce(sys, variant).system
        assert moments_equal(sys, reduced) is power_moments_equal(sys, reduced) is True
        a = reduced.A.entries.copy()
        a[-1, -1] += 1
        bumped = one_node(a, reduced.B.entries, reduced.C.entries)
        assert moments_equal(sys, bumped) is power_moments_equal(sys, bumped)


def assert_span_of_ctrb(a, b):
    """``invariant_span(a, b)`` is the canonical integer basis of im ctrb_matrix(a, b)."""
    got = la.invariant_span(a, b)
    want = la.column_echelon(la.cleared_rows(ctrb_matrix(a, b).T).T)
    assert got.shape == want.shape and all(type(x) is int for x in got.flat)
    assert got.tolist() == want.tolist()
    return got


@SETTINGS
@given(st.data())
def test_invariant_span_is_the_span_of_the_controllability_matrix(data):
    n = data.draw(st.integers(0, 6))
    a = data.draw(matrices(rows=n, cols=n))
    b = data.draw(matrices(rows=n, cols=data.draw(st.integers(0, 3))))
    assert_span_of_ctrb(a, b)


def test_invariant_span_clears_the_map_to_one_denominator():
    # the span of (1, 1) is invariant under a; row by row, a would clear to
    # [[1, 1], [0, 1]], which maps (1, 1) to (2, 1) and spans the plane
    a = la.fmat([[Fraction(1, 2), Fraction(1, 2)], [0, 1]])
    b = la.fmat([[1], [1]])
    span = assert_span_of_ctrb(a, b)
    assert span.tolist() == [[1], [1]]
    assert la.column_echelon(la.cleared_rows(a).dot(span)).tolist() == [[2], [1]]


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
