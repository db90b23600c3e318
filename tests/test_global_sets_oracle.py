"""The global reachable and unobservable sets against the Krylov matrices they replaced.

``reachable`` saturates the smallest A-invariant subspace containing im B
(``_linalg.invariant_span``) and ``unobservable`` shrinks to the largest
A-invariant subspace inside ker C (``_linalg.invariant_kernel``). Each must
equal, as a canonical ``Subspace``, the image of ``ctrb_matrix(A, B)`` or the
kernel of ``obsv_matrix(C, A)``: on the shipped systems, their duals and their
derived models, on the reference ladder, on random systems with non-integer
entries and on systems built to have a proper, nonzero unobservable set.

The two observability routes must also stay independent: the direct one
shrinks a kernel chain, the dual one grows a span chain. If ``unobservable``
were the complement of the dual's reachable set, the duality cross-check in
``report.analyze`` would compare a computation with itself.
"""

import importlib
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import obsv_matrix
from posetsys import _linalg as la
from posetsys.corpus import load_corpus_system
from posetsys.fileio import load_system
from posetsys.observability import unobservable
from posetsys.reachability import ctrb_matrix, reachable
from posetsys.subspace import Subspace, image, kernel
from posetsys.system import derived, dual_system
from test_linalg_oracle import RATIONALS, matrices
from test_power_loop_oracle import SHIPPED, _stem, one_node

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
BENCH = Path(__file__).resolve().parents[1] / "bench"
LADDER_SYSTEMS = {"n9": 10, "n22": 5, "n37": 2}  # the replicas bench/run.py draws per rung


def assert_krylov_routes(sys):
    """Both global sets of ``sys`` equal the spaces of its Krylov matrices."""
    a, b, c = sys.A.entries, sys.B.entries, sys.C.entries
    assert reachable(sys) == image(ctrb_matrix(a, b))
    assert unobservable(sys) == kernel(obsv_matrix(c, a))


def models(sys):
    """``sys``, its dual, and every local, downstream and upstream model of both."""
    for s in (sys, dual_system(sys)):
        yield s
        for kind in ("local", "downstream", "upstream"):
            for i in s.poset.nodes:
                yield derived(s, kind, i)


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_shipped_systems_and_their_models_match_the_krylov_routes(entry):
    for s in models(load_system(entry)):
        assert_krylov_routes(s)


@pytest.fixture(scope="module")
def ladder_seed_1():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        ladder = importlib.import_module("ladder")
    drawn = ladder.generate(ladder.REFERENCE_SEED, max(LADDER_SYSTEMS.values()))
    return [drawn[(rung, k)] for rung, count in LADDER_SYSTEMS.items() for k in range(count)]


@pytest.mark.parametrize("k", range(sum(LADDER_SYSTEMS.values())))
def test_reference_ladder_matches_the_krylov_routes(ladder_seed_1, k):
    sys = ladder_seed_1[k]
    assert_krylov_routes(sys)
    assert_krylov_routes(dual_system(sys))


@SETTINGS
@given(st.data())
def test_random_systems_match_the_krylov_routes(data):
    n, m, r = (data.draw(st.integers(0, k)) for k in (6, 3, 3))
    sys = one_node(
        data.draw(matrices(rows=n, cols=n)),
        data.draw(matrices(rows=n, cols=m)),
        data.draw(matrices(rows=r, cols=n)),
    )
    assert_krylov_routes(sys)


@pytest.mark.parametrize("n, m, r", [(0, 0, 0), (0, 2, 1), (3, 0, 2), (3, 2, 0), (3, 0, 0)])
def test_empty_blocks_match_the_krylov_routes(n, m, r):
    rng = random.Random(100 * n + 10 * m + r)

    def draw(rows, cols):
        out = la.zeros(rows, cols)
        for i in range(rows):
            out[i, :] = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
        return out

    sys = one_node(draw(n, n), draw(n, m), draw(r, n))
    assert_krylov_routes(sys)
    assert reachable(sys).is_zero() or m > 0
    assert unobservable(sys).dim == n or r > 0


def unimodular(rng: random.Random, n: int) -> np.ndarray:
    """A random integer n x n matrix (n >= 2) of determinant +-1: a product of elementary operations."""
    t = la.eye(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        t[i, :] += rng.choice([-2, -1, 1, 2]) * t[j, :]
        if rng.random() < 0.2:
            t[[i, j], :] = t[[j, i], :]
    return t


@st.composite
def hidden_systems(draw):
    """A system with a proper, nonzero unobservable set, and a basis of a part of it.

    A = [[A11, 0], [A21, A22]] and C = [C1, 0] leave every state [0; x2]
    unobservable; C1 != 0 keeps some state observable. Conjugating by a
    unimodular T (A' = T^-1 A T, C' = C T) hides the block form.
    """
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n, m, r = n1 + n2, draw(st.integers(1, 2)), draw(st.integers(1, 2))
    a = la.zeros(n, n)
    a[:n1, :n1] = draw(matrices(rows=n1, cols=n1))
    a[n1:, :n1] = draw(matrices(rows=n2, cols=n1))
    a[n1:, n1:] = draw(matrices(rows=n2, cols=n2))
    c = la.zeros(r, n)
    c[:, :n1] = draw(matrices(rows=r, cols=n1))
    c[draw(st.integers(0, r - 1)), draw(st.integers(0, n1 - 1))] = draw(RATIONALS.filter(bool))
    b = draw(matrices(rows=n, cols=m))
    t = unimodular(random.Random(draw(st.integers(0, 2**32))), n)
    inv = la.inverse(t)
    assert all(x.denominator == 1 for x in inv.flat)
    hidden = la.mdot(inv, np.vstack([la.zeros(n1, n2), la.eye(n2)]))
    return one_node(la.mdot(inv, la.mdot(a, t)), la.mdot(inv, b), la.mdot(c, t)), Subspace(n, hidden)


@SETTINGS
@given(hidden_systems())
def test_a_proper_unobservable_set_matches_the_krylov_route(case):
    sys, hidden = case
    unobs = unobservable(sys)
    assert 0 < unobs.dim < sys.state_dim
    assert unobs.contains(hidden)
    assert_krylov_routes(sys)
    # on the dual, the same set is the complement of a proper reachable set
    assert_krylov_routes(dual_system(sys))
    assert reachable(dual_system(sys)) == unobs.complement()


@SETTINGS
@given(st.data())
def test_invariant_kernel_is_the_kernel_of_the_observability_matrix(data):
    n = data.draw(st.integers(0, 6))
    a = data.draw(matrices(rows=n, cols=n))
    c = data.draw(matrices(rows=data.draw(st.integers(0, 3)), cols=n))
    got = la.invariant_kernel(a, c)
    assert got.shape[0] == n and all(type(x) is int for x in got.flat)
    want = la.kernel_basis(la.cleared_rows(obsv_matrix(c, a))[0])
    assert Subspace._span(n, got) == Subspace._span(n, want)


def test_invariant_kernel_clears_the_map_to_one_denominator():
    # ker c is the span of (1, 1), which a keeps; row by row, a would clear to
    # [[1, 1], [0, 1]], which maps (1, 1) to (2, 1), outside ker c
    a = la.fmat([[Fraction(1, 2), Fraction(1, 2)], [0, 1]])
    c = la.fmat([[1, -1]])
    assert Subspace._span(2, la.invariant_kernel(a, c)) == Subspace.from_columns(2, [[1, 1]])


def _raises(*_):
    raise AssertionError("the other route's saturation was called")


def test_unobservable_uses_no_span_chain(monkeypatch):
    sys = load_corpus_system("strict-chain-combined")
    want = kernel(obsv_matrix(sys.C.entries, sys.A.entries))
    monkeypatch.setattr(la, "invariant_span", _raises)
    monkeypatch.setattr(la, "krylov", _raises)
    assert unobservable(sys) == want


def test_reachable_uses_no_kernel_chain(monkeypatch):
    sys = load_corpus_system("strict-chain-combined")
    want = image(ctrb_matrix(sys.A.entries, sys.B.entries))
    monkeypatch.setattr(la, "invariant_kernel", _raises)
    monkeypatch.setattr(la, "krylov", _raises)
    assert reachable(sys) == want
