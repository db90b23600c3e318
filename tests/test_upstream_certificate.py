"""The certified upstream route against the observability matrix it replaced.

``upstream_indistinguishable`` keeps the rows of [C; CA; ...] that stay
independent modulo a prime and certifies the kernel of the kept rows exactly
(``_linalg.certified_kernel``). It must equal, as a canonical ``Subspace``,
the kernel of ``obsv_matrix(C, A)``: on the shipped systems, their duals and
all their upstream models, on the reference ladder and its duals, and on
random systems with non-integer entries and empty blocks. A prime that
divides a minor the rank decision needs must be caught by the certificate,
and the next prime must recover the exact set.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import obsv_matrix, random_poset
from posetsys import _linalg as la
from posetsys import observability, reachability
from posetsys.corpus import load_corpus_system
from posetsys.fileio import load_system
from posetsys.subspace import Subspace, kernel
from posetsys.system import PosetCausalSystem, derived, dual_system
from test_global_sets_oracle import LADDER_SYSTEMS, hidden_systems, ladder_seed_1  # noqa: F401
from test_linalg_oracle import RATIONALS, matrices
from test_power_loop_oracle import SHIPPED, _stem, one_node

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def certified(a, c) -> Subspace:
    return Subspace._span(a.shape[0], la.certified_kernel(a, c))


def assert_upstream_sets(sys):
    """Every upstream set of ``sys`` is the kernel of its model's observability matrix."""
    for i in sys.poset.nodes:
        up = derived(sys, "upstream", i)
        want = kernel(obsv_matrix(up.C.entries, up.A.entries))
        assert certified(up.A.entries, up.C.entries) == want
        assert observability.upstream_indistinguishable(sys, i) == want


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_shipped_systems_match_the_observability_matrix(entry):
    sys = load_system(entry)
    for s in (sys, dual_system(sys)):
        a, c = s.A.entries, s.C.entries
        assert certified(a, c) == kernel(obsv_matrix(c, a))
        assert_upstream_sets(s)


@pytest.mark.parametrize("k", range(sum(LADDER_SYSTEMS.values())))
def test_reference_ladder_matches_the_observability_matrix(ladder_seed_1, k):  # noqa: F811
    sys = ladder_seed_1[k]
    assert_upstream_sets(sys)
    assert_upstream_sets(dual_system(sys))


@SETTINGS
@given(st.data())
def test_random_pairs_match_the_observability_matrix(data):
    n = data.draw(st.integers(0, 6))
    a = data.draw(matrices(rows=n, cols=n))
    c = data.draw(matrices(rows=data.draw(st.integers(0, 3)), cols=n))
    got = la.certified_kernel(a, c)
    assert got.shape[0] == n and all(type(x) is int for x in got.flat)
    assert Subspace._span(n, got) == kernel(obsv_matrix(c, a))


@st.composite
def structured_systems(draw):
    """A poset-causal system with rational entries, empty blocks and nodes without outputs."""
    poset = random_poset(random.Random(draw(st.integers(0, 2**32))), draw(st.integers(1, 4)))
    n = [draw(st.integers(0, 2)) for _ in poset.nodes]
    m = [draw(st.integers(0, 1)) for _ in poset.nodes]
    r = [draw(st.integers(0, 2)) for _ in poset.nodes]

    def fill(rows, cols):
        out = la.zeros(sum(rows), sum(cols))
        for i in poset.nodes:
            for j in poset.nodes:
                if poset.geq(j, i):
                    for x in range(sum(rows[: i - 1]), sum(rows[:i])):
                        for y in range(sum(cols[: j - 1]), sum(cols[:j])):
                            out[x, y] = draw(RATIONALS)
        return out

    return PosetCausalSystem(poset, n, m, r, fill(n, n), fill(n, m), fill(r, n), fill(r, m))


@SETTINGS
@given(structured_systems())
def test_random_structured_systems_match_the_observability_matrix(sys):
    assert_upstream_sets(sys)
    assert_upstream_sets(dual_system(sys))


@pytest.mark.parametrize("n, r", [(0, 0), (0, 2), (3, 0), (1, 1)])
def test_empty_blocks_give_the_zero_or_full_space(n, r):
    rng = random.Random(10 * n + r)

    def draw(rows, cols):
        out = la.zeros(rows, cols)
        for i in range(rows):
            out[i, :] = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
        return out

    sys = one_node(draw(n, n), draw(n, 1), draw(r, n))
    got = observability.upstream_indistinguishable(sys, 1)
    assert got == kernel(obsv_matrix(sys.C.entries, sys.A.entries))
    if r == 0:
        assert got == Subspace.full(n)


@SETTINGS
@given(hidden_systems())
def test_a_proper_unobservable_set_passes_the_certificate(case):
    sys, hidden = case
    got = certified(sys.A.entries, sys.C.entries)
    assert 0 < got.dim < sys.state_dim and got.contains(hidden)
    assert got == kernel(obsv_matrix(sys.C.entries, sys.A.entries))


# Modulo 5, C A = [0, 5, 0] vanishes: the prime keeps only C, whose kernel is
# too large. The certificate must reject it; modulo 3, the next prime below,
# the rank is right.
WRONG_PRIME_CASES = {
    "zero": ([[0, 5], [0, 0]], [[1, 0]], []),
    "proper": ([[0, 5, 0], [0, 0, 0], [0, 0, 1]], [[1, 0, 0]], [[0, 0, 1]]),
}


@pytest.mark.parametrize("name", WRONG_PRIME_CASES)
def test_the_certificate_rejects_a_prime_that_drops_the_rank(monkeypatch, name):
    rows_a, rows_c, want = WRONG_PRIME_CASES[name]
    a, c = la.fmat(rows_a), la.fmat(rows_c)
    n = a.shape[0]
    assert la._rows_mod(la.cleared_rows(a)[0], la.cleared_rows(c)[0], 5)[1] == 1
    guess = Subspace.from_columns(n, np.identity(n, dtype=int)[:, 1:].T.tolist())
    assert la.rank(obsv_matrix(c, a)) == 2 and guess != kernel(obsv_matrix(c, a))
    walked = []
    prime_below = la._prime_below
    monkeypatch.setattr(la, "START_PRIME", 5)
    monkeypatch.setattr(la, "_prime_below", lambda p: walked.append(p) or prime_below(p))
    assert certified(a, c) == Subspace.from_columns(n, want) == kernel(obsv_matrix(c, a))
    assert walked == [5]


def test_the_walk_never_returns_an_uncertified_guess(monkeypatch):
    # modulo 2, the only prime left, C A = [0, 2] vanishes
    monkeypatch.setattr(la, "START_PRIME", 2)
    with pytest.raises(ArithmeticError):
        la.certified_kernel(la.fmat([[0, 2], [0, 0]]), la.fmat([[1, 0]]))
    assert la._prime_below(la.START_PRIME + 1) == 2 and la._prime_below(2**31 - 1) == 2**31 - 19


def test_products_modulo_p_are_exact_at_the_largest_entries():
    p = la.START_PRIME
    inner = (1 << 15) - 1
    x = np.full((1, inner), p - 1, dtype=np.int64)
    y = np.full((inner, 2), p - 1, dtype=np.int64)
    y[0, 1] = 0
    want = [inner * (p - 1) ** 2 % p, (inner - 1) * (p - 1) ** 2 % p]
    assert la._mulmod(x, y, p).tolist() == [want]


def _raises(*_):
    raise AssertionError("a Krylov matrix was built")


def test_the_observability_profile_builds_no_krylov_matrix(monkeypatch):
    sys = load_corpus_system("strict-chain-combined")
    want = observability.profile(sys)
    monkeypatch.setattr(la, "krylov", _raises)
    monkeypatch.setattr(reachability, "ctrb_matrix", _raises)
    assert observability.profile(sys) == want
