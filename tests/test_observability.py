from conftest import (
    coordinate_subspace,
    random_locally_controllable_system,
    random_poset,
    random_system,
    structured_random_matrix,
)
from posetsys import _linalg as la
from posetsys.corpus import load_corpus_system
from posetsys.duality import profile_via_duality
from posetsys.observability import profile, upstream_indistinguishable
from posetsys.poset import build_poset
from posetsys.subspace import Subspace
from posetsys.system import PosetCausalSystem, dual_system


def test_full_state_output_is_observable(rng):
    poset = random_poset(rng, 3)
    n = (1, 2, 1)
    sys = PosetCausalSystem(
        poset=poset, n=n, m=(1, 1, 1), r=n,
        A=structured_random_matrix(rng, poset, n, n),
        B=structured_random_matrix(rng, poset, n, (1, 1, 1)),
        C=la.eye(4), D=la.zeros(4, 3),
    )
    op = profile(sys)
    assert op.observable and op.weakly_locally_observable
    assert op.unobservable.is_zero() and op.independent.is_zero()
    assert op.floor.is_zero() and op.ceiling.is_zero()


def test_zero_output_makes_everything_unobservable():
    sys = load_corpus_system("exLargeEx")  # zero C
    op = profile(sys)
    assert op.unobservable.equals(Subspace.full(sys.state_dim))
    assert op.ceiling.equals(Subspace.full(sys.state_dim))
    assert not op.observable
    assert op.unobservable.complement().is_zero()


def test_upstream_sets_live_upstream(rng):
    for _ in range(10):
        poset = random_poset(rng, rng.randint(1, 5))
        sys = random_system(rng, poset)
        from posetsys.poset import derived_set

        placed = profile(sys).embedded(sys, "upstream")
        for i in poset.nodes:
            ups = derived_set(poset, {i}, "up")
            assert upstream_indistinguishable(sys, i).ambient == len(sys.n.indices(ups))
            assert coordinate_subspace(sys.n, ups).contains(placed[i])


def test_profile_chain(rng):
    for _ in range(15):
        poset = random_poset(rng, rng.randint(1, 5))
        sys = random_system(rng, poset)
        op = profile(sys)
        assert op.unobservable.contains(op.floor)
        assert op.ceiling.contains(op.unobservable)
        assert op.independent.contains(op.ceiling)
        # complements reverse the chain
        assert op.floor.complement().contains(op.unobservable.complement())
        assert op.unobservable.complement().contains(op.ceiling.complement())
        assert op.ceiling.complement().contains(op.independent.complement())


def test_profile_optimality(rng):
    for _ in range(10):
        poset = random_poset(rng, rng.randint(1, 4))
        sys = random_system(rng, poset)
        op = profile(sys)
        basis = op.unobservable.basis
        if op.unobservable.dim:
            cols = [c for c in range(op.unobservable.dim) if rng.random() < 0.6]
            inner = Subspace(sys.state_dim, basis[:, cols]) if cols else Subspace.zero(sys.state_dim)
        else:
            inner = Subspace.zero(sys.state_dim)
        structured_inner = Subspace.zero(sys.state_dim)
        for j in poset.nodes:
            structured_inner = structured_inner.sum(
                inner.intersect(coordinate_subspace(sys.n, (j,)))
            )
        assert op.floor.contains(structured_inner)
        bigger = op.unobservable.sum(
            Subspace.from_columns(
                sys.state_dim,
                [[rng.randint(-2, 2) for _ in range(sys.state_dim)] for _ in range(2)],
            )
        )
        outer = Subspace.zero(sys.state_dim)
        for j in poset.nodes:
            outer = outer.sum(bigger.project(sys.n, (j,)).embed(sys.n, (j,)))
        assert outer.contains(op.ceiling)


def test_locally_observable_implies_observable(rng):
    # build systems whose duals have controllable local pairs
    for _ in range(15):
        poset = random_poset(rng, rng.randint(1, 5))
        seed_sys = random_locally_controllable_system(rng, poset)
        sys = dual_system(seed_sys)
        op = profile(sys)
        assert op.weakly_locally_observable
        assert op.observable


def test_duality_route_agrees_everywhere(rng):
    sys = load_corpus_system("exObsEx")
    assert profile(sys) == profile_via_duality(sys)
    for _ in range(15):
        poset = random_poset(rng, rng.randint(1, 5))
        rand = random_system(rng, poset)
        assert profile(rand) == profile_via_duality(rand)


def test_zero_system_profile():
    poset = build_poset(2, [(1, 2)])
    sys = PosetCausalSystem(
        poset=poset, n=(1, 1), m=(1, 1), r=(1, 1),
        A=la.zeros(2, 2), B=la.zeros(2, 2), C=la.zeros(2, 2), D=la.zeros(2, 2),
    )
    op = profile(sys)
    assert op.unobservable.equals(Subspace.full(2))
    via = profile_via_duality(sys)
    assert op == via
    assert via.unobservable.complement().is_zero()


def test_block_projection_of_distinguishable_states(rng):
    # projecting the complement of the unobservable set onto a block equals
    # the block minus its floor
    for _ in range(10):
        poset = random_poset(rng, rng.randint(1, 5))
        sys = random_system(rng, poset)
        op = profile(sys)
        seen = op.unobservable.complement()
        floor = op.embedded(sys, "node_floor")
        for j in poset.nodes:
            lhs = seen.project(sys.n, (j,)).embed(sys.n, (j,))
            rhs = coordinate_subspace(sys.n, (j,)).ominus(floor[j])
            assert lhs.equals(rhs)


def test_self_dual_antichain_profiles_mirror(rng):
    # symmetric A with C equal to B transposed makes the system literally
    # self-dual, so its two profiles are complements of each other
    from posetsys.reachability import profile as reach_profile

    poset = build_poset(3, [])
    n = (2, 1, 2)
    a = la.zeros(5, 5)
    off = [0, 2, 3, 5]
    for blk in range(3):
        for i in range(off[blk], off[blk + 1]):
            for j in range(off[blk], i + 1):
                a[i, j] = a[j, i] = la.F(rng.randint(-2, 2))
    b = structured_random_matrix(rng, poset, n, n)
    sys = PosetCausalSystem(poset=poset, n=n, m=n, r=n,
                            A=a, B=b, C=b.T, D=la.zeros(5, 5))
    dual = dual_system(sys)
    for name in "ABCD":
        assert (getattr(dual, name).entries == getattr(sys, name).entries).all()
    rp = reach_profile(sys)
    op = profile(sys)
    assert op.unobservable.equals(rp.reachable.complement())
    assert op.floor.equals(rp.ceiling.complement())
    assert op.ceiling.equals(rp.floor.complement())
    assert op.independent.equals(rp.independent.complement())
