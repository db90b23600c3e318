from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coordinate_subspace,
    named_poset,
    random_locally_controllable_system,
    random_poset,
    random_system,
)
from posetsys import _linalg as la
from posetsys import corpus
from posetsys.blockmat import BlockMatrix, Partition
from posetsys.corpus import load_corpus_system
from posetsys.errors import NotWeaklyLocallyControllable, ShapeMismatch
from posetsys.poset import build_poset, derived_set
from posetsys.reachability import (
    char_poly_factored,
    ctrb_matrix,
    downstream_reachable,
    pole_place,
    profile,
    reachable,
    weakly_locally_controllable,
)
from posetsys.subspace import Subspace, image
from posetsys.system import PosetCausalSystem


def test_ctrb_matrix_shapes_and_zero_a():
    b = la.fmat([[1, 0], [0, 1], [1, 1]])
    c = ctrb_matrix(la.zeros(3, 3), b)
    assert c.shape == (3, 6)
    assert np.array_equal(c[:, :2], b)
    assert la.is_zero_matrix(c[:, 2:])
    single = ctrb_matrix(la.fmat([[7]]), la.fmat([[2]]))
    assert np.array_equal(single, la.fmat([[2]]))
    with pytest.raises(ShapeMismatch):
        ctrb_matrix(la.zeros(2, 3), b)


def test_reachable_zero_input():
    sys = load_corpus_system("exObsEx")  # zero B
    assert reachable(sys).is_zero()
    for i in sys.poset.nodes:
        assert downstream_reachable(sys, i).is_zero()


def _per_block_reach_oracle(sys, j):
    """Brute force for the antichain: the local pair's column-space Krylov."""
    a = sys.A.block(j, j)
    b = sys.B.block(j, j)
    space = image(ctrb_matrix(a, b))
    rows = sys.n.block_range(j)
    lift = la.zeros(sys.state_dim, space.dim)
    for k, row in enumerate(rows):
        lift[row, :] = space.basis[k, :]
    return Subspace(sys.state_dim, lift)


def test_antichain_profile_matches_per_block_oracle(rng):
    poset = build_poset(3, [])
    for _ in range(5):
        sys = random_system(rng, poset)
        rp = profile(sys)
        node = {name: rp.embedded(sys, name)
                for name in ("node_independent", "node_floor", "node_ceiling")}
        for j in poset.nodes:
            want = _per_block_reach_oracle(sys, j)
            assert node["node_independent"][j].equals(want)
            assert node["node_floor"][j].equals(want)
            assert node["node_ceiling"][j].equals(want)


def test_profile_chain_and_sum_decomposition(rng):
    for _ in range(15):
        poset = random_poset(rng, rng.randint(1, 5))
        sys = random_system(rng, poset)
        rp = profile(sys)
        assert rp.floor.contains(rp.independent)
        assert rp.reachable.contains(rp.floor)
        assert rp.ceiling.contains(rp.reachable)
        downstream = rp.embedded(sys, "downstream")
        exclusive, projected = rp.embedded(sys, "exclusive"), rp.embedded(sys, "projected")
        summed = Subspace.zero(sys.state_dim)
        for i in poset.nodes:
            summed = summed.sum(downstream[i])
        assert summed.equals(rp.reachable)
        for j in poset.nodes:
            down = sorted(derived_set(poset, {j}, "down"))
            inner = Subspace.zero(sys.state_dim)
            outer = Subspace.zero(sys.state_dim)
            for i in down:
                inner = inner.sum(exclusive[(i, j)])
                outer = outer.sum(projected[(i, j)])
            assert downstream[j].contains(inner)
            assert outer.contains(downstream[j])


def test_profile_optimality_of_floor_and_ceiling(rng):
    # any structured subspace inside the reachable set sits under the floor,
    # any structured one containing it sits over the ceiling
    for _ in range(10):
        poset = random_poset(rng, rng.randint(1, 4))
        sys = random_system(rng, poset)
        rp = profile(sys)
        basis = rp.reachable.basis
        if rp.reachable.dim:
            cols = [c for c in range(rp.reachable.dim) if rng.random() < 0.6]
            inner = Subspace(sys.state_dim, basis[:, cols]) if cols else Subspace.zero(sys.state_dim)
        else:
            inner = Subspace.zero(sys.state_dim)
        floor, ceiling = rp.embedded(sys, "node_floor"), rp.embedded(sys, "node_ceiling")
        for j in poset.nodes:
            qj = inner.intersect(coordinate_subspace(sys.n, (j,)))
            assert floor[j].contains(qj)
        bigger = rp.reachable.sum(
            Subspace.from_columns(
                sys.state_dim,
                [[rng.randint(-2, 2) for _ in range(sys.state_dim)] for _ in range(2)],
            )
        )
        for j in poset.nodes:
            sj = bigger.project(sys.n, (j,)).embed(sys.n, (j,))
            assert sj.contains(ceiling[j])


def test_reachable_is_a_invariant_but_bounds_need_not_be():
    # 4-state chain system where the structured bounds move under A
    poset = named_poset("p6")
    sys = PosetCausalSystem(
        poset=poset, n=(1, 1, 2), m=(1, 1, 1), r=(1, 1, 1),
        A=la.fmat([[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, -1, 0]]),
        B=la.fmat([[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]),
        C=la.zeros(3, 4), D=la.zeros(3, 3),
    )
    rp = profile(sys)
    assert rp.independent.equals(Subspace.from_columns(4, [[1, 0, 0, 0]]))
    assert rp.floor.equals(rp.independent)
    assert rp.reachable.equals(Subspace.from_columns(4, [[1, 0, 0, 0], [0, 1, 1, 0]]))
    assert rp.ceiling.equals(Subspace.from_columns(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))
    a = sys.A.entries
    assert rp.reachable.contains(rp.reachable.apply(a))
    assert not rp.independent.contains(rp.independent.apply(a))
    assert not rp.floor.contains(rp.floor.apply(a))
    assert not rp.ceiling.contains(rp.ceiling.apply(a))


def test_weak_local_controllability_examples(rng):
    sys = load_corpus_system("two-node-local-gap")
    flag, detail = weakly_locally_controllable(sys)
    assert flag is False and detail == {1: True, 2: False}
    # square invertible local input matrices make every local pair controllable
    poset = named_poset("p1")
    n = (2, 1, 1)
    b = la.zeros(4, 4)
    b[0, 0] = b[1, 1] = b[2, 2] = b[3, 3] = la.F(1)
    sys2 = PosetCausalSystem(
        poset=poset, n=n, m=n, r=(1, 1, 1),
        A=la.zeros(4, 4), B=b, C=la.zeros(3, 4), D=la.zeros(3, 4),
    )
    flag2, _ = weakly_locally_controllable(sys2)
    assert flag2 is True


def test_locally_controllable_implies_controllable(rng):
    for _ in range(20):
        poset = random_poset(rng, rng.randint(1, 5))
        sys = random_locally_controllable_system(rng, poset)
        rp = profile(sys)
        assert rp.weakly_locally_controllable
        assert rp.controllable
        assert la.rank(ctrb_matrix(sys.A.entries, sys.B.entries)) == sys.state_dim


def test_char_poly_factored_block_diagonal():
    poset = build_poset(2, [])
    part = (2, 1)
    a = la.fmat([[0, 1, 0], [-2, -3, 0], [0, 0, 5]])
    fact = char_poly_factored(BlockMatrix(a, Partition(part), Partition(part)), poset)
    assert fact.blocks[1] == [la.F(2), la.F(3), la.F(1)]
    assert fact.blocks[2] == [la.F(-5), la.F(1)]
    assert fact.product == la.poly_mul(fact.blocks[1], fact.blocks[2])


def test_char_poly_factored_strict_triangle():
    poset = named_poset("p6")
    part = (1, 1, 1)
    a = la.fmat([[2, 0, 0], [7, 3, 0], [1, -4, 5]])
    fact = char_poly_factored(BlockMatrix(a, Partition(part), Partition(part)), poset)
    assert fact.product == la.char_poly(a)
    assert [fact.blocks[j] for j in (1, 2, 3)] == [
        [la.F(-2), la.F(1)], [la.F(-3), la.F(1)], [la.F(-5), la.F(1)]]


def test_char_poly_factored_corpus_system():
    sys = load_corpus_system("exLargeEx")
    fact = char_poly_factored(sys.A, sys.poset)
    assert fact.product == la.char_poly(sys.A.entries)
    assert fact.eval_at(0) == 0


def test_pole_place_single_input_companion_case():
    # classic double integrator: the unique feedback for lambda^2+3lambda+2
    poset = build_poset(1, [])
    sys = PosetCausalSystem(
        poset=poset, n=(2,), m=(1,), r=(0,),
        A=la.fmat([[0, 1], [0, 0]]), B=la.fmat([[0], [1]]),
        C=la.zeros(0, 2), D=la.zeros(0, 1),
    )
    f = pole_place(sys, {1: [2, 3, 1]})
    assert np.array_equal(f.entries, la.fmat([[-2, -3]]))


def test_pole_place_keeps_current_spectrum():
    poset = build_poset(1, [])
    sys = PosetCausalSystem(
        poset=poset, n=(2,), m=(2,), r=(0,),
        A=la.fmat([[1, 0], [0, 2]]), B=la.eye(2),
        C=la.zeros(0, 2), D=la.zeros(0, 2),
    )
    f = pole_place(sys, {1: la.char_poly(sys.A.entries)})
    closed = sys.A.entries + la.mdot(sys.B.entries, f.entries)
    assert la.char_poly(closed) == la.char_poly(sys.A.entries)


def test_pole_place_randomized_multi_input(rng):
    for _ in range(10):
        poset = random_poset(rng, rng.randint(1, 4))
        sys = random_locally_controllable_system(rng, poset, max_block=2)
        targets = {}
        for j in poset.nodes:
            coeffs = [la.F(rng.randint(-3, 3)) for _ in range(sys.n.size(j))] + [la.F(1)]
            targets[j] = coeffs
        f = pole_place(sys, targets)
        for j in poset.nodes:
            closed = sys.A.block(j, j) + la.mdot(sys.B.block(j, j), f.block(j, j))
            assert la.char_poly(closed) == targets[j]


def test_pole_place_rejects_uncontrollable_with_witness():
    sys = load_corpus_system("feedback-obstruction")
    with pytest.raises(NotWeaklyLocallyControllable) as info:
        pole_place(sys, {1: [0, 0, 1], 2: [0, 0, 1], 3: [0, 1]})
    assert info.value.block == 2


def test_local_hull_counterexample():
    sys = load_corpus_system("two-node-local-gap")
    rp = profile(sys)
    assert rp.local_hull.equals(Subspace.from_columns(2, [[1, 0]]))
    assert rp.reachable.equals(Subspace.from_columns(2, [[1, 1]]))
    assert not rp.reachable.contains(rp.local_hull)


def test_char_poly_factored_against_determinant_oracle():
    from conftest import char_poly_by_interpolation

    sys = load_corpus_system("exLargeEx")
    fact = char_poly_factored(sys.A, sys.poset)
    assert fact.product == char_poly_by_interpolation(sys.A.entries)


def test_pole_place_targets_must_cover_exactly_the_nodes():
    sys = load_corpus_system("feedback-obstruction")
    targets = [[0, 0, 1], [0, 0, 1], [0, 1]]
    for bad in (targets[:2], targets + [[0, 1]], {1: targets[0], 2: targets[1]},
                {1: targets[0], 2: targets[1], 3: targets[2], 4: [0, 1]}):
        with pytest.raises(ShapeMismatch, match="cover exactly the nodes"):
            pole_place(sys, bad)


def _double_integrator():
    return PosetCausalSystem(
        poset=build_poset(1, []), n=(2,), m=(1,), r=(0,),
        A=la.fmat([[0, 1], [0, 0]]), B=la.fmat([[0], [1]]),
        C=la.zeros(0, 2), D=la.zeros(0, 1),
    )


def test_inexact_targets_and_evaluation_points_are_refused():
    sys = _double_integrator()
    for bad in (0.1, True):
        with pytest.raises(TypeError, match="exact rational"):
            pole_place(sys, {1: [bad, 3, 1]})
    fact = char_poly_factored(sys.A, sys.poset)
    for bad in (0.1, True, "1/2"):
        with pytest.raises(TypeError, match="exact rational"):
            fact.eval_at(bad)
    assert fact.eval_at(np.int64(3)) == 9
    f = pole_place(sys, {1: [np.int64(2), la.F(3), 1]})
    assert np.array_equal(f.entries, la.fmat([[-2, -3]]))


def _assert_local_routes_agree(sys):
    """The profile's flag reads projected[(j, j)]; the detail ranks each local pair."""
    flag, detail = weakly_locally_controllable(sys)
    rp = profile(sys)
    assert rp.weakly_locally_controllable == flag
    projected = rp.embedded(sys, "projected")
    assert detail == {j: projected[(j, j)].dim == sys.n.size(j) for j in sys.poset.nodes}


@pytest.mark.parametrize("name", sorted({Path(f).stem for f in corpus._SYSTEM_FILES.values()}))
def test_local_controllability_routes_agree_on_shipped_systems(name):
    _assert_local_routes_agree(load_corpus_system(name))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.booleans())
def test_local_controllability_routes_agree_on_random_systems(rng, p, controllable):
    poset = random_poset(rng, p)
    make = random_locally_controllable_system if controllable else random_system
    _assert_local_routes_agree(make(rng, poset))
