import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_locally_controllable_system, random_poset, random_system
from posetsys import _linalg as la
from posetsys import corpus, observability, reachability
from posetsys.corpus import load_corpus_system
from posetsys.errors import DimensionMismatch, InclusionViolation
from posetsys.fileio import load_system, save_system
from posetsys.observability import profile as obs_profile
from posetsys.poset import build_poset
from posetsys.reachability import profile as reach_profile
from posetsys.reachability import reachable
from posetsys.observability import unobservable
from posetsys.reduction import (
    generalized_reduce,
    kalman,
    moments_equal,
    poset_reduce,
)
from posetsys.subspace import Subspace
from posetsys.system import PosetCausalSystem, dual_system, validate


def test_kalman_corpus_example():
    sys = load_corpus_system("kalman-structured-gap")
    kal = kalman(sys)
    assert kal.reach_obs.equals(Subspace.from_columns(4, [[1, 0, 0, 0]]))
    reach = reachable(sys)
    unobs = unobservable(sys)
    assert kal.reach_obs.sum(kal.reach_unobs).equals(reach)
    assert kal.reach_unobs.sum(kal.unreach_unobs).equals(unobs)
    total = kal.reach_obs.dim + kal.reach_unobs.dim + kal.unreach_obs.dim + kal.unreach_unobs.dim
    assert total == sys.state_dim


def test_kalman_extremes(rng):
    poset = build_poset(2, [(1, 2)])
    observable_all = PosetCausalSystem(
        poset=poset, n=(1, 1), m=(1, 1), r=(1, 1),
        A=la.zeros(2, 2), B=la.fmat([[1, 0], [0, 1]]), C=la.eye(2), D=la.zeros(2, 2),
    )
    kal = kalman(observable_all)
    assert kal.reach_obs.equals(reachable(observable_all))
    assert kal.reach_unobs.is_zero() and kal.unreach_unobs.is_zero()

    none_reach = PosetCausalSystem(
        poset=poset, n=(1, 1), m=(1, 1), r=(1, 1),
        A=la.zeros(2, 2), B=la.zeros(2, 2), C=la.eye(2), D=la.zeros(2, 2),
    )
    kal2 = kalman(none_reach)
    assert kal2.reach_obs.is_zero()
    assert kal2.unreach_obs.equals(Subspace.full(2))


def test_kalman_decomposition_properties(rng):
    for _ in range(10):
        sys = random_system(rng, random_poset(rng, rng.randint(1, 4)))
        kal = kalman(sys)
        reach = reachable(sys)
        unobs = unobservable(sys)
        assert kal.reach_obs.sum(kal.reach_unobs).equals(reach)
        assert kal.reach_unobs.sum(kal.unreach_unobs).equals(unobs)
        assert kal.reach_obs.intersect(kal.reach_unobs).is_zero()
        assert kal.unreach_obs.intersect(reach.sum(unobs)).is_zero()
        total = (kal.reach_obs.dim + kal.reach_unobs.dim
                 + kal.unreach_obs.dim + kal.unreach_unobs.dim)
        assert total == sys.state_dim


def test_projection_bound_can_miss_the_minimal_part():
    # with R'' strictly between, projecting the complement of N onto R'' can
    # lose the reachable-observable part, so the subtraction form is the one
    # that must be used
    reach = Subspace.from_columns(3, [[1, 1, 1]])
    unobs = Subspace.from_columns(3, [[1, 0, 0], [0, 1, -1]])
    outer = Subspace.from_columns(3, [[1, 1, 0], [0, 0, 1]])
    minimal = unobs.complement().project_onto(reach)
    assert minimal.equals(reach)
    projected = unobs.complement().project_onto(outer)
    assert not projected.contains(minimal)
    subtracted = outer.ominus(reach.intersect(unobs))
    assert subtracted.contains(minimal)


def test_generalized_reduce_degenerate_cases():
    sys = load_corpus_system("kalman-structured-gap")
    reach = reachable(sys)
    unobs = unobservable(sys)
    classical = generalized_reduce(sys, reach, reach, unobs)
    kal = kalman(sys)
    assert classical.subspace.equals(kal.reach_obs)
    full = generalized_reduce(sys, Subspace.zero(4), Subspace.full(4), Subspace.zero(4))
    assert full.subspace.equals(Subspace.full(4))
    assert np.array_equal(full.system.A.entries, sys.A.entries)


def test_generalized_reduce_structured_bounds():
    sys = load_corpus_system("strict-chain-combined")
    rp = reach_profile(sys)
    op = obs_profile(sys)
    out = generalized_reduce(sys, rp.independent, rp.ceiling, op.floor)
    assert out.subspace.dim < sys.state_dim
    # moment preservation is asserted inside; spot-check the first few anyway
    lhs = sys.C.entries
    rhs = out.system.C.entries
    for _ in range(3):
        assert np.array_equal(la.mdot(lhs, sys.B.entries), la.mdot(rhs, out.system.B.entries))
        lhs = la.mdot(lhs, sys.A.entries)
        rhs = la.mdot(rhs, out.system.A.entries)


def test_generalized_reduce_builds_each_krylov_matrix_once(monkeypatch):
    sys = load_corpus_system("strict-chain-combined")
    rp = reach_profile(sys)
    op = obs_profile(sys)
    calls = []
    original = reachability.ctrb_matrix

    def counted(a, b):
        calls.append(a.shape)
        return original(a, b)

    monkeypatch.setattr(reachability, "ctrb_matrix", counted)
    monkeypatch.setattr(observability, "ctrb_matrix", counted)
    generalized_reduce(sys, rp.independent, rp.ceiling, op.floor)
    assert len(calls) == 2  # one reachable, one unobservable set


@pytest.mark.parametrize("name", sorted({Path(f).stem for f in corpus._SYSTEM_FILES.values()}))
def test_kalman_splits_rebuild_the_reachable_and_unobservable_sets(name):
    sys = load_corpus_system(name)
    kal = kalman(sys)
    assert kal.reach_obs.sum(kal.reach_unobs) == reachable(sys)
    assert kal.reach_unobs.sum(kal.unreach_unobs) == unobservable(sys)


def test_generalized_reduce_rejects_bad_hypotheses():
    sys = load_corpus_system("kalman-structured-gap")
    reach = reachable(sys)
    unobs = unobservable(sys)
    outside = Subspace.from_columns(4, [[0, 0, 1, 0]])
    with pytest.raises(InclusionViolation, match="inner_reach"):
        generalized_reduce(sys, outside, Subspace.full(4), unobs)
    with pytest.raises(InclusionViolation, match="outer_reach"):
        generalized_reduce(sys, Subspace.zero(4), Subspace.zero(4), unobs)
    with pytest.raises(InclusionViolation, match="inner_unobs"):
        generalized_reduce(sys, Subspace.zero(4), Subspace.full(4), reach)


def test_poset_reduce_identity_on_minimal_structured_system(rng):
    # locally controllable + full state output: nothing can be removed
    poset = random_poset(rng, 3)
    base = random_locally_controllable_system(rng, poset)
    sys = PosetCausalSystem(
        poset=poset, n=base.n.sizes, m=base.m.sizes, r=base.n.sizes,
        A=base.A.entries, B=base.B.entries,
        C=la.eye(base.state_dim), D=la.zeros(base.state_dim, base.input_dim),
    )
    for variant in ("primal", "dual_tilde", "dual_circ"):
        red = poset_reduce(sys, variant)
        assert red.total_dim == sys.state_dim
        assert red.subspace.equals(Subspace.full(sys.state_dim))
        assert red.optimal_hypothesis


def test_poset_reduce_reduced_system_validates(rng):
    for _ in range(6):
        sys = random_system(rng, random_poset(rng, rng.randint(1, 4)))
        for variant in ("primal", "dual_tilde", "dual_circ"):
            red = poset_reduce(sys, variant)
            assert validate(red.system).ok
            assert red.system.poset == sys.poset
            assert red.moment_horizon == max(sys.state_dim + red.total_dim - 1, 0)
            assert moments_equal(sys, red.system)


def test_poset_reduce_observability_collapse_gives_minimal():
    sys = load_corpus_system("kalman-structured-gap")
    red = poset_reduce(sys, "dual_tilde")
    assert red.total_dim == 1
    assert red.block_dims == (1, 0)
    circ = poset_reduce(sys, "dual_circ")
    assert circ.total_dim <= red.total_dim
    assert moments_equal(sys, circ.system)


def test_poset_reduce_optimality_hypothesis_reported():
    sys = load_corpus_system("kalman-structured-gap")
    red = poset_reduce(sys, "primal")
    assert red.block_dims == (2, 1)
    assert not red.optimal_hypothesis


def test_moments_equal_contract():
    sys = load_corpus_system("kalman-structured-gap")
    assert moments_equal(sys, sys)
    # a change confined to D leaves the moments untouched
    perturbed = PosetCausalSystem(
        poset=sys.poset, n=sys.n, m=sys.m, r=sys.r,
        A=sys.A.entries, B=sys.B.entries, C=sys.C.entries,
        D=la.fmat([[9, 0, 0], [0, 0, 0]]),
    )
    assert moments_equal(sys, perturbed)
    assert not np.array_equal(perturbed.D.entries, sys.D.entries)
    other = load_corpus_system("exLargeEx")
    with pytest.raises(DimensionMismatch):
        moments_equal(sys, other)


def test_dual_variants_match_primal_reduction_of_dual(rng):
    # the dual-side subspace equals the primal subspace of the dual system
    for _ in range(6):
        sys = random_system(rng, random_poset(rng, rng.randint(1, 4)))
        red = poset_reduce(sys, "dual_tilde")
        dual_red = poset_reduce(dual_system(sys), "primal")
        assert red.subspace.equals(dual_red.subspace)


def test_primal_reduction_contains_minimal_part(rng):
    for _ in range(8):
        sys = random_system(rng, random_poset(rng, rng.randint(1, 4)))
        red = poset_reduce(sys, "primal")
        assert red.subspace.contains(kalman(sys).reach_obs)


def test_reduced_block_bases_reassemble_the_subspace():
    sys = load_corpus_system("kalman-structured-gap")
    red = poset_reduce(sys, "primal")
    for j in sys.poset.nodes:
        local = red.block_basis(j)
        assert local.shape == (sys.n.size(j), red.block_dims[j - 1])
        lifted = la.zeros(sys.state_dim, local.shape[1])
        rows = sys.n.block_range(j)
        lifted[rows.start : rows.stop, :] = local
        assert red.subspace.contains(Subspace(sys.state_dim, lifted))


@pytest.mark.parametrize("variant", ["primal", "dual_tilde", "dual_circ"])
def test_poset_reduce_of_a_system_without_inputs_is_empty(variant):
    sys = load_corpus_system("exLargeEx")
    silent = PosetCausalSystem(
        poset=sys.poset, n=sys.n, m=sys.m, r=sys.r,
        A=sys.A, B=la.zeros(sys.state_dim, sys.input_dim), C=sys.C, D=sys.D,
    )
    red = poset_reduce(silent, variant)
    assert red.block_dims == (0,) * sys.poset.p
    assert red.system.A.shape == (0, 0)
    assert red.system.B.shape == (0, sys.input_dim)
    assert red.system.C.shape == (sys.output_dim, 0)
    assert moments_equal(silent, red.system)


def _assert_primal_reduction_is_the_sandwich(sys):
    # the paper's sandwich R*_ceiling - (R*_independent cap N*_floor) is the
    # primal structured reduction; generalized_reduce gives it over one node
    rp, op = reach_profile(sys), obs_profile(sys)
    red = poset_reduce(sys, "primal")
    out = generalized_reduce(sys, rp.independent, rp.ceiling, op.floor)
    assert out.subspace.equals(red.subspace)
    assert np.array_equal(out.basis, red.basis)
    flat = out.system
    assert flat.poset.p == 1
    assert (flat.n.sizes, flat.m.sizes, flat.r.sizes) == (
        (red.total_dim,), (sys.input_dim,), (sys.output_dim,))
    for name in "ABCD":
        assert np.array_equal(getattr(flat, name).entries, getattr(red.system, name).entries)
    assert np.array_equal(flat.D.entries, sys.D.entries)
    assert validate(flat).ok
    assert moments_equal(sys, flat)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sandwich.json"
        save_system(flat, path)
        loaded = load_system(path)
    assert loaded.poset == flat.poset
    assert (loaded.n, loaded.m, loaded.r) == (flat.n, flat.m, flat.r)
    for name in "ABCD":
        assert getattr(loaded, name).equals(getattr(flat, name))


@pytest.mark.parametrize("name", sorted({Path(f).stem for f in corpus._SYSTEM_FILES.values()}))
def test_primal_reduction_is_the_generalized_sandwich(name):
    _assert_primal_reduction_is_the_sandwich(load_corpus_system(name))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.integers(1, 5))
def test_primal_reduction_is_the_generalized_sandwich_random(rng, p):
    _assert_primal_reduction_is_the_sandwich(random_system(rng, random_poset(rng, p)))
