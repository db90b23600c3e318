"""The duality map read from ``DUAL_SPACES`` against the identities written out by hand.

``hand_verify_duality`` is the identity list of ``verify_duality`` and
``hand_reduction_blocks`` the per-block formulas of ``poset_reduce`` as they
read when every pairing was spelled out field by field, every space in global
coordinates; both stay here as oracles for the table-driven code, reading the
profiles through ``embedded``. Random systems come from the ``conftest``
generators, driven by a shrinkable ``hypothesis`` random source.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coordinate_subspace, random_poset, random_system
from posetsys import _linalg as la
from posetsys import duality
from posetsys.corpus import load_corpus_system
from posetsys.duality import DUAL_SPACES, dual_key, profile_via_duality, verify_duality
from posetsys.observability import profile as obs_profile
from posetsys.poset import build_poset, derived_set
from posetsys.reachability import profile as reach_profile
from posetsys.reduction import REDUCTION_VARIANTS, moments_equal, poset_reduce
from posetsys.subspace import Subspace
from posetsys.system import PosetCausalSystem, dual_system

PROPERTIES = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def systems(draw):
    rng = draw(st.randoms(use_true_random=False))
    return random_system(rng, random_poset(rng, draw(st.integers(1, 4))))


class Global:
    """A profile of ``system`` whose per-node, per-pair and model spaces read globally."""

    def __init__(self, prof, system):
        self._prof = prof
        self._spaces = {
            f.name: prof.embedded(system, f.name)
            for f in fields(prof) if isinstance(getattr(prof, f.name), dict)
        }

    def __getattr__(self, name):
        return self._spaces[name] if name in self._spaces else getattr(self._prof, name)


def hand_verify_duality(sys):
    """(name, scope, ok) of every identity, each pairing written out by hand.

    The profiles are read through the ``duality`` module, so a test that
    replaces them there changes what both this oracle and ``verify_duality`` see.
    """
    dual = dual_system(sys)
    rp, op = Global(duality.reach_profile(sys), sys), Global(duality.obs_profile(sys), sys)
    rpd = Global(duality.reach_profile(dual), dual)
    opd = Global(duality.obs_profile(dual), dual)
    poset, n = sys.poset, sys.n
    blocks = {j: coordinate_subspace(n, (j,)) for j in poset.nodes}
    checks = []

    def check(name, scope, lhs, rhs):
        checks.append((name, scope, lhs.equals(rhs)))

    def flag(name, lhs, rhs):
        checks.append((name, "flags", lhs == rhs))

    check("dual independent = independent^perp", "aggregate",
          rpd.independent, op.independent.complement())
    check("dual floor = ceiling^perp", "aggregate", rpd.floor, op.ceiling.complement())
    check("dual ceiling = floor^perp", "aggregate", rpd.ceiling, op.floor.complement())
    check("dual unobs floor = ceiling^perp", "aggregate", opd.floor, rp.ceiling.complement())
    check("dual unobs ceiling = floor^perp", "aggregate", opd.ceiling, rp.floor.complement())
    check("dual unobs independent = independent^perp", "aggregate",
          opd.independent, rp.independent.complement())
    for i in poset.nodes:
        ups = coordinate_subspace(n, derived_set(poset, {i}, "up"))
        downs = coordinate_subspace(n, derived_set(poset, {i}, "down"))
        check("upblock - dual downstream = upstream set", f"node {i}",
              ups.ominus(rpd.downstream[i]), op.upstream[i])
        check("downblock - dual upstream = downstream set", f"node {i}",
              downs.ominus(opd.upstream[i]), rp.downstream[i])
    for j in poset.nodes:
        for i in sorted(derived_set(poset, {j}, "down")):
            check("dual proj unobs = block - exclusive", f"pair ({i},{j})",
                  opd.projected[(j, i)], blocks[i].ominus(rp.exclusive[(i, j)]))
            check("dual confined unobs = block - projected", f"pair ({i},{j})",
                  opd.confined[(j, i)], blocks[i].ominus(rp.projected[(i, j)]))
        for i in sorted(derived_set(poset, {j}, "up")):
            check("dual proj reach = block - confined", f"pair ({i},{j})",
                  rpd.projected[(i, j)], blocks[i].ominus(op.confined[(j, i)]))
            check("dual excl reach = block - projected unobs", f"pair ({i},{j})",
                  rpd.exclusive[(i, j)], blocks[i].ominus(op.projected[(j, i)]))
    for j in poset.nodes:
        check("dual node independent = block - independent", f"node {j}",
              rpd.node_independent[j], blocks[j].ominus(op.node_independent[j]))
        check("dual node floor = block - ceiling", f"node {j}",
              rpd.node_floor[j], blocks[j].ominus(op.node_ceiling[j]))
        check("dual node ceiling = block - floor", f"node {j}",
              rpd.node_ceiling[j], blocks[j].ominus(op.node_floor[j]))
        check("dual unobs node floor = block - ceiling", f"node {j}",
              opd.node_floor[j], blocks[j].ominus(rp.node_ceiling[j]))
        check("dual unobs node ceiling = block - floor", f"node {j}",
              opd.node_ceiling[j], blocks[j].ominus(rp.node_floor[j]))
        check("dual unobs node independent = block - independent", f"node {j}",
              opd.node_independent[j], blocks[j].ominus(rp.node_independent[j]))
    flag("controllable <-> dual observable", rp.controllable, opd.observable)
    flag("observable <-> dual controllable", op.observable, rpd.controllable)
    flag("weakly locally controllable <-> dual weakly locally observable",
         rp.weakly_locally_controllable, opd.weakly_locally_observable)
    flag("weakly locally observable <-> dual weakly locally controllable",
         op.weakly_locally_observable, rpd.weakly_locally_controllable)
    flag("independently controllable <-> dual independently observable",
         rp.independently_controllable, opd.independently_observable)
    flag("weakly upstream controllable <-> dual weakly downstream observable",
         rp.weakly_upstream_controllable, opd.weakly_downstream_observable)
    return checks


def hand_reduction_blocks(sys, variant):
    """Per-block subspaces of ``poset_reduce``, the dual variants through complements."""
    rp, op = Global(reach_profile(sys), sys), Global(obs_profile(sys), sys)
    parts = []
    for j in sys.poset.nodes:
        block = coordinate_subspace(sys.n, (j,))
        if variant == "primal":
            lead = rp.node_ceiling[j]
            cut = rp.node_independent[j].intersect(op.node_floor[j])
        elif variant == "dual_tilde":
            lead = block.ominus(op.node_floor[j])
            cut = block.ominus(op.node_independent[j]).intersect(block.ominus(rp.node_ceiling[j]))
        else:
            lead = block.ominus(op.node_floor[j])
            cut = block.ominus(op.node_ceiling[j]).intersect(block.ominus(rp.node_ceiling[j]))
        parts.append(lead.ominus(cut))
    return parts


def _reduced_blocks(red):
    edges = np.cumsum((0,) + red.block_dims)
    total = red.source_partition.total
    return [Subspace(total, red.basis[:, lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]


@PROPERTIES
@given(systems())
def test_duality_holds_and_matches_the_hand_listed_identities(sys):
    rep = verify_duality(sys)
    assert rep.ok, rep.describe()
    hand = hand_verify_duality(sys)
    assert all(ok for _, _, ok in hand)
    assert len(rep.checks) == len(hand)


def support(sys, name, key):
    """The coordinate blocks that the observability space ``name[key]`` of ``sys`` lies in.

    Block ``key[1]`` for a pair, block ``key`` for a node bound and the up-set
    of ``key`` for ``upstream``.
    """
    if isinstance(key, tuple):
        nodes = (key[1],)
    elif name == "upstream":
        nodes = derived_set(sys.poset, {key}, "up")
    else:
        nodes = (key,)
    return coordinate_subspace(sys.n, nodes)


@PROPERTIES
@given(systems())
def test_both_observability_routes_agree_and_every_space_lies_in_its_support(sys):
    op = obs_profile(sys)
    assert op == profile_via_duality(sys)
    dual = dual_system(sys)
    rpd = reach_profile(dual)
    for name, dual_name in DUAL_SPACES.items():
        placed = op.embedded(sys, name)
        placed_dual = rpd.embedded(dual, dual_name)
        for key, space in getattr(op, name).items():
            room = support(sys, name, key)
            assert space.ambient == room.dim, (name, key)
            assert room.contains(placed[key]), (name, key)
            assert room.contains(placed_dual[dual_key(key)]), (name, key)


@PROPERTIES
@given(systems())
def test_reductions_preserve_moments_and_match_the_hand_formulas(sys):
    for variant in REDUCTION_VARIANTS:
        red = poset_reduce(sys, variant)
        assert moments_equal(sys, red.system)
        assert _reduced_blocks(red) == hand_reduction_blocks(sys, variant), variant


def test_dual_circ_cuts_with_the_floor():
    # in the dual, block 2's floor (the whole block) exceeds its independent
    # bound (a line), so the two dual variants keep different subspaces
    sys = PosetCausalSystem(
        poset=build_poset(2, [(1, 2)]), n=(2, 2), m=(0, 0), r=(2, 1),
        A=la.fmat([[0, 0, 0, 0], [1, -1, 0, 0], [-1, 0, -1, 0], [1, 0, -1, 0]]),
        B=la.zeros(4, 0),
        C=la.fmat([[-1, 1, 0, 0], [1, -1, 0, 0], [-1, 1, -1, -1]]),
        D=la.zeros(3, 0),
    )
    dims = {}
    for variant in REDUCTION_VARIANTS:
        red = poset_reduce(sys, variant)
        assert _reduced_blocks(red) == hand_reduction_blocks(sys, variant), variant
        dims[variant] = red.block_dims
    assert dims == {"primal": (0, 0), "dual_tilde": (0, 1), "dual_circ": (0, 0)}


def _replace_one(spaces):
    """``spaces`` with one space of non-zero blocks replaced by another subspace of them."""
    spaces = dict(spaces)
    key = next(k for k, space in spaces.items() if space.ambient)
    room = Subspace.full(spaces[key].ambient)
    spaces[key] = Subspace.zero(room.ambient) if spaces[key] == room else room
    return spaces


@pytest.mark.parametrize("side", ["observability", "reachability"])
@pytest.mark.parametrize("field", sorted(DUAL_SPACES))
def test_a_replaced_space_fails_both_routes(monkeypatch, side, field):
    sys = load_corpus_system("strict-chain-combined")
    if side == "observability":
        attr, name = "obs_profile", field
    else:
        # a reachability space of sys pairs with an observability space of the dual
        attr, name = "reach_profile", DUAL_SPACES[field]
    real = getattr(duality, attr)

    def patched(s):
        prof = real(s)
        if s is sys:
            prof = replace(prof, **{name: _replace_one(getattr(prof, name))})
        return prof

    monkeypatch.setattr(duality, attr, patched)
    assert not verify_duality(sys).ok
    assert not all(ok for _, _, ok in hand_verify_duality(sys))


def test_a_failing_identity_writes_its_bases_as_every_other_basis(monkeypatch):
    # an integer entry is an int and any other entry "a/b", as fileio.format_rational writes them
    sys = load_corpus_system("strict-chain-combined")
    real = duality.obs_profile

    def patched(s):
        prof = real(s)
        return replace(prof, upstream=_replace_one(prof.upstream)) if s is sys else prof

    monkeypatch.setattr(duality, "obs_profile", patched)
    failures = [c for c in verify_duality(sys).failures if c.scope != "flags"]
    assert failures
    entries = [x for c in failures for basis in (c.lhs, c.rhs) for v in basis for x in v]
    assert 1 in entries
    assert all(type(x) is int or (type(x) is str and "/" in x) for x in entries)
