"""Every internal cross-check of the two profiles and of ``report.analyze`` fires.

Each test puts one wrong set in place of a right one and expects the
``StructureViolation`` of exactly the check it aims at. The wrong set is
chosen to get past every check that runs before that one. The sign flip of
one block's coordinates keeps every block projection and every block
section of a space, so it reaches the checks that compare a global set
with its per-node parts, not the per-block ones.
"""

import dataclasses

import pytest

from posetsys import duality, observability, reachability, report
from posetsys.corpus import load_corpus_system
from posetsys.errors import StructureViolation
from posetsys.subspace import Subspace

# reachable dim 8 and unobservable dim 5 of 11, neither a direct sum of its block sections
SYSTEM = "strict-chain-combined"


def twisted(space: Subspace, partition, node: int) -> Subspace:
    """``space`` with the coordinates of block ``node`` negated: every block cut stays, it does not."""
    basis = space.basis.copy()
    basis[partition.indices((node,)), :] *= -1
    wrong = Subspace(space.ambient, basis)
    assert not wrong.equals(space)
    for j in range(1, partition.count + 1):
        assert wrong.project(partition, (j,)).equals(space.project(partition, (j,)))
        assert wrong.section(partition, (j,)).equals(space.section(partition, (j,)))
    return wrong


@pytest.fixture
def sys():
    return load_corpus_system(SYSTEM)


def test_a_wrong_reachable_set_fails_the_ceiling_check(sys, monkeypatch):
    monkeypatch.setattr(reachability, "reachable", lambda s: Subspace.zero(s.state_dim))
    message = r"ceiling at node \d+ disagrees with the projected reachable set"
    with pytest.raises(StructureViolation, match=message):
        reachability.profile(sys)


def test_a_twisted_reachable_set_fails_the_sum_check(sys, monkeypatch):
    wrong = twisted(reachability.reachable(sys), sys.n, 4)
    monkeypatch.setattr(reachability, "reachable", lambda s: wrong)
    message = "reachable set is not the sum of the downstream reachable sets"
    with pytest.raises(StructureViolation, match=message):
        reachability.profile(sys)


def test_a_wrong_unobservable_set_fails_the_floor_check(sys, monkeypatch):
    monkeypatch.setattr(observability, "unobservable", lambda s: Subspace.full(s.state_dim))
    message = r"floor at node \d+ disagrees with the confined unobservable set"
    with pytest.raises(StructureViolation, match=message):
        observability.profile(sys)


def test_a_twisted_unobservable_set_fails_the_intersection_check(sys, monkeypatch):
    wrong = twisted(observability.unobservable(sys), sys.n, 4)
    monkeypatch.setattr(observability, "unobservable", lambda s: wrong)
    message = "unobservable set is not the intersection of the embedded upstream sets"
    with pytest.raises(StructureViolation, match=message):
        observability.profile(sys)


def test_a_wrong_dual_floor_fails_the_route_check(sys, monkeypatch):
    right = reachability.profile

    def wrong_floor(dual):
        # the dual route's node_ceiling[1] is the complement of this floor; no direct check reads it
        prof = right(dual)
        floor = {**prof.node_floor, 1: prof.node_floor[1].complement()}
        return dataclasses.replace(prof, node_floor=floor)

    monkeypatch.setattr(duality, "reach_profile", wrong_floor)
    with pytest.raises(StructureViolation, match="direct and duality observability routes disagree"):
        report.analyze(sys)
