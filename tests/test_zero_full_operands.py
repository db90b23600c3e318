"""Zero and full operands decide the lattice operations without elimination.

The canonical basis of {0} has no columns and that of the full space is the
identity. So ``sum``, ``intersect``, ``complement``, ``section`` and
``project`` read a zero or full operand's result off its dimension, and the
span chain of ``_linalg.invariant_span`` stops as soon as its span is the
whole space, or when {0} gives it nothing to multiply. Each result must
equal, by ``==``, the one elimination every operand took before
(``eliminated_*`` in ``conftest``): on hypothesis operands that are zero,
full or random, in ambients 0 to 6, and on every space of the seed-1 ladder
profiles. With a zero or full operand no elimination may run at all. The
chain is counted by its products with Ia: none follows the step that fills
the space, a full or zero ``b`` forms none, and only a proper span is
canonicalized, by one ``column_echelon``.
"""

import dataclasses
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    eliminated_complement,
    eliminated_intersect,
    eliminated_invariant_span,
    eliminated_project,
    eliminated_section,
    eliminated_sum,
)
from posetsys import _linalg as la
from posetsys.blockmat import Partition
from posetsys.observability import profile as obs_profile
from posetsys.reachability import profile as reach_profile
from posetsys.subspace import Subspace
from test_global_sets_oracle import LADDER_SYSTEMS, ladder_seed_1  # noqa: F401

RULES = settings(max_examples=150, deadline=None, derandomize=True)

_entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _random(ambient):
    column = st.lists(_entries, min_size=ambient, max_size=ambient)
    return st.lists(column, max_size=ambient + 1).map(lambda cols: Subspace.from_columns(ambient, cols))


def _trivial(ambient):
    return st.sampled_from([Subspace.zero(ambient), Subspace.full(ambient)])


def _operand(ambient):
    return st.one_of(_trivial(ambient), _random(ambient))


@st.composite
def _operands(draw, count):
    ambient = draw(st.integers(0, 6))
    return [draw(_operand(ambient)) for _ in range(count)]


@st.composite
def _partitioned(draw, operand=_operand):
    """A partition of total 0 to 6, a set of its nodes and a subspace of its total."""
    partition = Partition(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    nodes = draw(st.sets(st.integers(1, partition.count)))
    return partition, nodes, draw(operand(partition.total))


def _refuse(*args, **kwargs):
    raise AssertionError("a zero or full operand ran an elimination")


@contextmanager
def no_elimination():
    """Every exact elimination in ``_linalg`` raises inside the block.

    Each goes through ``rref`` or, in the span chain, through the row step it
    shares with ``rref`` (``_eliminate``).
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "rref", _refuse)
        mp.setattr(la, "_eliminate", _refuse)
        yield


# each rule equals the elimination route ------------------------------------


@RULES
@given(st.integers(1, 4).flatmap(_operands))
def test_sum_equals_the_elimination(spaces):
    assert spaces[0].sum(*spaces[1:]) == eliminated_sum(*spaces)


@RULES
@given(_operands(2))
def test_intersect_equals_the_elimination(pair):
    u, w = pair
    assert u.intersect(w) == eliminated_intersect(u, w)


@RULES
@given(_operands(1))
def test_complement_equals_the_elimination(single):
    (u,) = single
    assert u.complement() == eliminated_complement(u)


@RULES
@given(_partitioned())
def test_section_and_project_equal_the_elimination(case):
    partition, nodes, u = case
    assert u.section(partition, nodes) == eliminated_section(u, partition, nodes)
    assert u.project(partition, nodes) == eliminated_project(u, partition, nodes)


@st.composite
def _pair(draw):
    """An n x n matrix a and an n x k matrix b, n from 0 to 5; b may span the whole space."""
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    entries = draw(st.lists(_entries, min_size=n * (n + k), max_size=n * (n + k)))
    ab = np.array(entries, dtype=object).reshape(n, n + k)
    a, b = ab[:, :n], ab[:, n:]
    return a, np.hstack([b, la.eye(n)]) if draw(st.booleans()) else b


@RULES
@given(_pair())
def test_invariant_span_equals_the_saturation_to_a_fixed_point(case):
    a, b = case
    got, want = la.invariant_span(a, b), eliminated_invariant_span(a, b)
    assert got.shape == want.shape and np.array_equal(got, want)


# a zero or full operand runs no elimination ---------------------------------


@st.composite
def _trivial_and_random(draw):
    """One to three zero or full operands, a random one, and all of them in some order."""
    ambient = draw(st.integers(0, 6))
    trivial = draw(st.lists(_trivial(ambient), min_size=1, max_size=3))
    other = draw(_random(ambient))
    return trivial, other, draw(st.permutations(trivial + [other]))


@RULES
@given(_trivial_and_random())
def test_trivial_operands_run_no_elimination(case):
    trivial, other, spaces = case
    # zeros drop out, so a full operand or the single one left decides the sum
    with no_elimination():
        spaces[0].sum(*spaces[1:])
        for space in trivial:
            space.intersect(other)
            other.intersect(space)
            space.complement()


@RULES
@given(_partitioned(_trivial))
def test_trivial_sections_and_projections_run_no_elimination(case):
    partition, nodes, u = case
    with no_elimination():
        u.section(partition, nodes)
        u.project(partition, nodes)


class _CountedProducts(np.ndarray):
    """An integer matrix that records, for each product ``dot`` forms with it, how many vectors it took."""

    def dot(self, other):
        self.products.append(other.shape[1])
        return np.asarray(self).dot(other)


def _counted(rows) -> _CountedProducts:
    """``rows`` as an integer matrix that ``invariant_span`` takes as it is and counts the products of."""
    m = np.array(rows, dtype=object).view(_CountedProducts)
    m.products = []
    return m


@pytest.fixture
def echelon_calls(monkeypatch):
    """The shape of every matrix ``invariant_span`` hands to ``column_echelon``."""
    original, calls = la.column_echelon, []

    def counted(m):
        calls.append(m.shape)
        return original(m)

    monkeypatch.setattr(la, "column_echelon", counted)
    return calls


def test_a_full_span_stops_the_saturation_at_once(echelon_calls):
    a = _counted([[1, 2, 0], [0, 1, 3], [5, 0, 1]])
    identity = np.identity(3, dtype=object)
    e1 = np.array([[1], [0], [0]], dtype=object)
    assert np.array_equal(la.invariant_span(a, e1), identity)
    # e1, then Ia e1, then Ia^2 e1 fills the space: each step multiplies the one vector the step
    # before it added, no product follows the fill and nothing is canonicalized
    assert a.products == [1, 1] and echelon_calls == []
    # b = I fills the space and a zero b spans {0} before any product, with no elimination at all
    for b, want in ((identity, identity), (np.zeros((3, 1), dtype=object), np.zeros((3, 0), dtype=object))):
        a.products.clear()
        with no_elimination():
            got = la.invariant_span(a, b)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert a.products == [] and echelon_calls == []


def test_a_proper_span_multiplies_only_new_vectors_and_is_canonicalized_once(echelon_calls):
    # Ia maps e1 to e2, e2 to 0 and e3 to itself, so the span of e1 and e3 grows to e1, e2, e3 and stops
    a = _counted([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    b = np.array([[2, 0], [0, 0], [0, 3], [0, 0]], dtype=object)
    got = la.invariant_span(a, b)
    assert np.array_equal(got, np.identity(4, dtype=object)[:, :3])
    # e1 and e3, then e2 alone (Ia e3 = e3 adds nothing), then nothing: one canonicalization
    assert a.products == [2, 1] and echelon_calls == [(4, 3)]


# the seed-1 ladder profiles -------------------------------------------------

PROFILED = range(LADDER_SYSTEMS["n9"] + LADDER_SYSTEMS["n22"])  # the rungs bench/run.py profiles


def _fields(prof) -> dict:
    return {f.name: getattr(prof, f.name) for f in dataclasses.fields(prof)}


@pytest.mark.parametrize("k", PROFILED)
def test_ladder_profiles_equal_the_elimination_route(ladder_seed_1, k, monkeypatch):  # noqa: F811
    sys = ladder_seed_1[k]
    fast = [_fields(reach_profile(sys)), _fields(obs_profile(sys))]
    for name, oracle in (
        ("sum", eliminated_sum),
        ("intersect", eliminated_intersect),
        ("complement", eliminated_complement),
        ("section", eliminated_section),
        ("project", eliminated_project),
    ):
        monkeypatch.setattr(Subspace, name, oracle)
    monkeypatch.setattr(la, "invariant_span", eliminated_invariant_span)
    assert fast == [_fields(reach_profile(sys)), _fields(obs_profile(sys))]
