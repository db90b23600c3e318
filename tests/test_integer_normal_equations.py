"""The Kalman projection and the compression on integer normal equations, against their Fraction routes.

``Subspace.project_onto`` and ``reduction._compress`` solve the normal
equations of canonical integer bases in one ``rref`` each
(``_linalg.normal_equations``) and form each Fraction once, at the end. The
Fraction routes they replaced (``conftest.fraction_project_onto`` and
``conftest.fraction_compress``) are the oracles. Every projection must be
``==`` the oracle's, and every compressed A', B' and C' equal to the
oracle's entry by entry, every entry a Fraction: on random rational
subspaces, on every projection one ``analyze`` makes on the shipped systems
and on ladder n9-0, and on every reduction of the shipped systems and of the
seed-1 reference ladder.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_compress, fraction_project_onto
from posetsys import _linalg as la
from posetsys import reduction, report
from posetsys.fileio import load_system
from posetsys.observability import profile as obs_profile
from posetsys.reachability import profile as reach_profile
from posetsys.reduction import REDUCTION_VARIANTS, generalized_reduce, kalman, poset_reduce
from posetsys.subspace import Subspace
from test_global_sets_oracle import LADDER_SYSTEMS, ladder_seed_1  # noqa: F401
from test_power_loop_oracle import SHIPPED, _stem, one_node, systems

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)
LADDER = range(sum(LADDER_SYSTEMS.values()))

_entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def spans(draw, ambient, count=None):
    """The span of ``count`` (or 0 to 4) random rational columns."""
    count = draw(st.integers(0, 4)) if count is None else count
    column = st.lists(_entries, min_size=ambient, max_size=ambient)
    return Subspace.from_columns(ambient, draw(st.lists(column, min_size=count, max_size=count)))


@st.composite
def pairs(draw):
    """(space, target): random, lines, the full space, or one nested in the other.

    A space of lower dimension than its target has a projection that is not
    all of the target, so only there a wrong scale of a row of coordinates
    shows: "line" projects a line onto a random target.
    """
    ambient = draw(st.integers(1, 6))
    space, target = draw(spans(ambient)), draw(spans(ambient))
    shape = draw(st.sampled_from(["random", "line", "lines", "full", "inside", "around"]))
    if shape == "line":
        space = draw(spans(ambient, 1))
    elif shape == "lines":
        space, target = draw(spans(ambient, 1)), draw(spans(ambient, 1))
    elif shape == "full":
        space, target = draw(st.permutations([space, Subspace.full(ambient)]))
    elif shape == "inside":  # space within target: its projection is itself
        target = target.sum(space)
    elif shape == "around":  # target within space: the projection is target
        target = target.intersect(space)
    return space, target


def assert_projection(space, target):
    got = space.project_onto(target)
    assert got == fraction_project_onto(space, target)
    assert all(type(x) is int for x in got.integer_basis.flat)
    return got


@SETTINGS
@given(pairs())
def test_projection_matches_the_fraction_normal_equations(pair):
    space, target = pair
    got = assert_projection(space, target)
    if target.contains(space):
        assert got == space
    if space.contains(target):
        assert got == target


def test_a_projection_with_unequal_gram_pivots():
    # the rows of [G, T^T S] reduce to pivots 42 and 21, so each row of
    # coordinates needs its own rescale before T is applied
    target = Subspace.from_columns(3, [[3, 0, -1], [0, 3, -2]])
    space = Subspace.from_columns(3, [[0, 2, -1]])
    q, rows = la.normal_equations(target.integer_basis, space.integer_basis)
    assert (q, rows.tolist()) == ([42, 21], [[-1], [13]])
    assert assert_projection(space, target) == Subspace.from_columns(3, [[1, -26, 17]])


def recorded_projections(monkeypatch, sys):
    """Every (space, target, result) that ``Subspace.project_onto`` sees in one ``analyze`` of ``sys``."""
    seen = []
    original = Subspace.project_onto

    def record(space, target):
        result = original(space, target)
        seen.append((space, target, result))
        return result

    with monkeypatch.context() as mp:
        mp.setattr(Subspace, "project_onto", record)
        report.analyze(sys)
    assert seen
    return seen


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_every_projection_of_a_shipped_analyze_matches_the_fraction_route(monkeypatch, entry):
    for space, target, result in recorded_projections(monkeypatch, load_system(entry)):
        assert result == fraction_project_onto(space, target)


def test_every_projection_of_ladder_n9_analyze_matches_the_fraction_route(
    monkeypatch, ladder_seed_1  # noqa: F811
):
    sys = ladder_seed_1[0]
    assert sys.state_dim == 9
    for space, target, result in recorded_projections(monkeypatch, sys):
        assert result == fraction_project_onto(space, target)


def assert_identical(got, want):
    assert got.shape == want.shape
    assert all(type(x) is Fraction for x in got.flat)
    assert all(x == y for x, y in zip(got.flat, want.flat)), (got, want)


def assert_compressions_match(sys, run) -> list:
    """Every compression ``run()`` makes of ``sys`` equals the Fraction Gram formula's; returns them."""
    seen = []
    original = reduction._compress

    def record(source, subspace, *args):
        reduced = original(source, subspace, *args)
        seen.append((source, subspace, reduced))
        return reduced

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_compress", record)
        run()
    for source, subspace, reduced in seen:
        assert source is sys
        a, b, c = fraction_compress(sys, subspace)
        assert_identical(reduced.A.entries, a)
        assert_identical(reduced.B.entries, b)
        assert_identical(reduced.C.entries, c)
    return seen


def every_reduction(sys):
    """Each ``poset_reduce`` variant, and ``generalized_reduce`` on three sets of bounds."""
    for variant in REDUCTION_VARIANTS:
        poset_reduce(sys, variant)
    rp, op, kal = reach_profile(sys), obs_profile(sys), kalman(sys)
    reach, unobs = rp.reachable, op.unobservable
    generalized_reduce(sys, rp.independent, rp.ceiling, op.floor)
    generalized_reduce(sys, reach, reach, unobs)
    generalized_reduce(sys, kal.reach_obs, Subspace.full(sys.state_dim), unobs)


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_shipped_compressions_match_the_fraction_gram_formula(entry):
    sys = load_system(entry)
    assert len(assert_compressions_match(sys, lambda: every_reduction(sys))) == 6


@pytest.mark.parametrize("k", LADDER)
def test_ladder_compressions_match_the_fraction_gram_formula(ladder_seed_1, k):  # noqa: F811
    sys = ladder_seed_1[k]
    assert len(assert_compressions_match(sys, lambda: every_reduction(sys))) == 6


def pivots(space):
    return [next(x for x in col if x) for col in space.integer_basis.T.tolist()]


def compress_around_reach(sys, extra):
    """``generalized_reduce`` onto the reachable set plus ``extra``: no inner bound is cut."""
    outer = reach_profile(sys).reachable.sum(extra)
    zero = Subspace.zero(sys.state_dim)
    return assert_compressions_match(sys, lambda: generalized_reduce(sys, zero, outer, zero))


@SETTINGS
@given(st.data())
def test_compressions_onto_rational_subspaces_match_the_fraction_gram_formula(data):
    # the reductions of the shipped and ladder systems keep integer pivot-1
    # bases, where p = 1; a rational outer bound gives other pivots
    sys = data.draw(systems(max_n=5))
    extra = data.draw(spans(sys.state_dim)) if sys.state_dim else Subspace.zero(0)
    assert len(compress_around_reach(sys, extra)) == 1


def test_a_compression_with_unequal_basis_pivots():
    # b is an eigenvector of a, so the reachable set is its line; with the
    # line through (0, 5, 7) the canonical basis is (10, 0, -21), (0, 5, 7)
    a = la.fmat([[Fraction(1, 2), 0, 0], [0, Fraction(1, 2), 0], [0, 0, 3]])
    b = la.fmat([[Fraction(2, 3)], [1], [0]])
    c = la.fmat([[1, Fraction(2, 5), 0], [0, 0, Fraction(-3, 7)]])
    sys = one_node(a, b, c)
    [(_, subspace, reduced)] = compress_around_reach(sys, Subspace.from_columns(3, [[0, 5, 7]]))
    assert pivots(subspace) == [10, 5]
    # b = 2/3 v1 + v2 for the pivot-1 basis v1 = (1, 0, -21/10), v2 = (0, 1, 7/5)
    assert reduced.B.entries.tolist() == [[Fraction(2, 3)], [1]]
