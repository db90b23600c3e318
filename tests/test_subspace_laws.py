"""Lattice laws of exact subspaces, on random rational subspaces.

Each subspace is spanned by a few random columns with small rational entries,
so zero, dependent and full-rank spanning sets all occur. Subspaces are
compared with ``==``, which compares canonical bases entry by entry.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from posetsys import _linalg as la
from posetsys.blockmat import Partition
from posetsys.reachability import coordinate_subspace
from posetsys.subspace import Subspace

LAWS = settings(max_examples=120, deadline=None, derandomize=True)

_entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _subspace(ambient):
    column = st.lists(_entries, min_size=ambient, max_size=ambient)
    return st.lists(column, max_size=4).map(lambda cols: Subspace.from_columns(ambient, cols))


@st.composite
def _subspaces(draw, count):
    ambient = draw(st.integers(0, 5))
    return [draw(_subspace(ambient)) for _ in range(count)]


@LAWS
@given(_subspaces(2))
def test_sum_and_intersect_commute_and_absorb(pair):
    u, w = pair
    assert u.sum(w) == w.sum(u)
    assert u.intersect(w) == w.intersect(u)
    assert u.sum(u.intersect(w)) == u
    assert u.intersect(u.sum(w)) == u


@LAWS
@given(_subspaces(2))
def test_dimension_formula_pins_the_intersection(pair):
    u, w = pair
    both = u.intersect(w)
    assert u.contains(both) and w.contains(both)
    assert u.sum(w).dim + both.dim == u.dim + w.dim


@LAWS
@given(_subspaces(3))
def test_modular_law(triple):
    u, w, x = triple
    x = x.sum(u)  # the law needs u <= x
    assert u.sum(w.intersect(x)) == u.sum(w).intersect(x)


@LAWS
@given(_subspaces(2))
def test_complement_is_an_involution_and_de_morgan_holds(pair):
    u, w = pair
    assert u.complement().complement() == u
    assert u.complement().dim == u.ambient - u.dim
    assert u.sum(w).complement() == u.complement().intersect(w.complement())
    assert u.intersect(w).complement() == u.complement().sum(w.complement())


@st.composite
def _partition_and_nodes(draw):
    sizes = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    nodes = draw(st.sets(st.integers(1, len(sizes))))
    return Partition(sizes), nodes


def _coordinates(partition, nodes):
    """Coordinates owned by ``nodes``, read off the sizes one coordinate at a time."""
    owner = [j for j, size in enumerate(partition.sizes, start=1) for _ in range(size)]
    return [k for k, j in enumerate(owner) if j in nodes]


def _unit(total, k):
    return [Fraction(int(r == k)) for r in range(total)]


@LAWS
@given(_partition_and_nodes(), st.data())
def test_coordinate_subspace_and_project_match_unit_vectors(part_nodes, data):
    partition, nodes = part_nodes
    total = partition.total
    keep = _coordinates(partition, nodes)
    expected = Subspace.from_columns(total, [_unit(total, k) for k in keep])
    assert coordinate_subspace(partition, nodes) == expected

    u = data.draw(_subspace(total))
    mask = la.zeros(total, total)
    for k in keep:
        mask[k, k] = Fraction(1)
    assert u.coordinate_project(partition, nodes) == u.apply(mask)
