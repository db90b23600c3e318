"""The structure tables against the scans they replaced.

``Poset.cones`` reads each node's down-set and up-set off the relation once,
and ``derived_set`` is a union of them; ``Partition.indices`` extends ranges
from ``Partition.starts``; ``system.model_integers`` slices with intp arrays.
Each must equal the route it replaced (``conftest.scanned_derived_set``,
``conftest.listed_indices``, ``conftest.ix_model_slices``) and raise the
same errors in the same order.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ix_model_slices, listed_indices, random_poset, random_system, scanned_derived_set
from posetsys.blockmat import Partition
from posetsys.errors import IndexOutOfRange, PartitionMismatch
from posetsys.fileio import load_system
from posetsys.poset import build_poset, derived_set
from posetsys.system import dual_system, model_integers
from test_power_loop_oracle import SHIPPED, _stem

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
KINDS = ("down", "up", "strict_down", "strict_up")


@st.composite
def posets(draw, max_p=7):
    """A poset on 1..p, p <= 7: random edges between the nodes of a random linear order."""
    p = draw(st.integers(1, max_p))
    order = draw(st.permutations(range(1, p + 1)))
    edges = [(order[a], order[b]) for a, b in combinations(range(p), 2) if draw(st.booleans())]
    return build_poset(p, edges)


def subsets(nodes):
    return (set(c) for k in range(len(nodes) + 1) for c in combinations(nodes, k))


@SETTINGS
@given(posets())
def test_derived_sets_match_the_scan_on_every_node_subset(poset):
    for members in subsets(poset.nodes):
        for kind in KINDS:
            got = derived_set(poset, members, kind)
            assert type(got) is frozenset
            assert got == scanned_derived_set(poset, members, kind), (sorted(members), kind)


@SETTINGS
@given(posets())
def test_cones_are_the_single_node_sets_and_are_built_once(poset):
    down, up = poset.cones
    assert poset.cones is poset.cones
    for i in poset.nodes:
        assert down[i - 1] == tuple(sorted(scanned_derived_set(poset, {i}, "down")))
        assert up[i - 1] == tuple(sorted(scanned_derived_set(poset, {i}, "up")))
    fresh = build_poset(poset.p, poset.relation)
    assert fresh == poset and hash(fresh) == hash(poset)


def raised(fn, *args):
    try:
        fn(*args)
    except (ValueError, IndexOutOfRange) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("members", [{0}, {5}, {1, 6}, {-1, 2}])
@pytest.mark.parametrize("kind", [*KINDS, "sideways"])
def test_bad_nodes_and_kinds_raise_as_the_scan_did(members, kind):
    poset = build_poset(4, [(1, 2), (2, 3)])
    got = raised(derived_set, poset, members, kind)
    assert got == raised(scanned_derived_set, poset, members, kind)
    # a bad kind is reported before a bad node
    assert got[0] is (ValueError if kind == "sideways" else IndexOutOfRange)


def test_a_bad_kind_on_good_nodes_raises_value_error():
    poset = build_poset(3, [])
    with pytest.raises(ValueError):
        derived_set(poset, {1}, "sideways")
    with pytest.raises(ValueError):
        derived_set(poset, set(), "sideways")


@SETTINGS
@given(st.lists(st.integers(0, 3), min_size=1, max_size=7), st.data())
def test_partition_indices_match_the_comprehension(sizes, data):
    part = Partition(sizes)
    for members in subsets(range(1, part.count + 1)):
        got = part.indices(members)
        assert type(got) is list and got == listed_indices(part, members)
    repeated = data.draw(st.lists(st.integers(1, part.count), max_size=10))
    assert part.indices(repeated) == listed_indices(part, repeated)
    assert part.indices(range(1, part.count + 1)) == list(range(part.total))
    for bad in ([0], [part.count + 1], [1, part.count + 1]):
        with pytest.raises(PartitionMismatch):
            part.indices(bad)
        with pytest.raises(PartitionMismatch):
            listed_indices(part, bad)


def assert_model_integers_match(sys):
    kinds = [("global", None)] + [(k, i) for k in ("local", "downstream", "upstream") for i in sys.poset.nodes]
    for kind, i in kinds:
        oracle = ix_model_slices(sys, sys._integer_form[0], kind, i)
        for got, want in zip(model_integers(sys, kind, i), oracle):
            assert got.dtype == object and got.shape == want.shape, (kind, i)
            assert got.tolist() == want.tolist(), (kind, i)


@pytest.mark.parametrize("entry", SHIPPED, ids=_stem)
def test_model_integers_match_the_ix_slices(entry):
    sys = load_system(entry)
    for s in (sys, dual_system(sys)):
        assert_model_integers_match(s)


def test_model_integers_match_the_ix_slices_with_empty_blocks():
    rng = random.Random(7)
    empty = 0
    for p in (1, 3, 5):
        for _ in range(6):
            sys = random_system(rng, random_poset(rng, p), max_block=2)
            empty += 0 in sys.n.sizes + sys.m.sizes + sys.r.sizes
            for s in (sys, dual_system(sys)):
                assert_model_integers_match(s)
    assert empty  # some model is 0 x k
