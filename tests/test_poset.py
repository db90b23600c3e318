import numpy as np
import pytest

from conftest import (
    NAMED_POSETS,
    closure_oracle,
    fixpoint_poset,
    looped_ultra_transitivity,
    named_poset,
    random_poset,
    scanned_block_triangular_relabel,
    scanned_derived_set,
    scanned_hasse_edges,
)
from posetsys.errors import CycleError, IndexOutOfRange
from posetsys.poset import (
    Poset,
    block_triangular_relabel,
    build_poset,
    derived_set,
    dual_poset,
    hasse_edges,
    level_sets,
    ultra_transitivity,
)

EXAMPLE_EDGES = [(1, 2), (3, 2), (2, 4)]


def test_build_closes_transitively():
    poset = build_poset(4, EXAMPLE_EDGES)
    assert poset.geq(1, 4) and poset.geq(3, 4)
    assert poset.relation == closure_oracle(4, EXAMPLE_EDGES)


def test_build_antichain():
    poset = build_poset(3, [])
    assert poset.relation == {(i, i) for i in (1, 2, 3)}


def test_build_rejects_cycle_with_witness():
    with pytest.raises(CycleError) as info:
        build_poset(2, [(1, 2), (2, 1)])
    assert set(info.value.cycle) == {1, 2}


@pytest.mark.parametrize(
    "p, edges, witness",
    [
        # a fixpoint closure once met 8 first in the set below 1 (8 hashes to slot 0)
        (8, [(5, 1), (1, 8), (6, 1), (7, 5), (1, 6), (8, 1), (1, 2)], [1, 6, 1]),
        # Warshall's closure met 16 first in the set below 6 and gave [6, 15, 16, 6]
        (19, [(10, 7), (3, 19), (14, 7), (15, 16), (6, 19), (13, 8), (11, 2), (6, 15), (15, 6), (16, 6)],
         [6, 15, 6]),
        # joining a BFS path 1 -> 2 to a path 2 -> 1 gave the closed walk [1, 3, 2, 3, 1]
        (3, [(1, 3), (3, 2), (2, 3), (3, 1)], [1, 3, 1]),
        # and here [1, 11, 4, 11, 16, 1], which passes 11 twice
        (22, [(16, 1), (19, 18), (19, 21), (20, 19), (9, 6), (9, 5), (11, 4), (14, 4), (9, 4), (11, 16),
              (14, 7), (3, 3), (1, 11), (3, 12), (4, 11), (13, 2)], [1, 11, 16, 1]),
    ],
)
def test_the_cycle_witness_does_not_depend_on_set_order(p, edges, witness):
    # the witness is the shortest cycle through the smallest node on a cycle, found by one BFS that
    # takes each node's successors in increasing order
    for order in (edges, edges[::-1], sorted(edges)):
        with pytest.raises(CycleError) as info:
            build_poset(p, order)
        assert info.value.cycle == witness


def test_build_rejects_bad_labels():
    with pytest.raises(IndexOutOfRange):
        build_poset(2, [(1, 3)])


def test_derived_sets_on_example():
    poset = build_poset(4, EXAMPLE_EDGES)
    assert derived_set(poset, {1}, "down") == {1, 2, 4}
    assert derived_set(poset, {2}, "strict_up") == {1, 3}
    assert derived_set(poset, {1}, "strict_down") == {2, 4}
    assert derived_set(poset, set(), "up") == frozenset()


def test_derived_set_idempotent_and_adjoint(rng):
    for _ in range(20):
        poset = random_poset(rng, rng.randint(1, 7))
        members = {j for j in poset.nodes if rng.random() < 0.4}
        down = derived_set(poset, members, "down")
        up = derived_set(poset, members, "up")
        assert derived_set(poset, down, "down") == down
        assert derived_set(poset, up, "up") == up
        for i in poset.nodes:
            for j in poset.nodes:
                assert (i in derived_set(poset, {j}, "up")) == (
                    j in derived_set(poset, {i}, "down")
                )


def test_dual_poset_involution_and_swap(rng):
    poset = build_poset(4, EXAMPLE_EDGES)
    dual = dual_poset(poset)
    assert dual.geq(2, 1) and not dual.geq(1, 2)
    assert dual_poset(dual) == poset
    for _ in range(10):
        p = random_poset(rng, rng.randint(1, 6))
        members = {j for j in p.nodes if rng.random() < 0.5}
        assert derived_set(dual_poset(p), members, "up") == derived_set(p, members, "down")


def test_dual_swaps_ultra_transitivity(rng):
    for name in NAMED_POSETS:
        poset = named_poset(name)
        in_u, out_u = ultra_transitivity(poset)
        din, dout = ultra_transitivity(dual_poset(poset))
        assert (in_u, out_u) == (dout, din)


def test_hasse_edges_examples():
    assert hasse_edges(build_poset(4, EXAMPLE_EDGES)) == {(1, 2), (3, 2), (2, 4)}
    assert hasse_edges(build_poset(3, [])) == frozenset()
    assert hasse_edges(build_poset(3, [(1, 2), (2, 3)])) == {(1, 2), (2, 3)}


def test_hasse_round_trip(rng):
    for _ in range(25):
        poset = random_poset(rng, rng.randint(1, 7))
        assert build_poset(poset.p, hasse_edges(poset)) == poset


def test_ultra_transitivity_matches_the_relation_loop_on_random_posets(rng):
    seen = set()
    for _ in range(1500):
        poset = random_poset(rng, rng.randint(1, 8))
        flags = ultra_transitivity(poset)
        assert flags == looped_ultra_transitivity(poset), sorted(hasse_edges(poset))
        seen.add(flags)
    # every combination of the two flags occurs, so neither side can be a constant
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("name", sorted(NAMED_POSETS))
def test_ultra_transitivity_matches_the_relation_loop_on_named_posets(name):
    for poset in (named_poset(name), dual_poset(named_poset(name))):
        assert ultra_transitivity(poset) == looped_ultra_transitivity(poset)


def test_ultra_transitivity_named_cases():
    assert ultra_transitivity(named_poset("p2")) == (True, False)
    assert ultra_transitivity(named_poset("p3")) == (False, True)
    assert ultra_transitivity(named_poset("p5")) == (False, False)
    assert ultra_transitivity(named_poset("p6")) == (True, True)


def _up_size(poset, j):
    return len(derived_set(poset, {j}, "up"))


def test_level_sets_total_order():
    poset = build_poset(3, [(1, 2), (2, 3)])
    levels, rings = level_sets(poset)
    assert levels == [frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})]
    assert rings == [frozenset({2}), frozenset({3}), frozenset()]


def test_level_sets_antichain():
    levels, rings = level_sets(build_poset(4, []))
    assert levels[0] == frozenset({1, 2, 3, 4})
    assert all(not r for r in rings)


def test_level_sets_match_up_set_sizes(rng):
    # oracle: recompute the filtration from the raw up-set sizes
    cases = [build_poset(4, EXAMPLE_EDGES)] + [random_poset(rng, rng.randint(1, 7)) for _ in range(10)]
    for poset in cases:
        levels, rings = level_sets(poset)
        for k in range(1, poset.p + 1):
            assert levels[k - 1] == {j for j in poset.nodes if _up_size(poset, j) <= k}
        assert levels[-1] == frozenset(poset.nodes)
        assert rings[-1] == frozenset()
        for k in range(poset.p - 1):
            assert rings[k] == levels[k + 1] - levels[k]
            for i in rings[k]:
                assert derived_set(poset, {i}, "strict_up") <= levels[k]


def test_level_sets_example_poset():
    # up-set sizes here are 1, 3, 1, 4, so node 2 enters at level three
    levels, _ = level_sets(build_poset(4, EXAMPLE_EDGES))
    assert levels[0] == {1, 3}
    assert levels[1] == {1, 3}
    assert levels[2] == {1, 2, 3}
    assert levels[3] == {1, 2, 3, 4}


def test_relabel_identity_cases():
    assert block_triangular_relabel(build_poset(3, [(1, 2), (2, 3)])) == {1: 1, 2: 2, 3: 3}
    assert block_triangular_relabel(build_poset(3, [])) == {1: 1, 2: 2, 3: 3}


def test_relabel_is_linear_extension(rng):
    cases = [named_poset(n) for n in NAMED_POSETS] + [
        random_poset(rng, rng.randint(1, 7)) for _ in range(15)
    ]
    for poset in cases:
        perm = block_triangular_relabel(poset)
        assert sorted(perm.values()) == list(poset.nodes)
        for j, i in poset.relation:
            assert perm[j] <= perm[i]


def test_relabel_permutation_triangularizes_patterns(rng):
    # permuting blocks by the relabeling turns any pattern matrix into a
    # block lower triangle
    from conftest import structured_random_matrix

    for _ in range(10):
        poset = random_poset(rng, rng.randint(1, 6))
        perm = block_triangular_relabel(poset)
        sizes = [rng.randint(1, 2) for _ in range(poset.p)]
        m = structured_random_matrix(rng, poset, sizes, sizes)
        new_sizes = [0] * poset.p
        for old, new in perm.items():
            new_sizes[new - 1] = sizes[old - 1]
        off = [sum(sizes[:k]) for k in range(poset.p + 1)]
        noff = [sum(new_sizes[:k]) for k in range(poset.p + 1)]
        relabeled = [[0] * sum(sizes) for _ in range(sum(sizes))]
        for old_i in poset.nodes:
            for old_j in poset.nodes:
                ni, nj = perm[old_i], perm[old_j]
                for a in range(sizes[old_i - 1]):
                    for b in range(sizes[old_j - 1]):
                        relabeled[noff[ni - 1] + a][noff[nj - 1] + b] = m[off[old_i - 1] + a, off[old_j - 1] + b]
        for bi in range(poset.p):
            for bj in range(bi + 1, poset.p):
                for a in range(noff[bi], noff[bi + 1]):
                    for b in range(noff[bj], noff[bj + 1]):
                        assert relabeled[a][b] == 0


def _scanned_level_sets(poset):
    sizes = {j: len(scanned_derived_set(poset, {j}, "up")) for j in poset.nodes}
    levels = [frozenset(j for j in poset.nodes if sizes[j] <= k) for k in range(1, poset.p + 1)]
    return levels, [levels[k + 1] - levels[k] for k in range(poset.p - 1)] + [frozenset()]


def _assert_readings_match_the_scans(poset):
    # every reading of the cones equals the scan of the relation it replaced, on the poset and its dual
    for q in (poset, dual_poset(poset)):
        assert q.cones == Poset(q.p, q.relation).cones  # a dual's cones are the ones its relation gives
        assert hasse_edges(q) == scanned_hasse_edges(q)
        assert block_triangular_relabel(q) == scanned_block_triangular_relabel(q)
        assert level_sets(q) == _scanned_level_sets(q)


def _random_edges(rng, p):
    # random downward edges, as random_poset draws them, under a random relabeling of the nodes
    labels = list(range(1, p + 1))
    rng.shuffle(labels)
    return [(labels[j], labels[i]) for j in range(p) for i in range(j + 1, p) if rng.random() < 0.4]


def test_order_readings_match_the_scans_on_random_posets(rng):
    relabeled = 0
    for _ in range(1500):
        p = rng.randint(1, 8)
        edges = _random_edges(rng, p)
        poset = build_poset(p, edges)
        assert poset == fixpoint_poset(p, edges)
        _assert_readings_match_the_scans(poset)
        relabeled += block_triangular_relabel(poset) != {j: j for j in poset.nodes}
    # the labels are no linear extension most of the time, so the relabeling has work to do
    assert relabeled > 800


@pytest.mark.parametrize("name", sorted(NAMED_POSETS))
def test_order_readings_match_the_scans_on_named_posets(name):
    poset = named_poset(name)
    assert fixpoint_poset(poset.p, poset.relation) == poset
    _assert_readings_match_the_scans(poset)


def test_dual_poset_is_handed_the_cones_swapped(rng):
    for _ in range(50):
        poset = random_poset(rng, rng.randint(1, 8))
        dual = dual_poset(poset)
        assert vars(dual)["cones"] == poset.cones[::-1]
        assert dual_poset(dual).cones == poset.cones
        assert dual.cones == Poset(dual.p, dual.relation).cones


def test_cycles_are_refused_as_the_fixpoint_closure_refuses_them(rng):
    # both closures hand the smallest node on a cycle to the same BFS, so they give the same witness:
    # a cycle of raw edges that starts there
    cyclic = 0
    for _ in range(1500):
        p = rng.randint(1, 10)
        edges = [(rng.randint(1, p), rng.randint(1, p)) for _ in range(rng.randint(0, 2 * p))]
        try:
            expected = fixpoint_poset(p, edges)
        except CycleError as exc:
            with pytest.raises(CycleError) as info:
                build_poset(p, edges)
            cycle = info.value.cycle
            assert cycle == exc.cycle and cycle[0] == cycle[-1] and len(cycle) > 2
            assert len(set(cycle)) == len(cycle) - 1, (edges, cycle)
            assert all(step in edges for step in zip(cycle, cycle[1:])), (edges, cycle)
            cyclic += 1
        else:
            assert build_poset(p, edges) == expected
    assert 300 < cyclic < 1200


def test_every_witness_is_a_shortest_cycle_through_the_smallest_node_on_one(rng):
    # shortest paths over the raw edges (scipy), an oracle independent of the BFS in _witness_cycle
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    cyclic = 0
    for _ in range(400):
        p = rng.randint(9, 40)
        edges = [(rng.randint(1, p), rng.randint(1, p)) for _ in range(rng.randint(p // 2, 3 * p // 2))]
        adjacency = np.zeros((p + 1, p + 1))
        for j, i in edges:
            adjacency[j, i] = 1
        dist = csgraph.shortest_path(adjacency, unweighted=True)
        on_cycle = [j for j in range(1, p + 1) if any(
            i != j and dist[j, i] < np.inf and dist[i, j] < np.inf for i in range(1, p + 1))]
        if not on_cycle:
            assert build_poset(p, edges).p == p
            continue
        with pytest.raises(CycleError) as info:
            build_poset(p, edges)
        cycle = info.value.cycle
        a = min(on_cycle)
        assert cycle[0] == cycle[-1] == a and len(set(cycle)) == len(cycle) - 1 > 1, (edges, cycle)
        assert all(step in edges for step in zip(cycle, cycle[1:])), (edges, cycle)
        assert len(cycle) - 1 == min(dist[a, u] + 1 for u in range(1, p + 1) if u != a and (u, a) in edges)
        cyclic += 1
    assert 100 < cyclic < 350
