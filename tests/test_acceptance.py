"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value below is frozen from the known closed-form analysis of
the corpus systems; comparisons are exact (canonical bases) unless a float
tolerance is stated inline. Runtime limits are asserted where given.
"""

import random
import time

import numpy as np

from conftest import NAMED_POSETS, named_poset, random_locally_controllable_system, random_system
from posetsys import _linalg as la
from posetsys.blockmat import BlockMatrix, Partition, compress, is_incident
from posetsys.corpus import _span, load_corpus_system
from posetsys.duality import verify_duality
from posetsys.errors import SingularMatrix
from posetsys.observability import profile as obs_profile
from posetsys.poset import derived_set
from posetsys.reachability import (
    char_poly_factored,
    ctrb_matrix,
    pole_place,
    profile as reach_profile,
    reachable,
)
from posetsys.reduction import kalman, moments_equal, poset_reduce
from posetsys.sim import InputSignal, simulate, verify_trajectory_decomposition
from posetsys.system import dual_system

from conftest import structured_random_matrix


def _passed(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_reachability_golden_values():
    start = time.monotonic()
    sys = load_corpus_system("exLargeEx")
    rp = reach_profile(sys)
    X = 11

    assert rp.reachable.equals(_span(X, [{1: 1}, {3: 1}, {4: 1}, {5: 1, 10: 1},
                                         {6: 1}, {8: 1}, {9: 1}, {11: 1}]))
    downstream = {
        1: [{1: 1}, {3: 1}, {4: 1, 8: 1}, {9: 1}],
        2: [{4: 1}, {9: 1}],
        3: [{5: 1, 10: 1}, {6: 1, 11: 1}],
        4: [{9: 1}, {11: 1}],
    }
    for j, combo in downstream.items():
        assert rp.downstream[j].equals(_span(X, combo))

    exclusive = {
        (1, 1): [{1: 1}], (2, 1): [{3: 1}], (4, 1): [{9: 1}],
        (2, 2): [{4: 1}], (4, 2): [{9: 1}],
        (3, 3): [], (4, 3): [],
        (4, 4): [{9: 1}, {11: 1}],
    }
    assert set(rp.exclusive) == set(exclusive)
    for key, combo in exclusive.items():
        assert rp.exclusive[key].equals(_span(X, combo))

    per_node = {
        1: ([{1: 1}], [{1: 1}], [{1: 1}]),
        2: ([{3: 1}, {4: 1}], [{3: 1}, {4: 1}], [{3: 1}, {4: 1}]),
        3: ([], [{6: 1}], [{5: 1}, {6: 1}]),
        4: ([{9: 1}, {11: 1}], [{8: 1}, {9: 1}, {11: 1}],
            [{8: 1}, {9: 1}, {10: 1}, {11: 1}]),
    }
    for j, (indep, floor, ceil) in per_node.items():
        assert rp.node_independent[j].equals(_span(X, indep))
        assert rp.node_floor[j].equals(_span(X, floor))
        assert rp.node_ceiling[j].equals(_span(X, ceil))

    assert rp.independent.equals(_span(X, [{1: 1}, {3: 1}, {4: 1}, {9: 1}, {11: 1}]))
    assert rp.floor.equals(_span(X, [{1: 1}, {3: 1}, {4: 1}, {6: 1}, {8: 1}, {9: 1}, {11: 1}]))
    assert rp.ceiling.equals(_span(X, [{1: 1}, {3: 1}, {4: 1}, {5: 1}, {6: 1},
                                       {8: 1}, {9: 1}, {10: 1}, {11: 1}]))

    # strict chain 0 < independent < floor < reachable < ceiling < X
    assert 0 < rp.independent.dim < rp.floor.dim < rp.reachable.dim < rp.ceiling.dim < X
    assert rp.floor.contains(rp.independent) and not rp.independent.contains(rp.floor)
    assert rp.reachable.contains(rp.floor) and not rp.floor.contains(rp.reachable)
    assert rp.ceiling.contains(rp.reachable) and not rp.reachable.contains(rp.ceiling)

    # shared image under A and invariance of all four subspaces
    a = sys.A.entries
    image = _span(X, [{1: 1}, {3: 1}, {9: 1}, {11: 1}])
    for space in (rp.independent, rp.floor, rp.reachable):
        assert space.apply(a).equals(image)
        assert space.contains(space.apply(a))
    assert rp.ceiling.contains(rp.ceiling.apply(a))

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _passed("criterion 1 (reachability golden values, strict chain, A-images)")


def test_criterion_02_observability_golden_values():
    start = time.monotonic()
    sys = load_corpus_system("exObsEx")
    op = obs_profile(sys)
    X = 11

    assert op.unobservable.equals(_span(X, [{2: -1, 4: 1}, {5: -1, 10: 1},
                                            {8: 1}, {9: 1}, {11: 1}]))
    upstream = {
        1: [{2: 1}],
        2: [{1: 1}, {2: -1, 4: 1}, {3: 1}],
        3: [{5: 1}, {7: 1}],
        4: [{2: 1}, {4: 1}, {5: -1, 10: 1}, {6: 1}, {8: 1}, {9: 1}, {11: 1}],
    }
    for i, combo in upstream.items():
        assert op.upstream[i].equals(_span(X, combo))

    floors = {1: [], 2: [], 3: [], 4: [{8: 1}, {9: 1}, {11: 1}]}
    outers = {1: [{2: 1}], 2: [{4: 1}], 3: [{5: 1}],
              4: [{8: 1}, {9: 1}, {10: 1}, {11: 1}]}
    for j in (1, 2, 3, 4):
        assert op.node_floor[j].equals(_span(X, floors[j]))
        assert op.node_independent[j].equals(_span(X, outers[j]))
        assert op.node_ceiling[j].equals(_span(X, outers[j]))

    assert op.floor.equals(_span(X, [{8: 1}, {9: 1}, {11: 1}]))
    full = [{2: 1}, {4: 1}, {5: 1}, {8: 1}, {9: 1}, {10: 1}, {11: 1}]
    assert op.ceiling.equals(_span(X, full))
    assert op.independent.equals(_span(X, full))

    # chain 0 < floor < unobservable < ceiling = independent < X
    assert 0 < op.floor.dim < op.unobservable.dim < op.ceiling.dim < X
    assert op.unobservable.contains(op.floor) and not op.floor.contains(op.unobservable)
    assert op.ceiling.contains(op.unobservable) and not op.unobservable.contains(op.ceiling)
    assert op.ceiling.equals(op.independent)
    assert not op.observable

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _passed("criterion 2 (observability golden values and chain)")


def test_criterion_03_local_hull_escapes_reachable_set():
    sys = load_corpus_system("two-node-local-gap")
    rp = reach_profile(sys)
    assert rp.local_hull.equals(_span(2, [{1: 1}]))
    assert rp.reachable.equals(_span(2, [{1: 1, 2: 1}]))
    assert not rp.reachable.contains(rp.local_hull)
    _passed("criterion 3 (per-node hull is no lower bound for the reachable set)")


def test_criterion_04_structured_feedback_keeps_zero_eigenvalue():
    sys = load_corpus_system("feedback-obstruction")
    rp = reach_profile(sys)
    assert rp.controllable
    assert not rp.weakly_locally_controllable
    rng = random.Random(404)
    for _ in range(100):
        f = la.zeros(sys.input_dim, sys.state_dim)
        for i in sys.poset.nodes:
            for j in sys.poset.nodes:
                if sys.poset.geq(j, i):
                    for rr in sys.m.block_range(i):
                        for cc in sys.n.block_range(j):
                            f[rr, cc] = la.F(rng.randint(-5, 5))
        assert is_incident(BlockMatrix(f, sys.m, sys.n), sys.poset)
        closed = BlockMatrix(sys.A.entries + la.mdot(sys.B.entries, f), sys.n, sys.n)
        fact = char_poly_factored(closed, sys.poset)
        assert fact.eval_at(0) == 0
    _passed("criterion 4 (0 is an eigenvalue under all 100 structured feedbacks)")


def test_criterion_05_structured_reductions_of_the_gap_system():
    sys = load_corpus_system("kalman-structured-gap")
    kal = kalman(sys)
    assert kal.reach_obs.equals(_span(4, [{1: 1}]))

    primal = poset_reduce(sys, "primal")
    assert primal.block_dims == (2, 1)
    assert primal.total_dim == 3
    rp = reach_profile(sys)
    assert rp.node_independent[1].equals(rp.node_floor[1])
    assert rp.node_independent[2].equals(rp.node_floor[2])
    blocks = primal.subspace
    assert blocks.coordinate_project(sys.n, (1,)).equals(_span(4, [{1: 1}, {2: 1}]))
    assert blocks.coordinate_project(sys.n, (2,)).equals(_span(4, [{4: 1}]))
    assert primal.moment_horizon == sys.state_dim + primal.total_dim - 1
    assert moments_equal(sys, primal.system)

    dual_tilde = poset_reduce(sys, "dual_tilde")
    assert dual_tilde.total_dim == 1
    assert dual_tilde.subspace.equals(_span(4, [{1: 1}]))
    assert dual_tilde.moment_horizon == sys.state_dim + dual_tilde.total_dim - 1
    assert moments_equal(sys, dual_tilde.system)
    _passed("criterion 5 (structured reductions: dims 3 and 1, moments exact)")


def test_criterion_06_duality_suite_200_randomized_systems():
    start = time.monotonic()
    rng = random.Random(606)
    names = sorted(NAMED_POSETS)
    for k in range(200):
        poset = named_poset(names[k % len(names)])
        sys = random_system(rng, poset, max_block=3, lo=-3, hi=3)
        rep = verify_duality(sys)
        assert rep.ok, f"system {k}:\n{rep.describe()}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed(f"criterion 6 (200 randomized duality suites in {elapsed:.1f}s)")


def test_criterion_07_structure_calculus_suite():
    start = time.monotonic()
    rng = random.Random(707)
    names = sorted(NAMED_POSETS)

    # closure of the pattern under product and inverse
    for k in range(500):
        poset = named_poset(names[k % len(names)])
        rs = [rng.randint(0, 2) for _ in range(poset.p)]
        ns = [rng.randint(0, 2) for _ in range(poset.p)]
        ms = [rng.randint(0, 2) for _ in range(poset.p)]
        g = BlockMatrix(structured_random_matrix(rng, poset, rs, ns), Partition(rs), Partition(ns))
        h = BlockMatrix(structured_random_matrix(rng, poset, ns, ms), Partition(ns), Partition(ms))
        prod = BlockMatrix(la.mdot(g.entries, h.entries), Partition(rs), Partition(ms))
        assert is_incident(prod, poset)
        square = BlockMatrix(structured_random_matrix(rng, poset, ns, ns),
                             Partition(ns), Partition(ns))
        try:
            inv = la.inverse(square.entries)
        except SingularMatrix:
            inv = None
        if inv is not None:
            assert is_incident(BlockMatrix(inv, Partition(ns), Partition(ns)), poset)

    # compression shortcut through any superset of the down-set
    for k in range(500):
        poset = named_poset(names[k % len(names)])
        rs = [rng.randint(0, 2) for _ in range(poset.p)]
        ns = [rng.randint(0, 2) for _ in range(poset.p)]
        ms = [rng.randint(0, 2) for _ in range(poset.p)]
        gd = la.zeros(sum(rs), sum(ns))
        for rr in range(sum(rs)):
            for cc in range(sum(ns)):
                gd[rr, cc] = la.F(rng.randint(-3, 3))
        g = BlockMatrix(gd, Partition(rs), Partition(ns))
        h = BlockMatrix(structured_random_matrix(rng, poset, ns, ms), Partition(ns), Partition(ms))
        q = {j for j in poset.nodes if rng.random() < 0.6}
        s = {j for j in poset.nodes if rng.random() < 0.6}
        mid = derived_set(poset, s, "down") | {j for j in poset.nodes if rng.random() < 0.3}
        full = BlockMatrix(la.mdot(g.entries, h.entries), Partition(rs), Partition(ms))
        want = compress(full, q, s)
        left = compress(g, q, mid)
        right = compress(h, mid, s)
        assert np.array_equal(la.mdot(left.entries, right.entries), want.entries)

    # coordinate spaces of down-sets are invariant under the pattern
    for k in range(500):
        poset = named_poset(names[k % len(names)])
        ns = [rng.randint(0, 2) for _ in range(poset.p)]
        h = BlockMatrix(structured_random_matrix(rng, poset, ns, ns), Partition(ns), Partition(ns))
        s = {j for j in poset.nodes if rng.random() < 0.5}
        down = derived_set(poset, s, "down")
        outside = set(poset.nodes) - down
        narrowed = compress(h, outside, down)
        assert la.is_zero_matrix(narrowed.entries)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _passed(f"criterion 7 (3x500 structure-calculus instances in {elapsed:.1f}s)")


def test_criterion_08_implication_suite():
    rng = random.Random(808)
    names = sorted(NAMED_POSETS)
    for k in range(100):
        poset = named_poset(names[k % len(names)])
        sys = random_locally_controllable_system(rng, poset, max_block=3)
        assert la.rank(ctrb_matrix(sys.A.entries, sys.B.entries)) == sys.state_dim
    for k in range(100):
        poset = named_poset(names[k % len(names)])
        sys = dual_system(random_locally_controllable_system(rng, poset, max_block=3))
        op = obs_profile(sys)
        assert op.weakly_locally_observable and op.observable
    for k in range(25):
        poset = named_poset(names[k % len(names)])
        sys = random_locally_controllable_system(rng, poset, max_block=2)
        targets = {
            j: [la.F(rng.randint(-4, 4)) for _ in range(sys.n.size(j))] + [la.F(1)]
            for j in poset.nodes
        }
        f = pole_place(sys, targets, seed=k)
        product = [la.F(1)]
        for j in poset.nodes:
            closed = sys.A.block(j, j) + la.mdot(sys.B.block(j, j), f.block(j, j))
            assert la.char_poly(closed) == targets[j]
            product = la.poly_mul(product, targets[j])
        total = sys.A.entries + la.mdot(sys.B.entries, f.entries)
        assert la.char_poly(total) == product
    _passed("criterion 8 (local controllability/observability implications, pole placement)")


def test_criterion_09_simulation_suite():
    rng = random.Random(909)
    names = sorted(NAMED_POSETS)
    for k in range(20):
        poset = named_poset(names[k % len(names)])
        sys = random_system(rng, poset, allow_zero_blocks=False, lo=-1, hi=1)
        u = InputSignal(
            step=1e-2,
            values=np.array([[rng.uniform(-1, 1) for _ in range(sys.input_dim)]
                             for _ in range(100)]),
        )
        x0 = [rng.uniform(-1, 1) for _ in range(sys.state_dim)]
        rep = verify_trajectory_decomposition(sys, x0, u, tolerance=1e-8)
        assert rep.ok, f"system {k}:\n{rep.describe()}"

        traj = simulate(sys, None, u)
        space = reachable(sys)
        final = traj.states[-1]
        if space.dim:
            q, _ = np.linalg.qr(la.mat_to_float(space.basis))
            residual = final - q @ (q.T @ final)
        else:
            residual = final
        assert np.max(np.abs(residual), initial=0.0) < 1e-8
    _passed("criterion 9 (20 simulation decompositions within 1e-8)")


def test_criterion_10_demo_corpus_exits_clean(capsys):
    from posetsys.cli import main

    code = main(["demo"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "all corpus checks passed" in out
    assert "FAIL" not in out
    _passed("criterion 10 (full demo corpus recomputes its published values)")
