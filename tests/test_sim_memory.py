"""Peak memory of the trajectory-decomposition check does not grow with the poset's depth.

The check folds each downstream trajectory into the global sums and into the
splits of the nodes below it as it arrives, and drops it at once. So besides
the global trajectory, the sums, and the local trajectories and splits (one
global trajectory's width each), it holds one downstream trajectory at a time.
On a p-node chain every node lies below all earlier ones; a check that kept
each downstream trajectory until the last node below it is split would hold
them all, and its peak over one global trajectory would grow with p.
"""

import random
import tracemalloc

import numpy as np

from conftest import structured_random_matrix
from posetsys.poset import build_poset
from posetsys.sim import InputSignal, verify_trajectory_decomposition
from posetsys.system import PosetCausalSystem

STEPS = 2000


def _chain(p):
    rng = random.Random(p)
    poset = build_poset(p, [(k, k + 1) for k in range(1, p)])
    n, m, r = [4] * p, [1] * p, [1] * p
    mats = {name: structured_random_matrix(rng, poset, rows, cols, -1, 1)
            for name, rows, cols in (("A", n, n), ("B", n, m), ("C", r, n), ("D", r, m))}
    return PosetCausalSystem(poset=poset, n=n, m=m, r=r, **mats)


def _peak_over_one_trajectory(p):
    """The check's tracemalloc peak over the bytes of one global states + outputs trajectory."""
    sys = _chain(p)
    u = InputSignal(step=0.001, values=np.random.default_rng(0).uniform(-1.0, 1.0, (STEPS, p)))
    tracemalloc.start()
    try:
        report = verify_trajectory_decomposition(sys, np.ones(sys.state_dim), u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok, report.describe()
    return peak / ((STEPS + 1) * (sys.state_dim + sys.output_dim) * 8)


def test_the_check_peak_does_not_grow_with_chain_depth():
    # measured 7.99 at p = 4 and 7.86 at p = 12; keeping every downstream trajectory
    # until the last split gave 7.05 and 11.54
    shallow, deep = _peak_over_one_trajectory(4), _peak_over_one_trajectory(12)
    assert deep <= 1.1 * shallow, (shallow, deep)
