"""The trajectory-decomposition check on float slices of the system's matrices.

``verify_trajectory_decomposition`` converts the system's exact A, B, C, D to
doubles once and simulates each derived model on slices of them, at the
``Partition.indices`` of the model's nodes. Each slice must equal the
conversion of the derived model's own matrix, and the report must be
bit-identical to ``per_model_decomposition``: the check as it read when it
converted every derived model again, through ``simulate``.
"""

from pathlib import Path

import numpy as np
import pytest

from posetsys import _linalg as la
from posetsys import corpus, sim
from posetsys.corpus import load_corpus_system
from posetsys.poset import derived_set
from posetsys.sim import InputSignal, simulate, verify_trajectory_decomposition
from posetsys.system import derived, model_coordinates
from test_global_sets_oracle import LADDER_SYSTEMS, ladder_seed_1  # noqa: F401

SHIPPED = sorted({Path(f).stem for f in corpus._SYSTEM_FILES.values()})
KINDS = ("local", "downstream", "upstream")
LADDER = range(sum(LADDER_SYSTEMS.values()))


def per_model_decomposition(sys, x0, u):
    """The decomposition check with each derived model derived, converted and simulated whole."""
    poset = sys.poset
    n, m, r = sys.n, sys.m, sys.r
    x0vec = sim._initial_state(x0, n.total)
    global_traj = simulate(sys, x0vec, u)
    gx, gy = global_traj.states, global_traj.outputs

    def run(sub, seeded_nodes):
        states, outputs = n.indices(sub.n.nonempty), r.indices(sub.r.nonempty)
        seed = np.zeros(n.total)
        seeded = n.indices(seeded_nodes)
        seed[seeded] = x0vec[seeded]
        traj = simulate(sub, seed[states], u.restrict(m.indices(sub.m.nonempty)))
        x = np.zeros((len(traj.times), n.total))
        y = np.zeros((len(traj.times), r.total))
        x[:, states] = traj.states
        y[:, outputs] = traj.outputs
        return x, y

    down_models = {i: derived(sys, "downstream", i) for i in poset.nodes}
    down = {i: run(down_models[i], (i,)) for i in poset.nodes}
    local_x, local_y, split_x, split_y, up = [], [], [], [], []
    for i in poset.nodes:
        own_x, own_y = n.indices((i,)), r.indices((i,))
        full_x, full_y = run(down_models[i], poset.nodes)
        loc_x, loc_y = run(derived(sys, "local", i), (i,))
        local_x.append(sim._deviation(full_x[:, own_x], loc_x[:, own_x]))
        local_y.append(sim._deviation(full_y[:, own_y], loc_y[:, own_y]))
        above = sorted(derived_set(poset, {i}, "strict_up"))
        split_x.append(sim._deviation(gx[:, own_x], sum((down[j][0] for j in above), loc_x)[:, own_x]))
        split_y.append(sim._deviation(gy[:, own_y], sum((down[j][1] for j in above), loc_y)[:, own_y]))
        up_x, up_y = run(derived(sys, "upstream", i), poset.nodes)
        ups = n.indices(derived_set(poset, {i}, "up"))
        up.append(sim._deviation(up_x[:, ups], gx[:, ups]))
        up.append(sim._deviation(up_y[:, own_y], gy[:, own_y]))
    families = {
        "downstream_sum_states": [sim._deviation(gx, sum(down[i][0] for i in poset.nodes))],
        "downstream_sum_outputs": [sim._deviation(gy, sum(down[i][1] for i in poset.nodes))],
        "downstream_local_component_states": local_x,
        "downstream_local_component_outputs": local_y,
        "per_node_split_states": split_x,
        "per_node_split_outputs": split_y,
        "upstream_restriction": up,
    }
    return {name: sim._nanmax(devs) for name, devs in families.items()}


def assert_slices_convert_the_models(sys):
    floats = [la.mat_to_float(getattr(sys, k).entries) for k in "ABCD"]
    for kind in KINDS:
        for i in sys.poset.nodes:
            model = derived(sys, kind, i)
            coords = model_coordinates(sys, kind, i)
            sliced = sim._slices(floats, coords)
            for got, k in zip(sliced, "ABCD"):
                want = la.mat_to_float(getattr(model, k).entries)
                assert got.dtype == want.dtype and got.shape == want.shape, (kind, i, k)
                assert np.array_equal(got, want), (kind, i, k)
            pairs = ((sys.n, model.n), (sys.m, model.m), (sys.r, model.r))
            assert coords == tuple(part.indices(sub.nonempty) for part, sub in pairs)


def _signal(sys, seed, steps=300):
    rng = np.random.default_rng(seed)
    return InputSignal(step=0.002, values=rng.uniform(-1.0, 1.0, (steps, sys.input_dim)))


@pytest.mark.parametrize("name", SHIPPED)
def test_slices_of_shipped_systems_convert_every_model(name):
    assert_slices_convert_the_models(load_corpus_system(name))


@pytest.mark.parametrize("k", LADDER)
def test_slices_of_the_reference_ladder_convert_every_model(ladder_seed_1, k):  # noqa: F811
    assert_slices_convert_the_models(ladder_seed_1[k])


@pytest.mark.parametrize("k", LADDER)
def test_ladder_deviations_are_bit_identical_to_the_per_model_route(ladder_seed_1, k):  # noqa: F811
    sys = ladder_seed_1[k]
    u = _signal(sys, k)
    x0 = np.random.default_rng(100 + k).uniform(-1.0, 1.0, sys.state_dim)
    for start in (None, x0):
        got = verify_trajectory_decomposition(sys, start, u).deviations
        assert got == per_model_decomposition(sys, start, u)


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_deviations_are_bit_identical_to_the_per_model_route(name):
    sys = load_corpus_system(name)
    u = _signal(sys, 7, steps=120)
    got = verify_trajectory_decomposition(sys, sys.x0, u).deviations
    assert got == per_model_decomposition(sys, sys.x0, u)
