"""The trajectory-decomposition check and ``Subspace.embed`` against identity-matrix oracles.

``embedded_verify_trajectory_decomposition`` is ``verify_trajectory_decomposition``
as it read when every derived trajectory was embedded into global coordinates by
a float product with the identity columns of its blocks; it stays here as the
oracle for the index-scatter version. Random systems come from the ``conftest``
generators, driven by a shrinkable ``hypothesis`` random source.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poset, random_system
from posetsys import _linalg as la
from posetsys import corpus
from posetsys.blockmat import Partition, embed
from posetsys.corpus import load_corpus_system
from posetsys.errors import AmbientMismatch
from posetsys.observability import obsv_matrix, upstream_indistinguishable
from posetsys.observability import profile as observability_profile
from posetsys.poset import derived_set
from posetsys.reachability import ctrb_matrix, downstream_reachable
from posetsys.reachability import profile as reachability_profile
from posetsys.sim import (
    DecompositionReport,
    InputSignal,
    _deviation,
    _initial_state,
    _nanmax,
    simulate,
    verify_trajectory_decomposition,
)
from posetsys.subspace import Subspace, image, kernel
from posetsys.system import derived, require_valid

SHIPPED = sorted({Path(f).stem for f in corpus._SYSTEM_FILES.values()})
PROPERTIES = settings(max_examples=25, deadline=None, derandomize=True)


def embedded_verify_trajectory_decomposition(sys, x0, u, tolerance=1e-8):
    """The decomposition check with identity-matrix embeddings (the oracle)."""
    require_valid(sys)
    poset = sys.poset
    n, m, r = sys.n, sys.m, sys.r
    x0vec = _initial_state(x0, n.total)

    global_traj = simulate(sys, x0vec, u)
    gx, gy = global_traj.states, global_traj.outputs
    local_x, local_y, split_x, split_y, up = [], [], [], [], []
    down_embedded = {}
    local = {}
    for i in poset.nodes:
        sub = derived(sys, "downstream", i)
        ui = u.restrict(m.indices(sub.m.nonempty))
        own_x = sub.n.block_range(i)
        own_y = sub.r.block_range(i)
        full_seed = x0vec[n.indices(sub.n.nonempty)]
        seed = np.zeros_like(full_seed)
        seed[own_x] = full_seed[own_x]
        traj = simulate(sub, seed, ui)
        emb_x = la.mat_to_float(embed(n, sub.n.nonempty).entries)
        emb_y = la.mat_to_float(embed(r, sub.r.nonempty).entries)
        down_embedded[i] = (traj.states @ emb_x.T, traj.outputs @ emb_y.T)
        traj_full = simulate(sub, full_seed, ui)
        local[i] = simulate(derived(sys, "local", i), x0vec[n.indices((i,))], ui)
        local_x.append(_deviation(traj_full.states[:, own_x], local[i].states))
        local_y.append(_deviation(traj_full.outputs[:, own_y], local[i].outputs))

    sum_x = [_deviation(gx, sum(down_embedded[i][0] for i in poset.nodes))]
    sum_y = [_deviation(gy, sum(down_embedded[i][1] for i in poset.nodes))]

    for i in poset.nodes:
        rows_x, rows_y = n.indices((i,)), r.indices((i,))
        acc_x = local[i].states
        acc_y = local[i].outputs
        for j in sorted(derived_set(poset, {i}, "strict_up")):
            contrib_x, contrib_y = down_embedded[j]
            acc_x = acc_x + contrib_x[:, rows_x]
            acc_y = acc_y + contrib_y[:, rows_y]
        split_x.append(_deviation(gx[:, rows_x], acc_x))
        split_y.append(_deviation(gy[:, rows_y], acc_y))

        sub = derived(sys, "upstream", i)
        state_idx = n.indices(sub.n.nonempty)
        traj = simulate(sub, x0vec[state_idx], u.restrict(m.indices(sub.m.nonempty)))
        up.append(_deviation(traj.states, gx[:, state_idx]))
        up.append(_deviation(traj.outputs, gy[:, rows_y]))

    families = {
        "downstream_sum_states": sum_x,
        "downstream_sum_outputs": sum_y,
        "downstream_local_component_states": local_x,
        "downstream_local_component_outputs": local_y,
        "per_node_split_states": split_x,
        "per_node_split_outputs": split_y,
        "upstream_restriction": up,
    }
    return DecompositionReport(
        deviations={name: _nanmax(devs) for name, devs in families.items()},
        tolerance=tolerance,
    )


def _signal(rng, width, steps=40, step=0.01):
    return InputSignal(step=step, values=rng.uniform(-1.0, 1.0, (steps, width)))


def _assert_same_deviations(sys, x0, u):
    got = verify_trajectory_decomposition(sys, x0, u).deviations
    want = embedded_verify_trajectory_decomposition(sys, x0, u).deviations
    assert got.keys() == want.keys()
    for name in want:
        # bit for bit: the scatter adds the same numbers in the same order
        assert got[name] == want[name] or (math.isnan(got[name]) and math.isnan(want[name])), name


@pytest.mark.parametrize("name", SHIPPED)
def test_corpus_deviations_equal_the_oracle(name):
    sys = load_corpus_system(name)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1.0, 1.0, sys.state_dim)
    _assert_same_deviations(sys, x0, _signal(rng, sys.input_dim))
    _assert_same_deviations(sys, sys.x0, _signal(rng, sys.input_dim, steps=3, step=0.5))


@PROPERTIES
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_random_deviations_equal_the_oracle(rng, p, seed):
    sys = random_system(rng, random_poset(rng, p))
    values = np.random.default_rng(seed)
    x0 = values.uniform(-1.0, 1.0, sys.state_dim)
    _assert_same_deviations(sys, x0, _signal(values, sys.input_dim, steps=25))


@pytest.mark.parametrize("name", SHIPPED)
def test_nan_initial_state_gives_nan_in_the_oracle_families(name):
    sys = load_corpus_system(name)
    u = InputSignal(step=0.01, values=np.zeros((10, sys.input_dim)))
    for k in range(sys.state_dim):
        x0 = [0.0] * sys.state_dim
        x0[k] = math.nan
        _assert_same_deviations(sys, x0, u)


def _assert_embeddings_equal_the_identity_product(sys):
    downstream = reachability_profile(sys).embedded(sys, "downstream")
    upstream = observability_profile(sys).embedded(sys, "upstream")
    for i in sys.poset.nodes:
        down = derived(sys, "downstream", i)
        space = image(ctrb_matrix(down.A.entries, down.B.entries))
        want = space.apply(embed(sys.n, down.n.nonempty).entries)
        assert space.embed(sys.n, down.n.nonempty) == want
        assert downstream_reachable(sys, i) == space
        assert downstream[i] == want
        up = derived(sys, "upstream", i)
        space = kernel(obsv_matrix(up.C.entries, up.A.entries))
        want = space.apply(embed(sys.n, up.n.nonempty).entries)
        assert space.embed(sys.n, up.n.nonempty) == want
        assert upstream_indistinguishable(sys, i) == space
        assert upstream[i] == want


@pytest.mark.parametrize("name", SHIPPED)
def test_corpus_embeddings_equal_the_identity_product(name):
    _assert_embeddings_equal_the_identity_product(load_corpus_system(name))


@PROPERTIES
@given(st.randoms(use_true_random=False), st.integers(1, 4))
def test_random_embeddings_equal_the_identity_product(rng, p):
    _assert_embeddings_equal_the_identity_product(random_system(rng, random_poset(rng, p)))


def test_embed_places_rows_by_node_coordinates():
    part = Partition((2, 0, 1))
    space = Subspace.from_columns(2, [[1, 2]])
    assert space.embed(part, (1,)).vectors() == [[1, 2, 0]]
    assert space.embed(part, (1, 2)) == space.embed(part, (2, 1))
    assert Subspace.zero(0).embed(part, (2,)) == Subspace.zero(3)
    assert Subspace.full(1).embed(part, (3,)) == Subspace.from_columns(3, [[0, 0, 1]])
    with pytest.raises(AmbientMismatch):
        space.embed(part, (3,))
