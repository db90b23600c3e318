"""Whole-array simulation and trajectory output against their per-step oracles.

``stepwise_simulate``, ``rowwise_write_trajectory`` and ``comprehension_mat_to_float``
are ``simulate``, ``fileio.write_trajectory`` and ``_linalg.mat_to_float`` as they
read when every product, every output line and every entry was handled one at a
time; they stay here as oracles for the whole-array versions. Random systems come
from the ``conftest`` generators, driven by a shrinkable ``hypothesis`` random source.
"""

import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poset, random_system
from posetsys import _linalg as la
from posetsys import corpus, sim, system
from posetsys.corpus import load_corpus_system
from posetsys.fileio import write_trajectory
from posetsys.poset import build_poset
from posetsys.sim import InputSignal, Trajectory, expm, simulate, verify_trajectory_decomposition
from posetsys.system import PosetCausalSystem, derived, model_nodes

SHIPPED = sorted({Path(f).stem for f in corpus._SYSTEM_FILES.values()})
PROPERTIES = settings(max_examples=25, deadline=None, derandomize=True)


def comprehension_mat_to_float(m):
    return np.array([[float(x) for x in row] for row in m], dtype=float).reshape(m.shape)


def stepwise_simulate(model, x0, u):
    """The per-step simulation (the oracle): one product per step and per output."""
    if isinstance(model, PosetCausalSystem):
        a, b, c, d = (comprehension_mat_to_float(getattr(model, k).entries) for k in "ABCD")
    else:
        a, b, c, d = (comprehension_mat_to_float(getattr(model, k)) for k in "ABCD")
    n = a.shape[0]
    m = b.shape[1]
    state = np.zeros(n) if x0 is None else np.asarray([float(x) for x in np.ravel(x0)])
    steps = u.steps
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = b
    big = expm(aug * u.step)
    stepper = big[:n, :n]
    in_gain = big[:n, n:]
    states = np.zeros((steps + 1, n))
    outputs = np.zeros((steps + 1, c.shape[0]))
    states[0] = state
    for k in range(steps):
        uk = u.values[k]
        outputs[k] = c @ states[k] + d @ uk
        states[k + 1] = stepper @ states[k] + in_gain @ uk
    last = u.values[steps - 1] if steps else np.zeros(m)
    outputs[steps] = c @ states[steps] + d @ last
    times = np.arange(steps + 1) * u.step
    return Trajectory(times=times, states=states, outputs=outputs)


def rowwise_write_trajectory(traj, fh):
    """The per-row trajectory writer (the oracle)."""
    for k, t in enumerate(traj.times):
        cells = [f"{t:.12g}"]
        cells += [f"{v:.12g}" for v in traj.states[k]]
        cells += [f"{v:.12g}" for v in traj.outputs[k]]
        fh.write(" ".join(cells) + "\n")


def _assert_close(got, want):
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


def _assert_same_trajectory(model, x0, u):
    got, want = simulate(model, x0, u), stepwise_simulate(model, x0, u)
    assert np.array_equal(got.times, want.times)
    _assert_close(got.states, want.states)
    _assert_close(got.outputs, want.outputs)


def _signal(rng, width, steps, step):
    return InputSignal(step=step, values=rng.uniform(-1.0, 1.0, (steps, width)))


def _without_inputs(sys):
    return PosetCausalSystem(
        poset=sys.poset, n=sys.n, m=[0] * sys.poset.p, r=sys.r,
        A=sys.A.entries, B=la.zeros(sys.state_dim, 0),
        C=sys.C.entries, D=la.zeros(sys.output_dim, 0),
    )


@pytest.mark.parametrize("steps", [0, 1, 500])
@pytest.mark.parametrize("name", SHIPPED)
def test_corpus_simulation_equals_the_stepwise_oracle(name, steps):
    sys = load_corpus_system(name)
    rng = np.random.default_rng(11)
    for step in (0.01, 0.1):
        u = _signal(rng, sys.input_dim, steps, step)
        _assert_same_trajectory(sys, sys.x0, u)
        _assert_same_trajectory(sys, rng.uniform(-1.0, 1.0, sys.state_dim), u)


@PROPERTIES
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.integers(0, 30), st.booleans())
def test_random_simulation_equals_the_stepwise_oracle(rng, p, seed, steps, no_inputs):
    sys = random_system(rng, random_poset(rng, p))
    if no_inputs:
        sys = _without_inputs(sys)
    values = np.random.default_rng(seed)
    u = _signal(values, sys.input_dim, steps, 0.05)
    _assert_same_trajectory(sys, values.uniform(-1.0, 1.0, sys.state_dim), u)
    for i in sys.poset.nodes:
        down = derived(sys, "downstream", i)
        ui = InputSignal(step=u.step, values=u.values[:, sys.m.indices(down.m.nonempty)])
        _assert_same_trajectory(down, values.uniform(-1.0, 1.0, down.state_dim), ui)


def test_final_output_holds_the_last_input():
    sys = PosetCausalSystem(
        poset=build_poset(1, []), n=(2,), m=(1,), r=(1,),
        A=la.fmat([[0, 1], [-1, 0]]), B=la.fmat([[0], [1]]), C=la.fmat([[1, 0]]), D=la.fmat([[2]]),
    )
    values = np.array([[1.0], [-3.0], [5.0]])
    traj = simulate(sys, None, InputSignal(step=0.1, values=values))
    held = [1.0, -3.0, 5.0, 5.0]
    assert traj.outputs[:, 0] == pytest.approx(traj.states[:, 0] + 2.0 * np.array(held))
    no_steps = simulate(sys, [1.0, 0.5], InputSignal(step=0.1, values=values[:0]))
    assert no_steps.outputs.tolist() == [[1.0]]


def _written(writer, traj):
    fh = io.StringIO()
    writer(traj, fh)
    return fh.getvalue()


@pytest.mark.parametrize("name", SHIPPED)
def test_written_trajectory_equals_the_rowwise_oracle(name, tmp_path):
    sys = load_corpus_system(name)
    rng = np.random.default_rng(5)
    traj = simulate(sys, rng.uniform(-1.0, 1.0, sys.state_dim), _signal(rng, sys.input_dim, 50, 0.1))
    want = _written(rowwise_write_trajectory, traj)
    assert _written(write_trajectory, traj) == want
    write_trajectory(traj, tmp_path / "traj.txt")
    assert (tmp_path / "traj.txt").read_bytes() == want.encode()


@pytest.mark.parametrize("states, outputs", [
    (np.array([[-0.0, math.nan], [math.inf, -math.inf], [1e-300, -1e300]]),
     np.array([[1 / 3], [-2.5e-7], [123456789012345.0]])),
    (np.zeros((3, 0)), np.array([[0.1], [-0.0], [math.nan]])),
    (np.array([[1.0], [2.0], [3.0]]), np.zeros((3, 0))),
    (np.zeros((3, 0)), np.zeros((3, 0))),
])
def test_written_special_values_equal_the_rowwise_oracle(states, outputs):
    traj = Trajectory(times=np.arange(3) * 0.1, states=states, outputs=outputs)
    assert _written(write_trajectory, traj) == _written(rowwise_write_trajectory, traj)


def test_mat_to_float_equals_the_comprehension(rng):
    mats = [getattr(load_corpus_system(name), k).entries for name in SHIPPED for k in "ABCD"]
    mats += [la.zeros(0, 3), la.zeros(3, 0), la.zeros(0, 0)]
    mats.append(la.fmat([[la.F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(4)]
                         for _ in range(3)]))
    for m in mats:
        got, want = la.mat_to_float(m), comprehension_mat_to_float(m)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", SHIPPED)
def test_decomposition_derives_each_model_once(name, monkeypatch):
    sys = load_corpus_system(name)
    calls = []

    def counted(poset, kind, i=None):
        calls.append((kind, i))
        return model_nodes(poset, kind, i)

    # each model's float matrices are sliced from the system's once, after one node selection
    # (``system.model_coordinates`` calls ``model_nodes``)
    monkeypatch.setattr(system, "model_nodes", counted)
    u = InputSignal(step=0.1, values=np.ones((5, sys.input_dim)))
    assert verify_trajectory_decomposition(sys, None, u).ok
    assert len(calls) == 3 * sys.poset.p
    assert sorted(calls) == sorted(
        (kind, i) for kind in ("downstream", "local", "upstream") for i in sys.poset.nodes
    )
