"""The Brent-Kung scan of ``simulate`` against the per-step oracle.

``simulate`` forms the squares ``Phi^(2^s)`` for 2^s <= K (``_squares``),
stopping before the first one that is not finite, and runs the state
recurrence as a Brent-Kung prefix scan over them: the up-sweep in
``_forced``, the down-sweep from x0 in ``_respond``. An overflowed square
leaves the scan in windows of 2^(number of squares) steps, each chained to
the one before. These tests cover the scan's edges (K at, just below and
just above a power of two, and K = 0), the squares and their overflow cut,
chained windows, and the overflow and NaN behaviour of the per-step loop.
``stepwise_simulate`` in ``test_sim_oracle`` is the oracle, with its 1e-12
bound.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poset, random_system
from posetsys import _linalg as la
from posetsys import corpus, sim
from posetsys.corpus import load_corpus_system
from posetsys.errors import NonFinite
from posetsys.poset import build_poset
from posetsys.sim import InputSignal, expm, simulate
from posetsys.system import PosetCausalSystem, derived
from test_sim_oracle import (
    _assert_close,
    _assert_same_trajectory,
    _signal,
    _without_inputs,
    stepwise_simulate,
)

SHIPPED = sorted({Path(f).stem for f in corpus._SYSTEM_FILES.values()})
PROPERTIES = settings(max_examples=25, deadline=None, derandomize=True)
STEPS = (0, 1, 2, 3, 7, 24, 25, 26, 48, 255, 256, 257, 499, 501, 1000, 1023, 1024, 1025)


def _diagonal(entries, b=None):
    """Uncoupled 1x1 blocks with A = diag(entries), B = b (zero if None), C = I and D = 0."""
    p = len(entries)
    b = [[0] * p for _ in range(p)] if b is None else b
    return PosetCausalSystem(
        poset=build_poset(p, []), n=[1] * p, m=[1] * p, r=[1] * p,
        A=la.fmat([[entries[i] if i == j else 0 for j in range(p)] for i in range(p)]),
        B=la.fmat(b), C=la.fmat([[int(i == j) for j in range(p)] for i in range(p)]),
        D=la.zeros(p, p),
    )


def _stateless():
    return PosetCausalSystem(
        poset=build_poset(2, [(1, 2)]), n=[0, 0], m=[1, 1], r=[1, 1],
        A=la.zeros(0, 0), B=la.zeros(0, 2), C=la.zeros(2, 0), D=la.fmat([[1, 0], [2, 3]]),
    )


def _assert_squares(squares, stepper_t):
    """``squares[s]`` is finite and equals ``(Phi^T)^(2^s)`` for every s in the stack."""
    n = stepper_t.shape[0]
    assert squares.shape == (len(squares), n, n)
    for s in range(len(squares)):
        assert np.isfinite(squares[s]).all(), s
        assert squares[s] == pytest.approx(np.linalg.matrix_power(stepper_t, 2**s), rel=1e-12), s


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("name", SHIPPED)
def test_blocked_simulation_equals_the_stepwise_oracle(name, steps):
    sys = load_corpus_system(name)
    rng = np.random.default_rng(steps)
    for step in (0.01, 0.1):
        u = _signal(rng, sys.input_dim, steps, step)
        _assert_same_trajectory(sys, rng.uniform(-1.0, 1.0, sys.state_dim), u)
        _assert_same_trajectory(_without_inputs(sys), sys.x0, _signal(rng, 0, steps, step))


@pytest.mark.parametrize("steps", STEPS)
def test_blocked_simulation_without_states(steps):
    sys = _stateless()
    u = _signal(np.random.default_rng(steps), 2, steps, 0.1)
    _assert_same_trajectory(sys, None, u)
    traj = simulate(sys, [], u)
    assert traj.states.shape == (steps + 1, 0)


@PROPERTIES
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(STEPS), st.booleans())
def test_random_blocked_simulation_equals_the_stepwise_oracle(rng, p, seed, steps, no_inputs):
    sys = random_system(rng, random_poset(rng, p))
    if no_inputs:
        sys = _without_inputs(sys)
    values = np.random.default_rng(seed)
    u = _signal(values, sys.input_dim, steps, 0.05)
    _assert_same_trajectory(sys, values.uniform(-1.0, 1.0, sys.state_dim), u)
    for i in sys.poset.nodes:
        down = derived(sys, "downstream", i)
        ui = u.restrict(sys.m.indices(down.m.nonempty))
        _assert_same_trajectory(down, values.uniform(-1.0, 1.0, down.state_dim), ui)


def test_an_overflowing_power_cuts_the_span_and_the_trajectory_stays_finite():
    # Phi = diag(e^100, e^-1): Phi^8 overflows, and inf times the exact zero x[0] would be NaN
    sys = _diagonal([100, -1])
    stepper_t = expm(np.diag([100.0, -1.0])).T
    squares = sim._squares(stepper_t, 500)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.linalg.matrix_power(stepper_t, 8)).all()
    assert len(squares) == 3  # Phi, Phi^2 and Phi^4, the last finite square
    _assert_squares(squares, stepper_t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(sys, [0, 1], InputSignal(step=1.0, values=np.zeros((500, 2))))
    assert np.isfinite(traj.states).all() and np.isfinite(traj.outputs).all()
    assert traj.states[-1, 0] == 0.0
    assert traj.states[-1, 1] == pytest.approx(7.124576406734956e-218, rel=1e-12)
    want = stepwise_simulate(sys, [0, 1], InputSignal(step=1.0, values=np.zeros((500, 2))))
    assert np.array_equal(traj.states[:, 0], want.states[:, 0])
    assert traj.states[:, 1] == pytest.approx(want.states[:, 1], rel=1e-12)


@pytest.mark.parametrize("steps", [5, 8, 9, 16, 17, 100, 500])
def test_an_input_into_the_stable_mode_runs_over_chained_windows(steps):
    # Phi = diag(e^100, e^-1) stops the squares at Phi^4, so the scan runs in windows of 8 steps;
    # each window's last step is chained to the one 8 steps before by two products with Phi^4
    sys = _diagonal([100, -1], b=[[0, 0], [0, 1]])
    u = _signal(np.random.default_rng(steps), 2, steps, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(sys, [0, 1], u)
    assert np.isfinite(traj.states).all() and np.isfinite(traj.outputs).all()
    want = stepwise_simulate(sys, [0, 1], u)
    assert np.array_equal(traj.states[:, 0], want.states[:, 0])
    _assert_close(traj.states, want.states)
    _assert_close(traj.outputs, want.outputs)


@pytest.mark.parametrize("steps", [0, 1, 3, 4, 99, 100, 255, 256, 1024, 1025])
def test_the_squares_stop_at_the_steps(steps):
    stepper_t = expm(np.array([[-1.0, 2.0], [0.0, 0.5]]) * 0.1).T
    squares = sim._squares(stepper_t, steps)
    # every square with 2^s <= max(1, steps), and no further one
    assert 2 ** (len(squares) - 1) <= max(1, steps) < 2 ** len(squares)
    _assert_squares(squares, stepper_t)


def test_a_state_that_overflows_in_a_later_block_raises_nonfinite():
    # x[k] = e^(5k) leaves double precision at k = 142; Phi^256 = e^1280 overflows as well, so the
    # squares stop at Phi^128 and the scan runs in windows of 256 rows
    sys = _diagonal([50])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="trajectory overflows"):
            simulate(sys, [1], InputSignal(step=0.1, values=np.zeros((1000, 1))))


def test_a_short_last_block_stops_at_the_last_step():
    # the top level of the down-sweep carries x0 to step 128 by Phi^128, and the lower levels fill
    # steps 129 to 141; x[141] = e^705 is finite, x[143] would not be
    sys = _diagonal([50], b=[[1]])
    u = InputSignal(step=0.1, values=np.ones((141, 1)))
    traj = simulate(sys, [1], u)
    assert np.isfinite(traj.states).all()
    want = stepwise_simulate(sys, [1], u)
    assert traj.states[:, 0] == pytest.approx(want.states[:, 0], rel=1e-12)


def test_a_nan_initial_state_propagates_through_every_block():
    sys = load_corpus_system("two-node-local-gap")
    u = InputSignal(step=0.1, values=np.ones((100, sys.input_dim)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(sys, [math.nan] + [0.0] * (sys.state_dim - 1), u)
    assert np.isnan(traj.states[1:, 0]).all()


def test_initial_state_accepts_floats_ints_and_fractions():
    sys = load_corpus_system("two-node-local-gap")
    u = InputSignal(step=0.1, values=np.ones((30, sys.input_dim)))
    want = simulate(sys, np.array([0.5, -2.0]), u).states
    for x0 in ([0.5, -2], [la.F(1, 2), la.F(-2)], np.array([la.F(1, 2), -2.0], dtype=object),
               (np.float64(0.5), np.int64(-2))):
        assert np.array_equal(simulate(sys, x0, u).states, want)
