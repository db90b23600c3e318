import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import random_poset, random_system
from posetsys import _linalg as la
from posetsys.blockmat import BlockMatrix, is_incident
from posetsys.corpus import load_corpus_system
from posetsys.errors import DimensionMismatch, NonFinite
from posetsys.reachability import reachable
from posetsys.sim import (
    DecompositionReport,
    InputSignal,
    expm,
    simulate,
    verify_trajectory_decomposition,
)
from posetsys.system import PosetCausalSystem, derived


def test_expm_zero_and_diagonal():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))
    d = np.diag([1.0, -2.0, 0.5])
    assert np.allclose(expm(d), np.diag(np.exp([1.0, -2.0, 0.5])), rtol=1e-13)


def test_expm_nilpotent_exact():
    n = np.array([[0.0, 3.0], [0.0, 0.0]])
    assert np.allclose(expm(n), np.eye(2) + n, rtol=0, atol=1e-15)


def test_expm_rotation_closed_form():
    t = 1.234
    m = np.array([[0.0, -t], [t, 0.0]])
    want = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    assert np.allclose(expm(m), want, rtol=1e-12)


def test_expm_matches_scipy(rng):
    for _ in range(10):
        n = rng.randint(1, 6)
        m = np.array([[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)])
        ours = expm(m)
        ref = scipy.linalg.expm(m)
        assert np.allclose(ours, ref, rtol=1e-10, atol=1e-12)


def test_expm_semigroup(rng):
    for _ in range(5):
        n = rng.randint(1, 4)
        m = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
        s, t = rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5)
        lhs = expm(m * (s + t))
        rhs = expm(m * s) @ expm(m * t)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_expm_rejects_nonfinite():
    with pytest.raises(NonFinite):
        expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_expm_overflow_raises_nonfinite_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="overflows"):
            expm(np.array([[1e299]]))


def test_entries_beyond_double_precision_raise_nonfinite():
    sys = load_corpus_system("two-node-local-gap")
    huge = la.F(10) ** 400
    u = InputSignal(step=0.1, values=np.zeros((2, sys.input_dim)))
    with pytest.raises(NonFinite, match="x0"):
        simulate(sys, [huge, 0], u)
    a = sys.A.entries.copy()
    a[0, 0] = -huge
    big = PosetCausalSystem(poset=sys.poset, n=sys.n, m=sys.m, r=sys.r, A=a,
                            B=sys.B.entries, C=sys.C.entries, D=sys.D.entries)
    with pytest.raises(NonFinite, match="A has an entry"):
        simulate(big, None, u)
    down = derived(big, "downstream", 1)
    with pytest.raises(NonFinite, match="A has an entry"):
        simulate(down, None, InputSignal(step=0.1, values=np.zeros((2, down.input_dim))))


def test_state_overflow_raises_nonfinite_and_a_nan_x0_propagates():
    sys = load_corpus_system("two-node-local-gap")
    a = sys.A.entries.copy()
    a[0, 0] = la.F(5000)
    fast = PosetCausalSystem(poset=sys.poset, n=sys.n, m=sys.m, r=sys.r, A=a,
                             B=sys.B.entries, C=sys.C.entries, D=sys.D.entries)
    u = InputSignal(step=0.1, values=np.ones((3, sys.input_dim)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(simulate(fast, None, InputSignal(step=0.1, values=u.values[:1])).states).all()
        with pytest.raises(NonFinite, match="trajectory overflows"):
            simulate(fast, None, u)
        traj = simulate(fast, [math.nan] + [0.0] * (sys.state_dim - 1), u)
    assert np.isnan(traj.states[1:, 0]).all()


def test_expm_of_structured_matrix_keeps_pattern(rng):
    for _ in range(8):
        poset = random_poset(rng, rng.randint(1, 5))
        sys = random_system(rng, poset)
        e = expm(la.mat_to_float(sys.A.entries) * 0.37)
        cleaned = la.fmat([[0 if abs(v) < 1e-12 else 1 for v in row] for row in e])
        assert is_incident(BlockMatrix(cleaned, sys.n, sys.n), poset)


def test_simulate_zero_everything():
    sys = load_corpus_system("exLargeEx")
    u = InputSignal(step=0.1, values=np.zeros((5, sys.input_dim)))
    traj = simulate(sys, None, u)
    assert np.allclose(traj.states, 0) and np.allclose(traj.outputs, 0)
    assert traj.states.shape == (6, sys.state_dim)


def test_simulate_pure_integrator():
    from posetsys.poset import build_poset
    from posetsys.system import PosetCausalSystem

    poset = build_poset(1, [])
    sys = PosetCausalSystem(
        poset=poset, n=(2,), m=(2,), r=(2,),
        A=la.zeros(2, 2), B=la.eye(2), C=la.eye(2), D=la.zeros(2, 2),
    )
    h, steps, c = 0.05, 40, np.array([0.3, -0.7])
    u = InputSignal(step=h, values=np.tile(c, (steps, 1)))
    traj = simulate(sys, None, u)
    assert np.allclose(traj.states[-1], steps * h * c, rtol=1e-12)


def test_simulate_dimension_checks():
    sys = load_corpus_system("exLargeEx")
    with pytest.raises(DimensionMismatch):
        simulate(sys, None, InputSignal(step=0.1, values=np.zeros((4, 3))))
    with pytest.raises(DimensionMismatch):
        simulate(sys, [1.0], InputSignal(step=0.1, values=np.zeros((4, sys.input_dim))))


def test_simulate_derived_models():
    sys = load_corpus_system("exLargeEx")
    down = derived(sys, "downstream", 1)
    u = InputSignal(step=0.01, values=np.ones((20, down.input_dim)))
    traj = simulate(down, None, u)
    assert traj.states.shape == (21, down.state_dim)


def test_final_state_lies_in_reachable_space(rng):
    sys = load_corpus_system("exLargeEx")
    space = reachable(sys)
    basis = la.mat_to_float(space.basis)
    q, _ = np.linalg.qr(basis)
    u = InputSignal(
        step=0.01,
        values=np.array([[rng.uniform(-1, 1) for _ in range(sys.input_dim)] for _ in range(100)]),
    )
    traj = simulate(sys, None, u)
    x = traj.states[-1]
    residual = x - q @ (q.T @ x)
    assert np.max(np.abs(residual)) < 1e-8


def test_trajectory_decomposition_zero_case():
    sys = load_corpus_system("exLargeEx")
    u = InputSignal(step=0.01, values=np.zeros((10, sys.input_dim)))
    rep = verify_trajectory_decomposition(sys, None, u, tolerance=1e-14)
    assert rep.ok, rep.describe()


def test_trajectory_decomposition_nan_input_fails_every_family():
    # InputSignal refuses NaN values, so the NaN enters through the initial state
    sys = load_corpus_system("strict-chain-combined")
    x0 = [0.0] * sys.state_dim
    x0[0] = math.nan
    u = InputSignal(step=0.01, values=np.zeros((10, sys.input_dim)))
    rep = verify_trajectory_decomposition(sys, x0, u)
    assert len(rep.deviations) == 7
    assert all(math.isnan(v) for v in rep.deviations.values()), rep.deviations
    assert not rep.ok
    assert "(ok)" not in rep.describe()


def test_trajectory_decomposition_tolerance_scales_with_the_trajectory():
    # states reach 2e10 here, so rounding alone leaves deviations near 4e-6, a relative 2e-16
    sys = load_corpus_system("exLargeEx")
    u = InputSignal(step=0.1, values=np.random.default_rng(0).uniform(-1, 1, (200, 7)))
    rep = verify_trajectory_decomposition(sys, None, u, tolerance=1e-8)
    assert rep.magnitude > 1e10
    assert max(rep.deviations.values()) > 1e-8
    assert rep.ok, rep.describe()
    assert "FAIL" not in rep.describe()


@pytest.mark.parametrize("magnitude", [0.0, 0.5, 1.0, 3.0, 2.5e10])
def test_decomposition_bound_is_the_tolerance_times_max_one_and_magnitude(magnitude):
    tolerance = 1e-8
    bound = tolerance * max(1.0, magnitude)
    for deviation, ok in ((bound * (1 - 1e-9), True), (bound, True), (bound * (1 + 1e-9), False)):
        rep = DecompositionReport(
            deviations={"family": deviation}, tolerance=tolerance, magnitude=magnitude
        )
        assert rep.bound == bound
        assert rep.ok is ok
        assert ("(ok)" if ok else "(FAIL)") in rep.describe()
        assert f"bound {bound:.3e}" in rep.describe()


def test_decomposition_nan_magnitude_fails_every_deviation():
    rep = DecompositionReport(deviations={"family": 0.0}, tolerance=1e-8, magnitude=math.nan)
    assert math.isnan(rep.bound)
    assert not rep.ok
    assert "(ok)" not in rep.describe()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_input_signal_rejects_non_finite_values_and_step(bad):
    values = np.zeros((4, 2))
    values[2, 1] = bad
    with pytest.raises(NonFinite):
        InputSignal(step=0.1, values=values)
    with pytest.raises(NonFinite):
        InputSignal(step=bad, values=np.zeros((4, 2)))


def test_trajectory_decomposition_randomized(rng):
    for _ in range(5):
        poset = random_poset(rng, rng.randint(1, 4))
        sys = random_system(rng, poset, allow_zero_blocks=False)
        u = InputSignal(
            step=0.01,
            values=np.array(
                [[rng.uniform(-1, 1) for _ in range(sys.input_dim)] for _ in range(60)]
            ),
        )
        x0 = [rng.uniform(-1, 1) for _ in range(sys.state_dim)]
        rep = verify_trajectory_decomposition(sys, x0, u, tolerance=1e-8)
        assert rep.ok, rep.describe()
