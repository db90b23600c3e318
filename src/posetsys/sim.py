"""Floating-point trajectory simulation and trajectory-decomposition checks.

Inputs are piecewise constant on a uniform grid, so one matrix exponential of
the augmented matrix [[A, B], [0, 0]] times the step gives the zero-order-hold
recurrence x[k+1] = Phi x[k] + Gamma u[k], exact up to rounding (Van Loan, IEEE
TAC 23, 1978); no ODE-solver truncation error enters the identity checks. Exact
rational matrices become doubles at this boundary only; what does not fit a
double raises ``NonFinite``. Derived models are poset-causal systems too, so one
``simulate`` serves them all. The decomposition check converts the system's
matrices to doubles once and runs each derived model on slices of them, at the
model's coordinates (``Partition.indices`` of its nodes). Each trajectory stays
at its model's width: the check compares it with the global one at those
coordinates, and adds the downstream trajectories into their global sums in
node order, as each one arrives.

``simulate`` runs the recurrence over K steps in blocks of L = isqrt(K) steps,
so each Python-level pass is one product vectorised over all ceil(K/L) blocks.
Within block b, x[bL + l] = Phi^l x[bL] + c[b, l], where the zero-state part
c[b, l] = Phi c[b, l-1] + Gamma u[bL + l-1] starts from c[b, 0] = 0. The passes
are: L - 1 to accumulate every block's c, ceil(K/L) to chain the block starts
x[(b+1)L] = Phi^L x[bL] + c[b, L], and L - 1 to add each block start's free
response Phi^l x[bL], formed as Phi times the previous one. Expanding either
form gives the same sum of powers of Phi times x[0] and the drives, so this is
the step-by-step map; only the rounding of its sums differs. L is cut back to
the last power of Phi that is still finite: an overflowed Phi^L times an exact
zero of the state would give NaN where the step-by-step loop stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .errors import DimensionMismatch, NonFinite
from .poset import derived_set
from .system import PosetCausalSystem, model_nodes

__all__ = [
    "expm",
    "InputSignal",
    "Trajectory",
    "simulate",
    "DecompositionReport",
    "verify_trajectory_decomposition",
]

# [13/13] Pade coefficients and the matching scaling threshold
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring around a degree-13 Pade core."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix exponential needs a square matrix")
    if a.size and not np.isfinite(a).all():
        raise NonFinite("matrix has NaN or infinite entries")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    norm = np.linalg.norm(a, 1)
    squarings = 0
    if norm > _THETA13:
        squarings = max(0, int(math.ceil(math.log2(norm / _THETA13))))
        a = a / (2.0**squarings)
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _PADE13
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    with np.errstate(all="ignore"):
        result = np.linalg.solve(v - u, v + u)
        for _ in range(squarings):
            result = result @ result
    if not np.isfinite(result).all():
        raise NonFinite("matrix exponential overflows double precision")
    return result


@dataclass(frozen=True)
class InputSignal:
    """Piecewise-constant input: values[k] is held on [k*step, (k+1)*step)."""

    step: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        if vals.ndim != 2:
            raise DimensionMismatch("input values must form a (steps, width) array")
        if not (math.isfinite(self.step) and np.isfinite(vals).all()):
            raise NonFinite("input signal has a NaN or infinite step or value")
        object.__setattr__(self, "values", vals)
        if self.step <= 0:
            raise DimensionMismatch("step size must be positive")

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def restrict(self, columns) -> "InputSignal":
        return InputSignal(step=self.step, values=self.values[:, list(columns)])


@dataclass(frozen=True)
class Trajectory:
    """Grid samples of one simulation; row k is time k*step.

    The output at the final grid point holds the last input value.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray


def _floats(model: PosetCausalSystem) -> list:
    """The model's A, B, C, D as doubles; an entry too large for a double raises ``NonFinite``."""
    out = []
    for k in "ABCD":
        try:
            out.append(la.mat_to_float(getattr(model, k).entries))
        except OverflowError as exc:
            raise NonFinite(f"{k} has an entry too large for double precision") from exc
    return out


def _initial_state(x0, n: int) -> np.ndarray:
    """``x0`` (None for zero, an array or a sequence) as a float vector of length n.

    Entries may be floats, ints or Fractions, so each goes through ``float``.
    """
    if x0 is None:
        return np.zeros(n)
    try:
        state = np.asarray(x0, dtype=object).ravel().astype(float)
    except OverflowError as exc:
        raise NonFinite("x0 has an entry too large for double precision") from exc
    if state.shape != (n,):
        raise DimensionMismatch(f"initial state has {state.size} entries, model expects {n}")
    return state


def _span(stepper_t: np.ndarray, steps: int) -> tuple[int, np.ndarray]:
    """The block span L and ``(Phi^T)^L``: L is ``isqrt(steps)``, or the last finite power.

    An overflowed power times an exact zero state entry would give NaN where the
    step-by-step recurrence stays finite, so the span stops before it.
    """
    span, power = 1, stepper_t
    while span < math.isqrt(steps):
        following = power @ stepper_t
        if not np.isfinite(following).all():
            break
        span, power = span + 1, following
    return span, power


def simulate(model: PosetCausalSystem, x0, u: InputSignal) -> Trajectory:
    """Grid samples of the model's zero-order-hold response to ``u``.

    ``model`` is a poset-causal system, a derived model included; its exact
    matrices become doubles here, and ``_simulate`` runs them.
    """
    return _simulate(*_floats(model), x0, u)


def _simulate(a, b, c, d, x0, u: InputSignal) -> Trajectory:
    """The zero-order-hold response to ``u`` of the model with float matrices a, b, c, d.

    The drive ``u Gamma^T`` and the outputs ``x C^T + u_held D^T`` are
    whole-array products (``u_held`` holds the last input at the final grid
    point). The state recurrence runs in blocks of L steps (see the module
    docstring): the drive is written into the state rows it feeds, each
    block's zero-state response is accumulated in place, the block starts are
    chained by ``Phi^L``, and each block start's free response is added back,
    every pass vectorised over the blocks. A finite ``x0`` whose trajectory
    leaves double precision raises ``NonFinite``; a NaN in ``x0`` propagates.
    """
    n, m = b.shape
    if u.width != m:
        raise DimensionMismatch(f"input has width {u.width}, model expects {m}")
    steps = u.steps
    # row k is x[k]; until the passes below, row k + 1 holds the drive Gamma u[k]
    states = np.empty((steps + 1, n))
    states[0] = _initial_state(x0, n)
    big = expm(np.block([[a, b], [np.zeros((m, n + m))]]) * u.step)
    stepper_t = big[:n, :n].T
    held = np.vstack([u.values, u.values[-1:] if steps else np.zeros((1, m))])
    with np.errstate(over="ignore", invalid="ignore"):
        span, leap_t = _span(stepper_t, steps)
        np.matmul(u.values, big[:n, n:].T, out=states[1:])
        # offset[l] views row bL + l of every block b; the last block may end early
        offset = [states[l::span] for l in range(span + 1)]
        for l in range(2, span + 1):
            offset[l] += offset[l - 1][: len(offset[l])] @ stepper_t
        for k in range(span, steps + 1, span):
            states[k] += states[k - span] @ leap_t
        free = offset[0]
        for l in range(1, span):
            free = free[: len(offset[l])] @ stepper_t
            offset[l] += free
        outputs = states @ c.T + held @ d.T
    finite = np.isfinite(states).all() and np.isfinite(outputs).all()
    if not finite and np.isfinite(states[0]).all():
        raise NonFinite("trajectory overflows double precision")
    return Trajectory(times=np.arange(steps + 1) * u.step, states=states, outputs=outputs)


@dataclass(frozen=True)
class DecompositionReport:
    """Max deviations of the trajectory-decomposition identities on the grid."""

    deviations: dict = field(default_factory=dict)
    tolerance: float = 0.0

    @property
    def ok(self) -> bool:
        return all(v <= self.tolerance for v in self.deviations.values())

    def describe(self) -> str:
        lines = [
            f"{name}: max deviation {value:.3e} ({'ok' if value <= self.tolerance else 'FAIL'})"
            for name, value in sorted(self.deviations.items())
        ]
        lines.append(f"tolerance {self.tolerance:.3e}")
        return "\n".join(lines)


def _model_floats(sys: PosetCausalSystem, floats, kind: str, i: int) -> tuple:
    """A, B, C, D of ``derived(sys, kind, i)`` as float slices of ``floats``, and its coordinates.

    ``floats`` is the system's A, B, C, D as doubles. The coordinates are the
    state, input and output indices (``Partition.indices``) of the model's
    nodes; a node's empty block adds none.
    """
    nodes = model_nodes(sys.poset, kind, i)
    states, inputs, outputs = (part.indices(k) for part, k in zip((sys.n, sys.m, sys.r), nodes))
    a, b, c, d = floats
    sliced = (
        a[np.ix_(states, states)],
        b[np.ix_(states, inputs)],
        c[np.ix_(outputs, states)],
        d[np.ix_(outputs, inputs)],
    )
    return sliced, (states, inputs, outputs)


def _nanmax(values) -> float:
    """Largest value, 0.0 if there is none; unlike ``max``, a NaN anywhere gives NaN."""
    return float(np.max(values, initial=0.0))


def _deviation(x, y) -> float:
    return _nanmax(np.abs(x - y))


def verify_trajectory_decomposition(
    sys: PosetCausalSystem, x0, u: InputSignal, tolerance: float = 1e-8
) -> DecompositionReport:
    """Check that the global trajectory decomposes through the derived models.

    Three families of identities are evaluated at every grid point: the global
    state/output as a sum of embedded downstream trajectories, the agreement of
    each downstream trajectory's own-node component with the local model, and
    the per-node split of the global trajectory into the local contribution
    plus strictly-upstream downstream contributions. Upstream models are also
    checked to be restrictions of the global trajectory.
    """
    poset = sys.poset
    n, r = sys.n, sys.r
    x0vec = _initial_state(x0, n.total)
    floats = _floats(sys)
    global_traj = _simulate(*floats, x0vec, u)
    gx, gy = global_traj.states, global_traj.outputs

    def run(model, seeded_nodes):
        # the derived model started from x0 on seeded_nodes (zero elsewhere), in its own coordinates
        (a, b, c, d), (states, inputs, _) = model
        seed = np.zeros(n.total)
        seeded = n.indices(seeded_nodes)
        seed[seeded] = x0vec[seeded]
        traj = _simulate(a, b, c, d, seed[states], u.restrict(inputs))
        return traj.states, traj.outputs

    def own(model, i):
        # node i's state and output columns within the model; its coordinates increase
        _, (states, _, outputs) = model
        return np.searchsorted(states, n.indices((i,))), np.searchsorted(outputs, r.indices((i,)))

    # each downstream trajectory keeps its model's width; the sums add them in node order
    down_models = {i: _model_floats(sys, floats, "downstream", i) for i in poset.nodes}
    down = {}
    sum_x, sum_y = np.zeros_like(gx), np.zeros_like(gy)
    for i in poset.nodes:
        down[i] = down_x, down_y = run(down_models[i], (i,))
        _, (states, _, outputs) = down_models[i]
        sum_x[:, states] += down_x
        sum_y[:, outputs] += down_y
    local_x, local_y, split_x, split_y, up = [], [], [], [], []
    for i in poset.nodes:
        own_x, own_y = n.indices((i,)), r.indices((i,))
        # node i's columns in the downstream model at each j above it; the local
        # model's coordinates are node i's alone, and so are the upstream model's outputs
        at = {j: own(down_models[j], i) for j in derived_set(poset, {i}, "up")}
        full_x, full_y = run(down_models[i], poset.nodes)
        loc_x, loc_y = run(_model_floats(sys, floats, "local", i), (i,))
        local_x.append(_deviation(full_x[:, at[i][0]], loc_x))
        local_y.append(_deviation(full_y[:, at[i][1]], loc_y))

        above = sorted(derived_set(poset, {i}, "strict_up"))
        parts_x = sum((down[j][0][:, at[j][0]] for j in above), loc_x)
        parts_y = sum((down[j][1][:, at[j][1]] for j in above), loc_y)
        split_x.append(_deviation(gx[:, own_x], parts_x))
        split_y.append(_deviation(gy[:, own_y], parts_y))

        upstream = _model_floats(sys, floats, "upstream", i)
        ups = upstream[1][0]
        up_x, up_y = run(upstream, poset.nodes)
        up.append(_deviation(up_x, gx[:, ups]))
        up.append(_deviation(up_y, gy[:, own_y]))

    families = {
        "downstream_sum_states": [_deviation(gx, sum_x)],
        "downstream_sum_outputs": [_deviation(gy, sum_y)],
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
