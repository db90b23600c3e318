"""Floating-point trajectory simulation and trajectory-decomposition checks.

Inputs are piecewise constant on a uniform grid, so one matrix exponential of
the augmented matrix [[A, B], [0, 0]] times the step gives the zero-order-hold
recurrence x[k+1] = Phi x[k] + Gamma u[k], exact up to rounding (Van Loan, IEEE
TAC 23, 1978); no ODE-solver truncation error enters the identity checks. Exact
rational matrices become doubles at this boundary only; what does not fit a
double raises ``NonFinite``. Derived models are poset-causal systems too, so one
``simulate`` serves them all. The decomposition check converts the system's
matrices to doubles once and runs each derived model on cuts of them by
``system.model_slices``, the one slicer that also cuts ``derived``'s exact
matrices and the integer slices of the exact sets, at the model's coordinates
(``system.model_coordinates``). Each trajectory stays at its model's width:
the check compares it with the global one at those coordinates.

``simulate`` runs the recurrence over K steps in blocks of L = isqrt(K) steps,
so each Python-level pass is one product vectorised over all ceil(K/L) blocks.
Within block b, x[bL + l] = Phi^l x[bL] + c[b, l], where the zero-state part
c[b, l] = Phi c[b, l-1] + Gamma u[bL + l-1] starts from c[b, 0] = 0. A
simulation has two stages. ``_forced`` does what does not depend on x[0]: the
exponential, the powers Phi^1 .. Phi^L (L - 1 products) and, in L - 1 passes,
every block's c. ``_respond`` chains the block starts x[(b+1)L] = Phi^L x[bL] +
c[b, L] in ceil(K/L) passes, then forms every block start's free response
Phi^l x[bL], l < L, in one product with the stacked powers, and the outputs in
one more. So a model's first run makes about 2 isqrt(K) passes over the
blocks, and a further run of the same model isqrt(K) + 2; the L - 1 products
that form the powers are n x n. Expanding either form gives the same
sum of powers of Phi times x[0] and the drives, so this is the step-by-step
map; only the rounding of its sums differs. L is cut back to the last power of
Phi that is still finite: an overflowed Phi^L times an exact zero of the state
would give NaN where the step-by-step loop stays finite.

The check runs 4p + 1 simulations for p nodes, but fewer distinct models: the
downstream model runs from two seeds, and a node with no strict down-set
(up-set) has a downstream (upstream) model on the local model's coordinates.
Runs of models with the same state and input coordinates share one ``_forced``
part, kept only until the last of them, so ``simulate`` and the check run the
same arithmetic on each model. The check is one pass in node order after every
local run: each downstream trajectory is added into the global sums and into
the splits of the nodes below it as it arrives, then dropped, so the check's
peak memory does not grow with the depth of the poset.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .errors import DimensionMismatch, NonFinite
from .poset import derived_set
from .system import PosetCausalSystem, model_coordinates, model_slices

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

    @classmethod
    def _of(cls, step: float, values: np.ndarray) -> "InputSignal":
        """The signal of a step and a (steps, width) float array already validated (not checked)."""
        out = cls.__new__(cls)
        object.__setattr__(out, "step", step)
        object.__setattr__(out, "values", values)
        return out

    def restrict(self, columns) -> "InputSignal":
        """The signal on the given columns; they are columns of a validated signal."""
        return InputSignal._of(self.step, self.values[:, list(columns)])


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


def _powers(stepper_t: np.ndarray, steps: int) -> np.ndarray:
    """The stacked powers ``(Phi^T)^1 .. (Phi^T)^L`` as an (n, L, n) array; ``[:, l - 1]`` is the l-th.

    L is ``max(1, isqrt(steps))``, or the last finite power: an overflowed power
    times an exact zero state entry would give NaN where the step-by-step
    recurrence stays finite, so the stack stops before it.
    """
    n, span = stepper_t.shape[0], max(1, math.isqrt(steps))
    powers = np.empty((n, span, n))
    powers[:, 0] = stepper_t
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(1, span):
            np.matmul(powers[:, l - 1], stepper_t, out=powers[:, l])
    finite = np.isfinite(powers).all(axis=(0, 2))
    return powers if finite.all() else powers[:, : finite.argmin()].copy()


@dataclass(frozen=True)
class _Forced:
    """What a simulation computes before it sees x0.

    ``powers`` is ``_powers`` of Phi^T; row bL + l of ``zero`` is the zero-state
    response c[b, l], and row 0 is zero.
    """

    powers: np.ndarray
    zero: np.ndarray


def _forced(a, b, u: InputSignal) -> _Forced:
    """The x0-free part of the zero-order-hold response to ``u`` of the model with float a, b.

    One matrix exponential gives Phi and Gamma; the drive ``u Gamma^T`` is
    written into the rows it feeds (row k + 1 holds ``Gamma u[k]``), and L - 1
    passes vectorised over the blocks accumulate each block's zero-state response
    in place.
    """
    n, m = b.shape
    if u.width != m:
        raise DimensionMismatch(f"input has width {u.width}, model expects {m}")
    augmented = np.zeros((n + m, n + m))
    augmented[:n, :n], augmented[:n, n:] = a, b
    big = expm(augmented * u.step)
    zero = np.empty((u.steps + 1, n))
    zero[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _powers(big[:n, :n].T, u.steps)
        span, stepper_t = powers.shape[1], powers[:, 0]
        np.matmul(u.values, big[:n, n:].T, out=zero[1:])
        # offset[l] views row bL + l of every block b; the last block may end early
        offset = [zero[l::span] for l in range(span + 1)]
        for l in range(2, span + 1):
            offset[l] += offset[l - 1][: len(offset[l])] @ stepper_t
    return _Forced(powers=powers, zero=zero)


def _respond(forced: _Forced, c, d, x0, u: InputSignal) -> Trajectory:
    """The trajectory from ``x0`` of a model whose x0-free part is ``forced``, with float c, d.

    The block starts x[bL] are chained by ``Phi^L``; one product with the
    stacked powers ``[Phi^T^1 .. Phi^T^(L-1)]`` then gives every block start's
    free response, which is added to the zero-state response. The outputs are
    ``x C^T + u_held D^T`` (``u_held`` holds the last input at the final grid
    point). A finite ``x0`` whose trajectory leaves double precision raises
    ``NonFinite``; a NaN in ``x0`` propagates.
    """
    powers, zero = forced.powers, forced.zero
    n, span, steps = powers.shape[0], powers.shape[1], u.steps
    starts = zero[::span].copy()
    starts[0] = _initial_state(x0, n)
    states = np.empty_like(zero)
    whole = len(starts) - 1  # blocks that hold all L steps; the last start's block is shorter
    held = np.vstack([u.values, u.values[-1:] if steps else np.zeros((1, u.width))])
    leap_t = powers[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(starts)):
            starts[k] += starts[k - 1] @ leap_t
        states[::span] = starts
        stacked = powers[:, : span - 1].reshape(n, (span - 1) * n)
        # row b of body is x[bL + 1 .. bL + L - 1] side by side, row 0 of tail the last block's
        body = states[: whole * span].reshape(whole, span * n)[:, n:]
        tail = states[whole * span + 1 :].reshape(1, -1)
        np.matmul(starts[:whole], stacked, out=body)
        np.matmul(starts[whole:], stacked[:, : tail.shape[1]], out=tail)
        body += zero[: whole * span].reshape(whole, span * n)[:, n:]
        tail += zero[whole * span + 1 :].reshape(tail.shape)
        outputs = states @ c.T
        outputs += held @ d.T
    finite = np.isfinite(states).all() and np.isfinite(outputs).all()
    if not finite and np.isfinite(states[0]).all():
        raise NonFinite("trajectory overflows double precision")
    return Trajectory(times=np.arange(steps + 1) * u.step, states=states, outputs=outputs)


def simulate(model: PosetCausalSystem, x0, u: InputSignal) -> Trajectory:
    """Grid samples of the model's zero-order-hold response to ``u``.

    ``model`` is a poset-causal system, a derived model included; its exact
    matrices become doubles here. The x0-free part comes from ``_forced`` and
    the trajectory from ``_respond``, as in the decomposition check.
    """
    a, b, c, d = _floats(model)
    return _respond(_forced(a, b, u), c, d, x0, u)


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


def _nanmax(values) -> float:
    """Largest value, 0.0 if there is none; unlike ``max``, a NaN anywhere gives NaN."""
    return float(np.max(values, initial=0.0))


def _deviation(x, y) -> float:
    return _nanmax(np.abs(x - y))


# runs of each derived model per node: the downstream model seeded at its node and everywhere
_RUNS = {"downstream": 2, "local": 1, "upstream": 1}


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

    One pass in node order after every local run: node i's split starts from
    its local trajectory, and the downstream trajectory seeded at node j is
    added into the global sums and into the splits of the nodes below j as it
    arrives, then dropped, so at most one is alive at a time. Models that share
    their state and input coordinates share one ``_forced`` part, which is
    dropped after their last run.
    """
    poset = sys.poset
    n, r = sys.n, sys.r
    x0vec = _initial_state(x0, n.total)
    floats = _floats(sys)
    a, b, c, d = floats
    global_traj = _respond(_forced(a, b, u), c, d, x0vec, u)
    gx, gy = global_traj.states, global_traj.outputs

    coords = {(kind, i): model_coordinates(sys, kind, i) for kind in _RUNS for i in poset.nodes}

    def shared(kind, i):
        # models on the same state and input coordinates share their forced part
        states, inputs, _ = coords[kind, i]
        return tuple(states), tuple(inputs)

    left = Counter()
    for kind, i in coords:
        left[shared(kind, i)] += _RUNS[kind]
    forced = {}

    def run(kind, i, seeded_nodes):
        # the derived model started from x0 on seeded_nodes (zero elsewhere), in its own coordinates
        states, inputs, _ = coords[kind, i]
        model_a, model_b, model_c, model_d = model_slices(floats, coords[kind, i])
        key = shared(kind, i)
        if key not in forced:
            ui = u.restrict(inputs)
            forced[key] = _forced(model_a, model_b, ui), ui
        part, ui = forced[key]
        left[key] -= 1
        if not left[key]:
            del forced[key]
        seed = np.zeros(n.total)
        seeded = n.indices(seeded_nodes)
        seed[seeded] = x0vec[seeded]
        traj = _respond(part, model_c, model_d, seed[states], ui)
        return traj.states, traj.outputs

    def own(j, i):
        # node i's state and output columns within the downstream model at j; its coordinates increase
        states, _, outputs = coords["downstream", j]
        return np.searchsorted(states, n.indices((i,))), np.searchsorted(outputs, r.indices((i,)))

    # the local model's coordinates are its node's alone, and so are the upstream model's outputs
    local = {i: run("local", i, (i,)) for i in poset.nodes}
    split_x = {i: loc_x.copy() for i, (loc_x, _) in local.items()}
    split_y = {i: loc_y.copy() for i, (_, loc_y) in local.items()}
    sum_x, sum_y = np.zeros_like(gx), np.zeros_like(gy)
    local_x, local_y, up = [], [], []
    for j in poset.nodes:
        states, _, outputs = coords["downstream", j]
        down_x, down_y = run("downstream", j, (j,))
        sum_x[:, states] += down_x
        sum_y[:, outputs] += down_y
        for i in derived_set(poset, {j}, "strict_down"):
            cols_x, cols_y = own(j, i)
            split_x[i] += down_x[:, cols_x]
            split_y[i] += down_y[:, cols_y]
        # no trajectory outlives its last use, which keeps the check's peak memory down
        del down_x, down_y

        cols_x, cols_y = own(j, j)
        full_x, full_y = run("downstream", j, poset.nodes)
        loc_x, loc_y = local.pop(j)
        local_x.append(_deviation(full_x[:, cols_x], loc_x))
        local_y.append(_deviation(full_y[:, cols_y], loc_y))
        del full_x, full_y, loc_x, loc_y

        up_x, up_y = run("upstream", j, poset.nodes)
        up.append(_deviation(up_x, gx[:, coords["upstream", j][0]]))
        up.append(_deviation(up_y, gy[:, r.indices((j,))]))
        del up_x, up_y

    families = {
        "downstream_sum_states": [_deviation(gx, sum_x)],
        "downstream_sum_outputs": [_deviation(gy, sum_y)],
        "downstream_local_component_states": local_x,
        "downstream_local_component_outputs": local_y,
        "per_node_split_states": [_deviation(gx[:, n.indices((i,))], split_x[i]) for i in poset.nodes],
        "per_node_split_outputs": [_deviation(gy[:, r.indices((i,))], split_y[i]) for i in poset.nodes],
        "upstream_restriction": up,
    }
    return DecompositionReport(
        deviations={name: _nanmax(devs) for name, devs in families.items()},
        tolerance=tolerance,
    )
