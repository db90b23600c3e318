"""Kalman-style exact reductions, classical and structure-preserving.

Every reduction is again a poset-causal system, over the source's poset or,
for a sandwich compression, over the one-element order. One step compresses
with the Gram formula A' = (V^T V)^-1 V^T A V for a rational basis V (an
orthonormal basis would generally need irrational entries), solved on the
integers of V and of the system, checks the result's pattern and verifies
its moments on a joint reachable subspace, built from both systems' integer
forms. It forms no Fraction and clears no matrix itself: the systems'
integer forms are cleared, and the results made exact (``exact_over``), by
``_linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .blockmat import Partition
from .errors import DimensionMismatch, InclusionViolation, StructureViolation
from .observability import profile as obs_profile
from .observability import unobservable
from .poset import build_poset
from .reachability import profile as reach_profile
from .reachability import reachable
from .subspace import Subspace, direct_sum
from .system import PosetCausalSystem, dual_system

__all__ = [
    "KalmanDecomposition",
    "kalman",
    "Compression",
    "generalized_reduce",
    "ReducedSystem",
    "poset_reduce",
    "moments_equal",
    "REDUCTION_VARIANTS",
]

REDUCTION_VARIANTS = ("primal", "dual_tilde", "dual_circ")


@dataclass(frozen=True)
class KalmanDecomposition:
    """The four classical Kalman subspaces of one system.

    ``reach_obs`` and ``unreach_unobs`` are computed along two independent
    routes (set difference and projection) which must agree. ``reach_obs`` and
    ``unreach_unobs`` need not be orthogonal to each other; all listed sum
    decompositions are exact.
    """

    reach_obs: Subspace
    reach_unobs: Subspace
    unreach_obs: Subspace
    unreach_unobs: Subspace


def kalman(sys: PosetCausalSystem) -> KalmanDecomposition:
    """Classical Kalman decomposition (ignores the poset structure)."""
    reach = reachable(sys)
    unobs = unobservable(sys)
    both = reach.intersect(unobs)
    reach_obs = reach.ominus(both)
    if not reach_obs.equals(unobs.complement().project_onto(reach)):
        raise StructureViolation("the two formulas for the reachable-observable part differ")
    unreach_unobs = unobs.ominus(both)
    if not unreach_unobs.equals(reach.complement().project_onto(unobs)):
        raise StructureViolation("the two formulas for the unreachable-unobservable part differ")
    return KalmanDecomposition(
        reach_obs=reach_obs,
        reach_unobs=both,
        unreach_obs=reach.sum(unobs).complement(),
        unreach_unobs=unreach_unobs,
    )


def _horizon(n1: int, n2: int) -> int:
    """Moments equal for k <= n1 + n2 - 1 are equal for all k (Cayley-Hamilton); reported only."""
    return max(n1 + n2 - 1, 0)


def _compress(sys: PosetCausalSystem, subspace: Subspace, poset, n, m, r) -> PosetCausalSystem:
    """``sys`` compressed to ``subspace`` over ``poset``; its pattern is checked on construction.

    With V the pivot-1 basis, A' = L A V, B' = L B and C' = C V for the left
    inverse L = (V^T V)^-1 V^T, which is unique. All of it is solved on
    integers. V = Vi diag(1/p), with Vi the canonical integer basis and p
    its pivots, so with G = Vi^T Vi the left inverse is diag(p) G^-1 Vi^T:
    the scaling of V's columns cancels inside L and comes back only as
    diag(p) on the left and diag(1/p) on the right. The system's integer
    form gives A = Ia / d, B = Ib diag(1/e) and C = diag(1/f) Ic, so

        A' = diag(p) G^-1 Vi^T Ia Vi diag(1/p) / d,
        B' = diag(p) G^-1 Vi^T Ib diag(1/e),
        C' = diag(1/f) Ic Vi diag(1/p).

    One elimination of [G, Vi^T Ia Vi, Vi^T Ib] (``_linalg.normal_equations``)
    gives row i of G^-1 [Vi^T Ia Vi, Vi^T Ib] as an integer row over its
    pivot q_i. With X those rows times diag(p), every entry is an integer
    over a row scale times a column scale: A' is X over (q_i d, p_j), B' is
    X over (q_i, e_j) and C' is Ic Vi over (f_i, p_j), each made exact once
    by ``_linalg.exact_over``. At these sizes one elimination of the whole
    Gram matrix is faster than one per block of a block-diagonal
    ``poset_reduce`` basis.
    """
    (ia, ib, ic), (d, e, f) = sys._integer_form
    vi = subspace.integer_basis
    p = subspace.pivots
    k = len(p)
    q, rows = la.normal_equations(vi, np.hstack([ia.dot(vi), ib]))
    rows = rows * np.array(p, dtype=object)[:, None]  # X = diag(p) diag(q) G^-1 [Vi^T Ia Vi, Vi^T Ib]
    a = la.exact_over(rows[:, :k], [qi * d for qi in q], p)
    b = la.exact_over(rows[:, k:], q, e)
    c = la.exact_over(ic.dot(vi), f, p)
    reduced = PosetCausalSystem(poset, n, m, r, a, b, c, sys.D.entries)
    if not moments_equal(sys, reduced):
        raise StructureViolation("compression failed to preserve the moments (internal bug)")
    return reduced


@dataclass(frozen=True)
class Compression:
    """A system compressed to ``subspace``, keeping its inputs, outputs, D and moments."""

    subspace: Subspace
    system: PosetCausalSystem

    @property
    def basis(self) -> np.ndarray:
        return self.subspace.basis


def generalized_reduce(
    sys: PosetCausalSystem,
    inner_reach: Subspace,
    outer_reach: Subspace,
    inner_unobs: Subspace,
) -> Compression:
    """Compress to outer_reach minus (inner_reach intersect inner_unobs).

    Requires inner_reach <= reachable <= outer_reach and
    inner_unobs <= unobservable. The subspace need not be block-decomposed, so
    the compressed system lives over the one-element order, with partitions
    [k], [m], [r]; its moments C A^k B are verified exactly before returning.
    """
    kal = kalman(sys)
    # both splits are orthogonal: reach_unobs lies in the reachable and the unobservable set
    reach = kal.reach_obs.sum(kal.reach_unobs)
    unobs = kal.reach_unobs.sum(kal.unreach_unobs)
    if not reach.contains(inner_reach):
        raise InclusionViolation("inner_reach is not contained in the reachable set")
    if not outer_reach.contains(reach):
        raise InclusionViolation("outer_reach does not contain the reachable set")
    if not unobs.contains(inner_unobs):
        raise InclusionViolation("inner_unobs is not contained in the unobservable set")
    target = outer_reach.ominus(inner_reach.intersect(inner_unobs))
    if not target.contains(kal.reach_obs):
        raise StructureViolation("reduction subspace misses the reachable-observable part")
    system = _compress(
        sys, target, build_poset(1, []), (target.dim,), (sys.input_dim,), (sys.output_dim,)
    )
    return Compression(subspace=target, system=system)


@dataclass(frozen=True)
class ReducedSystem(Compression):
    """A structure-preserving reduction onto a block-decomposed subspace.

    ``system`` lives over the source's poset; its state block j is what
    ``subspace`` keeps of block j, so ``basis`` (the per-block bases stacked in
    node order) is block diagonal. Block dims, total dim and moment horizon are
    read off ``system``.
    """

    variant: str
    source_partition: Partition
    optimal_hypothesis: bool

    @property
    def block_dims(self) -> tuple:
        return self.system.n.sizes

    @property
    def total_dim(self) -> int:
        return self.system.state_dim

    @property
    def moment_horizon(self) -> int:
        return _horizon(self.source_partition.total, self.total_dim)

    def block_basis(self, j: int) -> np.ndarray:
        """Basis of block j's retained subspace in that block's local coordinates."""
        rows = self.source_partition.indices((j,))
        cols = self.system.n.indices((j,))
        return self.basis[np.ix_(rows, cols)]


def poset_reduce(sys: PosetCausalSystem, variant: str = "primal") -> ReducedSystem:
    """Compress to a structured subspace while preserving pattern and moments.

    Block j keeps ceiling_j of R minus (inner_j of R cap floor_j of N), with R*
    and N* the reachability and unobservability bounds of a source system.
    ``primal`` takes the system itself and the independent bound as inner; the
    dual variants are the same construction on the dual system, ``dual_tilde``
    with the independent bound and ``dual_circ`` cutting with the floor. The
    dual shares the state coordinates, so every variant compresses the system
    itself; its moments are verified exactly. The reduced system lives over
    the same poset.
    """
    if variant not in REDUCTION_VARIANTS:
        raise ValueError(f"variant must be one of {REDUCTION_VARIANTS}")
    source = sys if variant == "primal" else dual_system(sys)
    rp = reach_profile(source)
    op = obs_profile(source)
    inner = rp.node_floor if variant == "dual_circ" else rp.node_independent
    poset = sys.poset
    parts = [
        rp.node_ceiling[j].ominus(inner[j].intersect(op.node_floor[j])) for j in poset.nodes
    ]
    subspace = direct_sum(*parts)
    reduced = _compress(sys, subspace, poset, [part.dim for part in parts], sys.m, sys.r)
    kal = kalman(sys)
    hypothesis = all(kal.reach_obs.project(sys.n, (j,)) == parts[j - 1] for j in poset.nodes)
    return ReducedSystem(
        subspace=subspace,
        system=reduced,
        variant=variant,
        source_partition=sys.n,
        optimal_hypothesis=hypothesis,
    )


def moments_equal(sys1: PosetCausalSystem, sys2: PosetCausalSystem) -> bool:
    """Exact equality of C1 A1^k B1 and C2 A2^k B2 for every k.

    With A = diag(A1, A2), B = [B1; B2] and C = [C1, -C2], the moments agree
    for every k exactly when C vanishes on the reachable subspace of (A, B),
    the smallest A-invariant subspace containing im B (Wonham, *Linear
    Multivariable Control*). No power of A is formed, and the joint matrices
    are built on the two systems' integer forms (A = Ia / d, B = Ib diag(1/e),
    C = diag(1/f) Ic), never as Fractions:

        A = diag(Ia1 d2, Ia2 d1),  B = [Ib1 diag(e2); Ib2 diag(e1)],
        C = [diag(f2) Ic1, -diag(f1) Ic2].

    These are d1 d2 times the joint A, the joint B with column j times
    e1[j] e2[j] and the joint C with row i times f1[i] f2[i]: positive
    rescalings, which keep the invariant subspaces, the reachable span and
    the kernel of C.
    """
    if sys1.input_dim != sys2.input_dim or sys1.output_dim != sys2.output_dim:
        raise DimensionMismatch("systems must share input and output dimensions")
    (ia1, ib1, ic1), (d1, e1, f1) = sys1._integer_form
    (ia2, ib2, ic2), (d2, e2, f2) = sys2._integer_form
    e1, e2, f1, f2 = (np.array(s, dtype=object) for s in (e1, e2, f1, f2))
    n1, n = sys1.state_dim, sys1.state_dim + sys2.state_dim
    a = np.zeros((n, n), dtype=object)
    a[:n1, :n1], a[n1:, n1:] = ia1 * d2, ia2 * d1
    b = np.vstack([ib1 * e2, ib2 * e1])
    c = np.hstack([f2[:, None] * ic1, -f1[:, None] * ic2])
    return la.is_zero_matrix(c.dot(la.invariant_span(a, b)))
