"""Kalman-style exact reductions, classical and structure-preserving.

Compressions use the Gram-matrix formula A' = (V^T V)^-1 V^T A V for a
rational basis V, which keeps every compressed system exactly rational (an
orthonormal basis would generally need irrational entries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .blockmat import Partition
from .errors import DimensionMismatch, InclusionViolation, StructureViolation
from .observability import profile as obs_profile
from .observability import unobservable
from .reachability import profile as reach_profile
from .reachability import reachable
from .subspace import Subspace
from .system import PosetCausalSystem, dual_system, require_valid

__all__ = [
    "KalmanDecomposition",
    "kalman",
    "CompressedTriple",
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


@dataclass(frozen=True)
class CompressedTriple:
    """Compression of (A, B, C) to a subspace, with its rational basis."""

    subspace: Subspace
    basis: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def _compress_to(sys: PosetCausalSystem, basis: np.ndarray) -> tuple:
    gram_inv = la.inverse(la.mdot(basis.T, basis))
    lift = la.mdot(gram_inv, basis.T)
    a = la.mdot(lift, la.mdot(sys.A.entries, basis))
    b = la.mdot(lift, sys.B.entries)
    c = la.mdot(sys.C.entries, basis)
    return a, b, c


def _horizon(n1: int, n2: int) -> int:
    """Moments that agree for k <= n1 + n2 - 1 agree for all k (Cayley-Hamilton on diag(A1, A2))."""
    return max(n1 + n2 - 1, 0)


def _moments_agree(first: tuple, second: tuple) -> bool:
    """Exact equality of C A^k B up to the ``_horizon`` of two (A, B, C) triples."""
    (a1, b1, c1), (a2, b2, c2) = first, second
    for _ in range(_horizon(a1.shape[0], a2.shape[0]) + 1):
        lhs = la.mdot(c1, b1)
        rhs = la.mdot(c2, b2)
        if not (lhs.shape == rhs.shape and all(x == y for x, y in zip(lhs.flat, rhs.flat))):
            return False
        b1 = la.mdot(a1, b1)
        b2 = la.mdot(a2, b2)
    return True


def _triple(sys: PosetCausalSystem) -> tuple:
    return sys.A.entries, sys.B.entries, sys.C.entries


def generalized_reduce(
    sys: PosetCausalSystem,
    inner_reach: Subspace,
    outer_reach: Subspace,
    inner_unobs: Subspace,
) -> CompressedTriple:
    """Compress to outer_reach minus (inner_reach intersect inner_unobs).

    Requires inner_reach <= reachable <= outer_reach and
    inner_unobs <= unobservable; the compressed triple reproduces every moment
    C A^k B, which is verified exactly before returning.
    """
    require_valid(sys)
    reach = reachable(sys)
    unobs = unobservable(sys)
    if not reach.contains(inner_reach):
        raise InclusionViolation("inner_reach is not contained in the reachable set")
    if not outer_reach.contains(reach):
        raise InclusionViolation("outer_reach does not contain the reachable set")
    if not unobs.contains(inner_unobs):
        raise InclusionViolation("inner_unobs is not contained in the unobservable set")
    target = outer_reach.ominus(inner_reach.intersect(inner_unobs))
    kal = kalman(sys)
    if not target.contains(kal.reach_obs):
        raise StructureViolation("reduction subspace misses the reachable-observable part")
    basis = target.basis
    a, b, c = _compress_to(sys, basis)
    if not _moments_agree(_triple(sys), (a, b, c)):
        raise StructureViolation("compression failed to preserve the moments (internal bug)")
    return CompressedTriple(subspace=target, basis=basis, A=a, B=b, C=c)


@dataclass(frozen=True)
class ReducedSystem:
    """A structure-preserving reduction onto a block-decomposed subspace.

    ``basis`` stacks the per-block bases in node order, so it is block
    diagonal as a map from the reduced to the original state space.
    """

    variant: str
    subspace: Subspace
    block_dims: tuple
    basis: np.ndarray
    source_partition: Partition
    system: PosetCausalSystem
    moment_horizon: int
    optimal_hypothesis: bool

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def block_basis(self, j: int) -> np.ndarray:
        """Basis of block j's retained subspace in that block's local coordinates."""
        rows = self.source_partition.indices((j,))
        cols = Partition(self.block_dims).indices((j,))
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
    require_valid(sys)
    if variant not in REDUCTION_VARIANTS:
        raise ValueError(f"variant must be one of {REDUCTION_VARIANTS}")
    source = sys if variant == "primal" else dual_system(sys)
    rp = reach_profile(source)
    op = obs_profile(source)
    inner = rp.node_floor if variant == "dual_circ" else rp.node_independent
    poset = sys.poset
    n = sys.n
    parts = [
        rp.node_ceiling[j].ominus(inner[j].intersect(op.node_floor[j])) for j in poset.nodes
    ]
    subspace = Subspace.zero(n.total).sum(*parts)
    dims = [part.dim for part in parts]
    # the canonical basis of a sum of subspaces of distinct blocks is the per-block stack
    basis = subspace.basis
    a, b, c = _compress_to(sys, basis)
    reduced = PosetCausalSystem(
        poset=poset,
        n=tuple(dims),
        m=sys.m,
        r=sys.r,
        A=a,
        B=b,
        C=c,
        D=sys.D.entries,
    )
    require_valid(reduced)
    if not moments_equal(sys, reduced):
        raise StructureViolation("structured reduction failed to preserve the moments")

    kal = kalman(sys)
    hypothesis = all(
        subspace.coordinate_project(n, (j,)).equals(kal.reach_obs.coordinate_project(n, (j,)))
        for j in poset.nodes
    )
    return ReducedSystem(
        variant=variant,
        subspace=subspace,
        block_dims=tuple(dims),
        basis=basis,
        source_partition=n,
        system=reduced,
        moment_horizon=_horizon(sys.state_dim, reduced.state_dim),
        optimal_hypothesis=hypothesis,
    )


def moments_equal(sys1: PosetCausalSystem, sys2: PosetCausalSystem) -> bool:
    """Exact equality of C A^k B for every k, checked for k = 0..n1 + n2 - 1."""
    if sys1.input_dim != sys2.input_dim or sys1.output_dim != sys2.output_dim:
        raise DimensionMismatch("systems must share input and output dimensions")
    return _moments_agree(_triple(sys1), _triple(sys2))
