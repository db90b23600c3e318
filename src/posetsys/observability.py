"""Unobservable subspaces, their structured bounds, and the dual route.

Everything mirrors the reachability side through the dual system: the
upstream model at node i yields the states indistinguishable from zero when
only output i is watched. Structured bounds:

* ``independent`` - block intersections of projected indistinguishable sets
  (independently observable <=> equals {0}),
* ``floor``       - the largest structured subspace inside the unobservable
  set (weakly downstream observable <=> equals {0}),
* ``ceiling``     - the smallest structured subspace containing it.

``profile`` computes these directly; ``profile_via_duality`` recomputes them
from the reachability profile of the dual system. The two must agree exactly,
which is the strongest self-check this package has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import StructureViolation
from .poset import derived_set
from .reachability import BlockProfile, ctrb_matrix
from .reachability import profile as reach_profile
from .subspace import Subspace, kernel
from .system import PosetCausalSystem, derived, dual_system, require_valid

__all__ = [
    "ObservabilityProfile",
    "obsv_matrix",
    "unobservable",
    "upstream_indistinguishable",
    "DUAL_SPACES",
    "dual_key",
    "profile",
    "profile_via_duality",
]


def obsv_matrix(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """[C; CA; ...; C A^(n-1)], the transposed controllability construction."""
    return ctrb_matrix(a.T, c.T).T


def unobservable(sys: PosetCausalSystem) -> Subspace:
    """Kernel of the observability matrix of the global model."""
    return kernel(obsv_matrix(sys.C.entries, sys.A.entries))


def upstream_indistinguishable(sys: PosetCausalSystem, i: int) -> Subspace:
    """States of the upstream model at i invisible in output i, in the coordinates of its up-set."""
    sub = derived(sys, "upstream", i)
    return kernel(obsv_matrix(sub.C.entries, sub.A.entries))


@dataclass(frozen=True)
class ObservabilityProfile(BlockProfile):
    """All observability subspaces of one system, each in the coordinates of its blocks.

    ``upstream[i]`` lives in the up-set of i; ``confined[(i, j)]`` intersects
    it with block j and ``projected[(i, j)]`` projects it there, where both
    live (``embedded`` places them globally). The aggregates and the flags
    are derived here, so they always match the per-node parts.
    """

    _PAIR_BLOCK = 1

    unobservable: Subspace
    upstream: dict
    confined: dict
    projected: dict
    node_independent: dict
    node_floor: dict
    node_ceiling: dict
    independent: Subspace = field(init=False)
    floor: Subspace = field(init=False)
    ceiling: Subspace = field(init=False)
    observable: bool = field(init=False)
    independently_observable: bool = field(init=False)
    weakly_downstream_observable: bool = field(init=False)
    weakly_locally_observable: bool = field(init=False)

    def _derived(self):
        yield "observable", self.unobservable.is_zero()
        yield "independently_observable", self.independent.is_zero()
        yield "weakly_downstream_observable", self.floor.is_zero()
        confined = (self.confined[(i, i)] for i in self.node_floor)
        yield "weakly_locally_observable", all(space.is_zero() for space in confined)


# The paper's duality map: each per-node and per-pair observability space of a
# system is the orthogonal complement, in its blocks, of this reachability
# space of the dual system at the swapped key (``dual_key``).
DUAL_SPACES = {
    "upstream": "downstream",
    "confined": "projected",
    "projected": "exclusive",
    "node_floor": "node_ceiling",
    "node_independent": "node_independent",
    "node_ceiling": "node_floor",
}


def profile(sys: PosetCausalSystem) -> ObservabilityProfile:
    """Compute every observability subspace and flag by direct kernel computations."""
    require_valid(sys)
    poset = sys.poset
    n = sys.n
    unobs = unobservable(sys)
    upstream = {i: upstream_indistinguishable(sys, i) for i in poset.nodes}

    confined = {}
    projected = {}
    seen = []
    for i in poset.nodes:
        above = derived_set(poset, {i}, "up")
        for j in sorted(above):
            confined[(i, j)] = upstream[i].section(n.restrict(above), (j,))
            projected[(i, j)] = upstream[i].project(n.restrict(above), (j,))
        seen.append(upstream[i].complement().embed(n, above))

    node_floor = {}
    node_independent = {}
    node_ceiling = {}
    for j in poset.nodes:
        downs = sorted(derived_set(poset, {j}, "down"))
        node_floor[j] = reduce(Subspace.intersect, (confined[(i, j)] for i in downs))
        node_independent[j] = reduce(Subspace.intersect, (projected[(i, j)] for i in downs))
        node_ceiling[j] = unobs.project(n, (j,))
        if not node_floor[j].equals(unobs.section(n, (j,))):
            raise StructureViolation(
                f"floor at node {j} disagrees with the confined unobservable set (internal bug)"
            )

    # the complement of an intersection of embedded upstream sets sums their complements
    if not Subspace.sum(*seen).equals(unobs.complement()):
        raise StructureViolation(
            "unobservable set is not the intersection of the embedded upstream sets (internal bug)"
        )

    return ObservabilityProfile(
        unobservable=unobs,
        upstream=upstream,
        confined=confined,
        projected=projected,
        node_independent=node_independent,
        node_floor=node_floor,
        node_ceiling=node_ceiling,
    )


def dual_key(key):
    """The key of the paired space on the other side: pairs transpose, nodes stay."""
    return key[::-1] if isinstance(key, tuple) else key


def profile_via_duality(sys: PosetCausalSystem) -> ObservabilityProfile:
    """Recover the observability profile from the dual system's reachability.

    Every space is the orthogonal complement, in its blocks, of the dual
    reachability space that ``DUAL_SPACES`` pairs it with; no kernel is ever
    computed.
    """
    require_valid(sys)
    rp = reach_profile(dual_system(sys))
    spaces = {
        name: {dual_key(key): space.complement() for key, space in getattr(rp, dual_name).items()}
        for name, dual_name in DUAL_SPACES.items()
    }
    return ObservabilityProfile(unobservable=rp.reachable.complement(), **spaces)
