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
which is the strongest self-check this package has. Three independent
algorithms meet in these checks:

* the per-node upstream sets are certified kernels
  (``_linalg.certified_kernel``): rows of the observability matrix chosen
  modulo a prime, whose exact kernel is checked to be invariant inside ker C;
* the global unobservable set is a shrinking kernel chain inside ker C
  (``_linalg.invariant_kernel``), which ``profile`` checks against the
  intersection of the embedded upstream sets;
* the dual route takes every space as the complement of a span of the dual
  system: the Krylov span of each downstream model (``ctrb_matrix``) and the
  growing span chain from im C^T (``_linalg.invariant_span``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from . import _linalg as la
from .errors import StructureViolation
from .poset import derived_set
from .reachability import BlockProfile
from .reachability import profile as reach_profile
from .subspace import Subspace
from .system import PosetCausalSystem, dual_system, model_integers

__all__ = [
    "ObservabilityProfile",
    "unobservable",
    "upstream_indistinguishable",
    "DUAL_SPACES",
    "dual_key",
    "profile",
    "profile_via_duality",
]


def unobservable(sys: PosetCausalSystem) -> Subspace:
    """Unobservable set of the global model: the largest A-invariant subspace inside ker C.

    That is the kernel of the observability matrix (Wonham, *Linear
    Multivariable Control*); it is saturated on integers, with no power of A,
    from the system's integer form, read whole: the global model is the system.
    """
    ia, _, ic = sys._integer_form[0]
    return Subspace._span(sys.state_dim, la.invariant_kernel(ia, ic))


def upstream_indistinguishable(sys: PosetCausalSystem, i: int) -> Subspace:
    """States of the upstream model at i invisible in output i, in the coordinates of its up-set.

    That is the model's unobservable set N, the kernel of its observability
    matrix, computed by ``_linalg.certified_kernel``: the rows independent
    modulo a prime are kept, and W, their exact kernel, contains N. The
    exact check that C W = 0 and A W lies in W makes W an A-invariant
    subspace inside ker C, so W lies in N, and W = N (Wonham, *Linear
    Multivariable Control*). When the prime keeps as many rows as there are
    states, N = {0} with no exact elimination, since rows independent modulo
    a prime are independent over Q. No result depends on the prime.

    It runs on the model's integer slices (``system.model_integers``): Ia over
    the up-set is a multiple of the model's A, and output i reads only the
    up-set, so its rows of Ic are the model's C cleared; neither changes N.
    """
    a, _, c = model_integers(sys, "upstream", i)
    return Subspace._span(a.shape[0], la.certified_kernel(a, c))


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
    poset = sys.poset
    n = sys.n
    unobs = unobservable(sys)
    upstream = {i: upstream_indistinguishable(sys, i) for i in poset.nodes}

    confined = {}
    projected = {}
    seen = []
    for i in poset.nodes:
        above = derived_set(poset, {i}, "up")
        part = n.restrict(above)
        for j in sorted(above):
            confined[(i, j)] = upstream[i].section(part, (j,))
            projected[(i, j)] = upstream[i].project(part, (j,))
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
    rp = reach_profile(dual_system(sys))
    spaces = {
        name: {dual_key(key): space.complement() for key, space in getattr(rp, dual_name).items()}
        for name, dual_name in DUAL_SPACES.items()
    }
    return ObservabilityProfile(unobservable=rp.reachable.complement(), **spaces)
