"""Reachable subspaces, their structured bounds, and structured pole placement.

For each node j the downstream model at j yields a reachable set; intersecting
or projecting it against single coordinate blocks produces three structured
approximations of the global reachable space:

* ``independent``  - block sums of states reachable without disturbing
  the other downstream blocks (independently controllable <=> equals X),
* ``floor``        - the largest structured subspace inside the reachable set,
* ``ceiling``      - the smallest structured subspace containing it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _linalg as la
from .blockmat import BlockMatrix
from .errors import (
    NotWeaklyLocallyControllable,
    ShapeMismatch,
    StructureViolation,
)
from .poset import Poset, derived_set
from .subspace import Subspace, direct_sum, image
from .system import PosetCausalSystem, model_integers

__all__ = [
    "ReachabilityProfile",
    "ctrb_matrix",
    "reachable",
    "downstream_reachable",
    "profile",
    "weakly_locally_controllable",
    "CharPolyFactorization",
    "char_poly_factored",
    "pole_place",
]


def ctrb_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[B, AB, ..., A^(n-1) B] with n the state dimension."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeMismatch("state matrix must be square")
    if b.shape[0] != n:
        raise ShapeMismatch("input matrix has wrong row count")
    if n == 0:
        return la.zeros(0, 0)
    return la.krylov(a, b, n)


def reachable(sys: PosetCausalSystem) -> Subspace:
    """Reachable set of the global model: the smallest A-invariant subspace containing im B.

    That is the column space of the controllability matrix (Wonham, *Linear
    Multivariable Control*); it is saturated on integers, with no power of A,
    from the system's integer form, read whole: the global model is the system.
    """
    ia, ib, _ = sys._integer_form[0]
    return Subspace._canonical(sys.state_dim, la.invariant_span(ia, ib))


def downstream_reachable(sys: PosetCausalSystem, i: int) -> Subspace:
    """Reachable set of the downstream model at node i, in the coordinates of its down-set.

    It is the image of the Krylov matrix of the model's integer slices
    (``system.model_integers``): Ia over the down-set is a multiple of the
    model's A, and the inputs of node i act only there, so no model is built.
    """
    a, b, _ = model_integers(sys, "downstream", i)
    return image(ctrb_matrix(a, b))


class BlockProfile:
    """Both profiles' aggregates (direct sums of the ``node_*`` spaces) and global placement."""

    def __post_init__(self):
        for name in ("independent", "floor", "ceiling"):
            spaces = getattr(self, f"node_{name}")
            object.__setattr__(self, name, direct_sum(*(spaces[j] for j in sorted(spaces))))
        for name, value in self._derived():
            object.__setattr__(self, name, value)

    def embedded(self, sys: PosetCausalSystem, name: str) -> dict:
        """Field ``name`` (per node, pair or model) of this profile of ``sys``, placed globally."""

        def nodes(key):  # a pair's block, the down- or up-set of a model, a node's own block
            if isinstance(key, tuple):
                return (key[self._PAIR_BLOCK],)
            if name in ("downstream", "upstream"):
                return derived_set(sys.poset, {key}, name.removesuffix("stream"))
            return (key,)

        return {key: space.embed(sys.n, nodes(key)) for key, space in getattr(self, name).items()}


@dataclass(frozen=True)
class ReachabilityProfile(BlockProfile):
    """All reachability subspaces of one system, each in the coordinates of its blocks.

    ``downstream[j]`` lives in the down-set of j; ``exclusive[(i, j)]`` and
    ``projected[(i, j)]`` refine it against block i and live there
    (``embedded`` places them globally). ``local_hull``, not comparable with
    the reachable set, and the aggregates are global and derived here with
    the flags, so they always match the per-node parts.
    """

    _PAIR_BLOCK = 0

    reachable: Subspace
    downstream: dict
    exclusive: dict
    projected: dict
    node_independent: dict
    node_floor: dict
    node_ceiling: dict
    independent: Subspace = field(init=False)
    floor: Subspace = field(init=False)
    ceiling: Subspace = field(init=False)
    local_hull: Subspace = field(init=False)
    controllable: bool = field(init=False)
    independently_controllable: bool = field(init=False)
    weakly_upstream_controllable: bool = field(init=False)
    weakly_locally_controllable: bool = field(init=False)

    def _derived(self):
        total = self.reachable.ambient
        yield "local_hull", direct_sum(*(self.projected[(j, j)] for j in sorted(self.node_floor)))
        yield "controllable", self.reachable.dim == total
        yield "independently_controllable", self.independent.dim == total
        yield "weakly_upstream_controllable", self.ceiling.dim == total
        # each projected[(j, j)] is block j of the hull, so the hull is full iff every one is
        yield "weakly_locally_controllable", self.local_hull.dim == total


def profile(sys: PosetCausalSystem) -> ReachabilityProfile:
    """Compute every reachability subspace and classification flag at once."""
    poset = sys.poset
    n = sys.n
    reach = reachable(sys)
    down = {j: downstream_reachable(sys, j) for j in poset.nodes}

    exclusive = {}
    projected = {}
    for j in poset.nodes:
        below = derived_set(poset, {j}, "down")
        part = n.restrict(below)
        for i in sorted(below):
            exclusive[(i, j)] = down[j].section(part, (i,))
            projected[(i, j)] = down[j].project(part, (i,))

    node_independent = {}
    node_ceiling = {}
    node_floor = {}
    for j in poset.nodes:
        ups = sorted(derived_set(poset, {j}, "up"))
        node_independent[j] = Subspace.sum(*(exclusive[(j, i)] for i in ups))
        node_ceiling[j] = Subspace.sum(*(projected[(j, i)] for i in ups))
        node_floor[j] = reach.section(n, (j,))
        if not node_ceiling[j].equals(reach.project(n, (j,))):
            raise StructureViolation(
                f"ceiling at node {j} disagrees with the projected reachable set (internal bug)"
            )

    prof = ReachabilityProfile(
        reachable=reach,
        downstream=down,
        exclusive=exclusive,
        projected=projected,
        node_independent=node_independent,
        node_floor=node_floor,
        node_ceiling=node_ceiling,
    )
    if not Subspace.sum(*prof.embedded(sys, "downstream").values()).equals(reach):
        raise StructureViolation(
            "reachable set is not the sum of the downstream reachable sets (internal bug)"
        )
    return prof


def weakly_locally_controllable(sys: PosetCausalSystem):
    """(flag, per-node detail): every local pair must be controllable."""
    detail = {}
    for i in sys.poset.nodes:
        a, b, _ = model_integers(sys, "local", i)  # multiples of the local A and of its B's columns
        detail[i] = la.rank(ctrb_matrix(a, b)) == sys.n.size(i)
    return all(detail.values()), detail


@dataclass(frozen=True)
class CharPolyFactorization:
    """Characteristic polynomial of a pattern-respecting matrix, block by block."""

    blocks: dict
    product: list

    def eval_at(self, x) -> Fraction:
        return la.poly_eval(self.product, la.exact_entry(x))


def char_poly_factored(a: BlockMatrix, poset: Poset) -> CharPolyFactorization:
    """Per-block characteristic polynomials whose product is the full one.

    The product is verified exactly against the characteristic polynomial of
    the whole matrix.
    """
    from .blockmat import is_incident

    if a.row_partition != a.col_partition:
        raise ShapeMismatch("characteristic polynomial needs a square block matrix")
    if not is_incident(a, poset):
        raise StructureViolation("matrix does not respect the poset pattern")
    blocks = {j: la.char_poly(a.block(j, j)) for j in poset.nodes}
    product = [Fraction(1)]
    for j in poset.nodes:
        product = la.poly_mul(product, blocks[j])
    if product != la.char_poly(a.entries):
        raise StructureViolation("block factorization disagrees with the full matrix (internal bug)")
    return CharPolyFactorization(blocks=blocks, product=product)


def _ackermann(a: np.ndarray, b: np.ndarray, target: list) -> np.ndarray:
    """Single-input feedback row f with char(A + b f) = target (b is n x 1)."""
    n = a.shape[0]
    ctrb = ctrb_matrix(a, b)
    inv = la.inverse(ctrb)
    last = inv[n - 1 : n, :]
    poly_a = la.poly_eval_matrix(target, a)
    return -la.mdot(last, poly_a)


def _check_target(target, size: int):
    target = [la.exact_entry(c) for c in target]
    if len(target) != size + 1 or target[-1] != 1:
        raise ShapeMismatch(f"target must be a monic polynomial of degree {size}")
    return target


def pole_place(sys: PosetCausalSystem, targets, seed: int = 0) -> BlockMatrix:
    """Block-diagonal feedback giving each local closed loop a prescribed polynomial.

    ``targets`` maps node -> monic coefficient list (low degree first, length
    n_j + 1), or lists them in node order; it must cover exactly the nodes.
    Multi-input blocks are reduced to a single input through a randomized
    preliminary feedback, then placed by the companion-matrix formula; the
    per-block and global characteristic polynomials are verified exactly
    before returning.
    """
    if not isinstance(targets, dict):
        targets = dict(enumerate(targets, start=1))
    if set(targets) != set(sys.poset.nodes):
        raise ShapeMismatch(f"targets must cover exactly the nodes 1..{sys.poset.p}")
    ok, detail = weakly_locally_controllable(sys)
    if not ok:
        witness = min(j for j, good in detail.items() if not good)
        raise NotWeaklyLocallyControllable(witness)
    rng = random.Random(seed)
    f = la.zeros(sys.m.total, sys.n.total)
    wanted = [Fraction(1)]
    for j in sys.poset.nodes:
        nj = sys.n.size(j)
        target = _check_target(targets[j], nj)
        wanted = la.poly_mul(wanted, target)
        block = _place_block(sys.A.block(j, j), sys.B.block(j, j), target, rng)
        rows = sys.m.block_range(j)
        cols = sys.n.block_range(j)
        f[rows.start : rows.stop, cols.start : cols.stop] = block
    feedback = BlockMatrix(f, sys.m, sys.n)
    closed = sys.A.entries + la.mdot(sys.B.entries, feedback.entries)
    if la.char_poly(closed) != wanted:
        raise StructureViolation("feedback verification failed (internal bug)")
    return feedback


def _place_block(a: np.ndarray, b: np.ndarray, target: list, rng: random.Random) -> np.ndarray:
    n = a.shape[0]
    m = b.shape[1]
    if n == 0:
        return la.zeros(m, 0)
    if m == 1:
        block = _ackermann(a, b, target)
    else:
        block = None
        for _ in range(200):
            pre = la.fmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            mix = la.fmat([[rng.randint(-3, 3)] for _ in range(m)])
            shifted = a + la.mdot(b, pre)
            single = la.mdot(b, mix)
            if la.rank(ctrb_matrix(shifted, single)) != n:
                continue
            row = _ackermann(shifted, single, target)
            block = pre + la.mdot(mix, row)
            break
        if block is None:
            raise StructureViolation("single-input reduction failed to converge (internal bug)")
    if la.char_poly(a + la.mdot(b, block)) != target:
        raise StructureViolation("local placement verification failed (internal bug)")
    return block
