"""Reachable subspaces, their structured bounds, and structured pole placement.

For each node j the downstream model at j yields a reachable set; intersecting
or projecting it against single coordinate blocks produces three structured
approximations of the global reachable space:

* ``independent``  - block sums of states reachable without disturbing
  the other downstream blocks (independently controllable <=> equals X),
* ``floor``        - the largest structured subspace inside the reachable set,
* ``ceiling``      - the smallest structured subspace containing it.

``profile`` builds the pair spaces, ``independent`` and ``ceiling`` by
``_cuts``, the one cut-and-fold construction that the observability profile
runs on up-sets with intersections; ``floor`` is the reachable set's own cut.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from . import _linalg as la
from .blockmat import BlockMatrix, is_incident
from .errors import (
    NotWeaklyLocallyControllable,
    ShapeMismatch,
    SingularMatrix,
    StructureViolation,
)
from .poset import Poset
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
    Multivariable Control*); the span chain of ``_linalg.invariant_span``
    grows it on integers, with no power of A, from the system's integer form,
    read whole: the global model is the system.
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
    """What both profiles share: aggregates, global placement, and one cut-and-fold construction.

    Both profiles build their pair and per-block spaces by ``_cuts``: the
    reachability side from the downstream sets, on down-sets, folded by sums;
    the observability side from the upstream sets, on up-sets, folded by
    intersections, as the paper's duality pairs them under the reversed
    order. The aggregates are the direct sums of the ``node_*`` spaces, and
    ``embedded`` places any per-node, per-pair or per-model field globally.
    """

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
                return sys.poset.cones[0 if name == "downstream" else 1][key - 1]
            return (key,)

        return {key: space.embed(sys.n, nodes(key)) for key, space in getattr(self, name).items()}


def _cuts(sys: PosetCausalSystem, sets: dict, cone: str, fold) -> tuple:
    """Cut every node's set at each block of its cone, and fold the cuts block by block.

    ``sets[k]`` lives in the coordinates of node k's ``cone``, its down-set
    ("down") or up-set ("up") as ``Poset.cones`` lists it. It is cut at each
    block b of that cone by ``section`` and ``project``. A pair is keyed with
    the lower node first: (b, k) on the down side, (k, b) on the up side. For
    each block b, ``fold`` then combines the cuts at b over the nodes whose
    cone holds b, which form b's other cone, in sorted order.

    Returns (sections, projections, folded sections, folded projections).
    """
    nodes = sys.poset.nodes
    own, other = sys.poset.cones[:: 1 if cone == "down" else -1]

    def key(b, k):
        return (b, k) if cone == "down" else (k, b)

    sections, projections = {}, {}
    for k, blocks in zip(nodes, own):
        part = sys.n.restrict(blocks)
        for b in blocks:
            sections[key(b, k)] = sets[k].section(part, (b,))
            projections[key(b, k)] = sets[k].project(part, (b,))

    def folded(cuts):
        return {b: fold(*(cuts[key(b, k)] for k in holders)) for b, holders in zip(nodes, other)}

    return sections, projections, folded(sections), folded(projections)


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
    n = sys.n
    reach = reachable(sys)
    down = {j: downstream_reachable(sys, j) for j in sys.poset.nodes}
    exclusive, projected, node_independent, node_ceiling = _cuts(sys, down, "down", Subspace.sum)
    node_floor = {j: reach.section(n, (j,)) for j in sys.poset.nodes}
    for j in sys.poset.nodes:
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


def _locally_controllable(sys: PosetCausalSystem, j: int) -> bool:
    """Whether the local pair (A_jj, B_jj) is controllable: the rank of its integer Krylov matrix."""
    a, b, _ = model_integers(sys, "local", j)  # multiples of the local A and of its B's columns
    return la.rank(ctrb_matrix(a, b)) == sys.n.size(j)


def weakly_locally_controllable(sys: PosetCausalSystem):
    """(flag, per-node detail): every local pair must be controllable."""
    detail = {j: _locally_controllable(sys, j) for j in sys.poset.nodes}
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

    ``a`` is cleared once, to Ia / d, so every diagonal block of Ia shares the
    denominator d. The block polynomials of Ia are multiplied on Python ints
    and the product is verified exactly against the characteristic
    polynomial of the whole of Ia; only then are the blocks and the product
    formed as Fractions, the polynomials of ``a``'s blocks and of ``a``.
    """
    if a.row_partition != a.col_partition:
        raise ShapeMismatch("characteristic polynomial needs a square block matrix")
    if not is_incident(a, poset):
        raise StructureViolation("matrix does not respect the poset pattern")
    ints, d = la.cleared(a.entries)
    blocks = {}
    product = [1]
    for j in poset.nodes:
        rows = a.row_partition.block_range(j)
        blocks[j] = la.integer_char_poly(ints[rows.start : rows.stop, rows.start : rows.stop])
        product = la.poly_mul(product, blocks[j])
    if product != la.integer_char_poly(ints):
        raise StructureViolation("block factorization disagrees with the full matrix (internal bug)")
    return CharPolyFactorization(
        blocks={j: la.poly_over(coeffs, d) for j, coeffs in blocks.items()},
        product=la.poly_over(product, d),
    )


def _ackermann(a: np.ndarray, b: np.ndarray, target: list) -> np.ndarray:
    """Single-input feedback row f with char(A + b f) = target, of degree n (b is n x 1).

    f = -q target(A) with q = e_n^T K^-1 and K = [b, Ab, ..., A^(n-1) b]; q is
    one solve with K^T, which raises SingularMatrix if (A, b) is not
    controllable. With q = Qi / e, A = Ia / d and target = C_j / D, that is
    -sum_j C_j d^(n-j) Qi Ia^j over e D d^n: Horner's rule on integers.
    """
    n = a.shape[0]
    q_ints, e = la.cleared(la.solve(ctrb_matrix(a, b).T, la.eye(n)[:, n - 1 :]).T)
    a_ints, d = la.cleared(a)
    c_ints, den = la.cleared(np.array([target], dtype=object))
    acc = c_ints[0, n] * q_ints
    for j in range(n - 1, -1, -1):
        acc = acc.dot(a_ints) + c_ints[0, j] * d ** (n - j) * q_ints
    return la.exact_over(-acc, [e * den * d**n], [1] * n)


def _check_target(target, size: int):
    target = [la.exact_entry(c) for c in target]
    if len(target) != size + 1 or target[-1] != 1:
        raise ShapeMismatch(f"target must be a monic polynomial of degree {size}")
    return target


def pole_place(sys: PosetCausalSystem, targets, seed: int = 0) -> BlockMatrix:
    """Block-diagonal feedback giving each local closed loop a prescribed polynomial.

    ``targets`` maps node -> monic coefficient list (low degree first, length
    n_j + 1), or lists them in node order; it must cover exactly the nodes,
    and every target is checked before any pair is decided. Each local pair
    is decided once, in node order, where its block is placed: a single-input
    pair by ``_ackermann``'s solve, any other by ``_locally_controllable``;
    the first that is not controllable raises NotWeaklyLocallyControllable.
    Multi-input blocks are reduced to a single input through a randomized
    preliminary feedback, then placed by the companion-matrix formula; the
    per-block and global characteristic polynomials are verified exactly
    before returning.
    """
    if not isinstance(targets, dict):
        targets = dict(enumerate(targets, start=1))
    if set(targets) != set(sys.poset.nodes):
        raise ShapeMismatch(f"targets must cover exactly the nodes 1..{sys.poset.p}")
    targets = {j: _check_target(targets[j], sys.n.size(j)) for j in sys.poset.nodes}
    rng = random.Random(seed)
    f = la.zeros(sys.m.total, sys.n.total)
    for j in sys.poset.nodes:
        if sys.m.size(j) != 1 and not _locally_controllable(sys, j):
            raise NotWeaklyLocallyControllable(j)
        try:  # a single-input pair is decided by the one solve with its Krylov matrix
            block = _place_block(sys.A.block(j, j), sys.B.block(j, j), targets[j], rng)
        except SingularMatrix:
            raise NotWeaklyLocallyControllable(j) from None
        rows = sys.m.block_range(j)
        cols = sys.n.block_range(j)
        f[rows.start : rows.stop, cols.start : cols.stop] = block
    feedback = BlockMatrix(f, sys.m, sys.n)
    closed = sys.A.entries + la.mdot(sys.B.entries, feedback.entries)
    if la.char_poly(closed) != reduce(la.poly_mul, targets.values(), [1]):
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
        for _ in range(200):
            pre = la.fmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            mix = la.fmat([[rng.randint(-3, 3)] for _ in range(m)])
            try:  # a candidate whose single input does not control the shifted block is refused
                row = _ackermann(a + la.mdot(b, pre), la.mdot(b, mix), target)
            except SingularMatrix:
                continue
            block = pre + la.mdot(mix, row)
            break
        else:
            raise StructureViolation("single-input reduction failed to converge (internal bug)")
    if la.char_poly(a + la.mdot(b, block)) != target:
        raise StructureViolation("local placement verification failed (internal bug)")
    return block
