"""Finite partial orders on {1..p} and their derived structures.

The relation is stored closed (reflexive-transitive); ``j >= i`` in the order
means node j can influence node i, so influence flows from larger to smaller
elements. Edge lists are taken in the same orientation: an edge (j, i) asserts
j >= i, and the constructor closes the input automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .errors import CycleError, IndexOutOfRange

__all__ = [
    "Poset",
    "build_poset",
    "derived_set",
    "dual_poset",
    "hasse_edges",
    "ultra_transitivity",
    "level_sets",
    "block_triangular_relabel",
]


@dataclass(frozen=True)
class Poset:
    """A finite poset on {1..p}; ``relation`` holds all closed pairs (j, i) with j >= i.

    Each node's down-set and up-set are read off ``relation`` once, on first
    use (``cones``), and every node-set question of the package reads them
    there: derived sets, model nodes, covering edges, level sets and the
    relabeling. ``dual_poset`` hands its dual these cones swapped instead of
    deriving them again. Equality and hashing read ``p`` and ``relation`` alone.
    """

    p: int
    relation: frozenset = field(default_factory=frozenset)

    @cached_property
    def cones(self) -> tuple[tuple, tuple]:
        """(downs, ups): ``downs[i - 1]`` is the down-set of node i and ``ups[i - 1]`` its up-set.

        Each is a sorted tuple of nodes, node i among them. Every loaded
        system holds its own poset, so the cones stay small: a tuple of k
        nodes takes 40 + 8k bytes, a frozenset at least 216.
        ``cached_property`` writes the instance dictionary directly, past the
        frozen dataclass's ``__setattr__``.
        """
        down = [[] for _ in self.nodes]
        up = [[] for _ in self.nodes]
        for j, i in self.relation:
            down[j - 1].append(i)
            up[i - 1].append(j)
        return tuple(tuple(sorted(s)) for s in down), tuple(tuple(sorted(s)) for s in up)

    def geq(self, j: int, i: int) -> bool:
        return (j, i) in self.relation

    def gt(self, j: int, i: int) -> bool:
        return j != i and (j, i) in self.relation

    @property
    def nodes(self) -> range:
        return range(1, self.p + 1)

    def check_node(self, i: int) -> None:
        if not 1 <= i <= self.p:
            raise IndexOutOfRange(f"node {i} outside 1..{self.p}")

    def __repr__(self) -> str:  # hasse edges are the readable summary
        return f"Poset(p={self.p}, hasse={sorted(hasse_edges(self))})"


def build_poset(p: int, edges) -> Poset:
    """Close an edge list reflexively and transitively and verify anti-symmetry.

    Each node's set of nodes below it is closed by Warshall's loop: for each
    node k in turn, every set that holds k takes in k's set. Raises
    CycleError if the closure relates two distinct nodes in both directions;
    its witness is the shortest cycle of raw edges through the smallest node
    that lies on a cycle (``_witness_cycle``).
    """
    if p < 1:
        raise IndexOutOfRange("a poset needs at least one element")
    succ: dict[int, set[int]] = {i: {i} for i in range(1, p + 1)}
    edges = list(edges)
    for j, i in edges:
        if not (1 <= j <= p and 1 <= i <= p):
            raise IndexOutOfRange(f"edge ({j},{i}) outside 1..{p}")
        succ[j].add(i)
    for k, below in succ.items():
        for reach in succ.values():
            if k in reach:
                reach |= below
    for j in range(1, p + 1):
        for i in succ[j]:  # any order: the witness depends on j alone
            if i != j and j in succ[i]:
                raise CycleError(_witness_cycle(j, edges))
    relation = frozenset((j, i) for j in succ for i in succ[j])
    return Poset(p=p, relation=relation)


def _witness_cycle(a: int, edges) -> list[int]:
    """The shortest cycle a -> ... -> a through the raw edges, by one BFS from a.

    Each node's successors are taken in increasing order, so the cycle depends
    on the edge set alone. A self-loop at a is skipped. A shortest closed walk
    through a repeats no node, so the result is a cycle; a must lie on one.
    """
    adj: dict[int, list[int]] = {}
    for j, i in sorted({(j, i) for j, i in edges}):
        adj.setdefault(j, []).append(i)
    trails = [[a]]
    seen = {a}
    for trail in trails:  # the list grows as it is read: the BFS queue
        for nxt in adj.get(trail[-1], []):
            if nxt == a and len(trail) > 1:
                return trail + [a]
            if nxt not in seen:
                seen.add(nxt)
                trails.append(trail + [nxt])


_KINDS = ("down", "up", "strict_down", "strict_up")


def derived_set(poset: Poset, nodes, kind: str) -> frozenset:
    """Downstream/upstream set of ``nodes``; strict variants exclude ``nodes`` itself.

    It is the union of the members' cones (``Poset.cones``).
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    members = frozenset(nodes)
    for i in members:
        poset.check_node(i)
    cones = poset.cones[0 if kind in ("down", "strict_down") else 1]
    hit = frozenset().union(*(cones[i - 1] for i in members))
    if kind.startswith("strict"):
        hit -= members
    return hit


def dual_poset(poset: Poset) -> Poset:
    """Reverse the order; downstream and upstream sets swap roles.

    The dual's cones are the poset's, swapped: its down-sets are the poset's
    up-sets and its up-sets the down-sets, so nothing is derived again.
    """
    dual = Poset(p=poset.p, relation=frozenset((i, j) for (j, i) in poset.relation))
    vars(dual)["cones"] = poset.cones[::-1]  # what the cached_property would hold
    return dual


def hasse_edges(poset: Poset) -> frozenset:
    """Covering pairs (i, j) with i > j and nothing strictly between.

    Node i covers j when j lies in i's strict down-set but in the strict
    down-set of no other node of it (``Poset.cones``).
    """
    downs = poset.cones[0]
    out = set()
    for i, down in zip(poset.nodes, downs):
        between = {j for k in down if k != i for j in downs[k - 1] if j != k}
        out.update((i, j) for j in down if j != i and j not in between)
    return frozenset(out)


def ultra_transitivity(poset: Poset) -> tuple[bool, bool]:
    """(is_in_ultra, is_out_ultra).

    In-ultra: two nodes above a common node are comparable, so every up-set
    is a chain; out-ultra is the mirror condition, every down-set a chain.
    Each cone (``Poset.cones``) is tested pair by pair against the relation.
    """
    rel = poset.relation

    def chain(cone):
        return all((a, b) in rel or (b, a) in rel for a, b in combinations(cone, 2))

    downs, ups = poset.cones
    return all(map(chain, ups)), all(map(chain, downs))


def level_sets(poset: Poset) -> tuple[list[frozenset], list[frozenset]]:
    """Filtration by up-set size.

    Returns (L, R) with L[k-1] = {j : |up-set of j| <= k} for k = 1..p and
    R[k-1] = L[k] minus L[k-1], with R[p-1] empty.
    """
    ups = poset.cones[1]
    levels = [frozenset(j for j in poset.nodes if len(ups[j - 1]) <= k) for k in range(1, poset.p + 1)]
    rings = [levels[k + 1] - levels[k] for k in range(poset.p - 1)] + [frozenset()]
    return levels, rings


def block_triangular_relabel(poset: Poset) -> dict[int, int]:
    """A linear extension as a relabeling map old -> new position.

    Repeatedly emits a node with no unplaced node strictly above it, smallest
    original label first; hence j >= i implies new(j) <= new(i), and permuting
    the blocks of any pattern-respecting matrix gives a block lower triangle.
    """
    ups = poset.cones[1]
    remaining = set(poset.nodes)
    order: list[int] = []
    while remaining:
        # a node is ready when its up-set meets the unplaced nodes in itself alone
        order.append(min(j for j in remaining if remaining.intersection(ups[j - 1]) == {j}))
        remaining.remove(order[-1])
    return {old: new for new, old in enumerate(order, start=1)}
