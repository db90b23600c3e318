"""Finite partial orders on {1..p} and their derived structures.

The relation is stored closed (reflexive-transitive); ``j >= i`` in the order
means node j can influence node i, so influence flows from larger to smaller
elements. Edge lists are taken in the same orientation: an edge (j, i) asserts
j >= i, and the constructor closes the input automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    use (``cones``); equality and hashing read ``p`` and ``relation`` alone.
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

    Raises CycleError (with a witness cycle) if the closure relates two
    distinct nodes in both directions.
    """
    if p < 1:
        raise IndexOutOfRange("a poset needs at least one element")
    succ: dict[int, set[int]] = {i: {i} for i in range(1, p + 1)}
    edges = list(edges)
    for j, i in edges:
        if not (1 <= j <= p and 1 <= i <= p):
            raise IndexOutOfRange(f"edge ({j},{i}) outside 1..{p}")
        succ[j].add(i)
    changed = True
    while changed:
        changed = False
        for j in succ:
            reach = set(succ[j])
            for k in list(reach):
                reach |= succ[k]
            if reach != succ[j]:
                succ[j] = reach
                changed = True
    for j in range(1, p + 1):
        for i in succ[j]:
            if i != j and j in succ[i]:
                raise CycleError(_witness_cycle(j, i, edges))
    relation = frozenset((j, i) for j in succ for i in succ[j])
    return Poset(p=p, relation=relation)


def _witness_cycle(a: int, b: int, edges) -> list[int]:
    """A path a -> ... -> b -> ... -> a through the raw edges (BFS both legs)."""
    adj: dict[int, list[int]] = {}
    for j, i in edges:
        adj.setdefault(j, []).append(i)

    def path(src, dst):
        frontier = [[src]]
        seen = {src}
        while frontier:
            trail = frontier.pop(0)
            if trail[-1] == dst:
                return trail
            for nxt in adj.get(trail[-1], []):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(trail + [nxt])
        return [src, dst]

    first = path(a, b)
    second = path(b, a)
    return first + second[1:]


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
    """Reverse the order; downstream and upstream sets swap roles."""
    return Poset(p=poset.p, relation=frozenset((i, j) for (j, i) in poset.relation))


def hasse_edges(poset: Poset) -> frozenset:
    """Covering pairs (i, j) with i > j and nothing strictly between."""
    out = set()
    for i, j in poset.relation:
        if i == j:
            continue
        if any(poset.gt(i, k) and poset.gt(k, j) for k in poset.nodes):
            continue
        out.add((i, j))
    return frozenset(out)


def ultra_transitivity(poset: Poset) -> tuple[bool, bool]:
    """(is_in_ultra, is_out_ultra).

    In-ultra: two nodes above a common node are comparable (up-sets are chains);
    out-ultra is the mirror condition on down-sets.
    """
    rel = poset.relation

    def comparable(a, b):
        return (a, b) in rel or (b, a) in rel

    in_ultra = True
    out_ultra = True
    for i, j in rel:
        for k, l in rel:
            if l == j and not comparable(i, k):
                in_ultra = False
            if k == i and not comparable(j, l):
                out_ultra = False
        if not in_ultra and not out_ultra:
            break
    return in_ultra, out_ultra


def level_sets(poset: Poset) -> tuple[list[frozenset], list[frozenset]]:
    """Filtration by up-set size.

    Returns (L, R) with L[k-1] = {j : |up-set of j| <= k} for k = 1..p and
    R[k-1] = L[k] minus L[k-1], with R[p-1] empty.
    """
    upsizes = {j: len(derived_set(poset, {j}, "up")) for j in poset.nodes}
    levels = [frozenset(j for j in poset.nodes if upsizes[j] <= k) for k in range(1, poset.p + 1)]
    rings = [levels[k + 1] - levels[k] for k in range(poset.p - 1)] + [frozenset()]
    return levels, rings


def block_triangular_relabel(poset: Poset) -> dict[int, int]:
    """A linear extension as a relabeling map old -> new position.

    Repeatedly emits a node with no unplaced node strictly above it, smallest
    original label first; hence j >= i implies new(j) <= new(i), and permuting
    the blocks of any pattern-respecting matrix gives a block lower triangle.
    """
    remaining = set(poset.nodes)
    order: list[int] = []
    while remaining:
        ready = sorted(
            j for j in remaining if not any(poset.gt(k, j) for k in remaining if k != j)
        )
        order.append(ready[0])
        remaining.remove(ready[0])
    return {old: new for new, old in enumerate(order, start=1)}
