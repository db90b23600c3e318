"""Seeded scaling ladder of random poset-causal systems.

The draws follow the ROADMAP ladder: one ``random.Random(seed)`` is called, in
order, as ``random_system(rng, random_poset(rng, p), max_block=mb,
allow_zero_blocks=False)`` for ``(p, mb)`` = (6, 4), (8, 5), (10, 6). At seed 1
that gives state dimensions 9, 22 and 37.

The state dimension decides the cost of exact elimination, so a ladder whose
dimensions moved with the seed would time different amounts of work on
different seeds. Every seed therefore uses the shapes (poset and partitions)
that seed 1 draws, and the seed draws the matrix entries. Each system still
makes its own shape draws from the stream and discards them, so seed 1
reproduces the ROADMAP ladder exactly.

The generator is kept here, not imported from the test suite, so that test
edits cannot change the workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from posetsys import _linalg as la
from posetsys.fileio import system_to_dict
from posetsys.poset import Poset, build_poset
from posetsys.system import PosetCausalSystem

REFERENCE_SEED = 1


@dataclass(frozen=True)
class Rung:
    name: str
    p: int
    max_block: int
    state_dim: int  # what the reference seed draws


RUNGS = (Rung("n9", 6, 4, 9), Rung("n22", 8, 5, 22), Rung("n37", 10, 6, 37))


def random_poset(rng: random.Random, p: int) -> Poset:
    """Close random downward edges among 1..p."""
    edges = []
    for j in range(1, p + 1):
        for i in range(j + 1, p + 1):
            if rng.random() < 0.4:
                edges.append((j, i))
    return build_poset(p, edges)


def structured_random_matrix(rng, poset, row_sizes, col_sizes, lo=-3, hi=3):
    """Random integer matrix supported on the blocks the poset allows."""
    m = la.zeros(sum(row_sizes), sum(col_sizes))
    roff = [sum(row_sizes[:k]) for k in range(len(row_sizes) + 1)]
    coff = [sum(col_sizes[:k]) for k in range(len(col_sizes) + 1)]
    for i in poset.nodes:
        for j in poset.nodes:
            if poset.geq(j, i):
                for r in range(roff[i - 1], roff[i]):
                    for c in range(coff[j - 1], coff[j]):
                        m[r, c] = la.F(rng.randint(lo, hi))
    return m


def draw_shape(rng: random.Random, rung: Rung):
    """Poset and n, m, r partitions, drawn as random_system draws them."""
    poset = random_poset(rng, rung.p)
    n = [rng.randint(1, rung.max_block) for _ in range(rung.p)]
    m = [rng.randint(1, 2) for _ in range(rung.p)]
    r = [rng.randint(1, 2) for _ in range(rung.p)]
    return poset, n, m, r


def draw_entries(rng: random.Random, shape) -> PosetCausalSystem:
    poset, n, m, r = shape
    return PosetCausalSystem(
        poset=poset,
        n=n,
        m=m,
        r=r,
        A=structured_random_matrix(rng, poset, n, n),
        B=structured_random_matrix(rng, poset, n, m),
        C=structured_random_matrix(rng, poset, r, n),
        D=structured_random_matrix(rng, poset, r, m),
    )


def reference_shapes() -> list:
    rng = random.Random(REFERENCE_SEED)
    shapes = []
    for rung in RUNGS:
        shape = draw_shape(rng, rung)
        draw_entries(rng, shape)
        shapes.append(shape)
    return shapes


def generate(seed: int, replicas: int = 1) -> dict:
    """{(rung name, replica): system}; replica 0 of every rung is drawn first."""
    shapes = reference_shapes()
    rng = random.Random(seed)
    out = {}
    for k in range(replicas):
        for rung, shape in zip(RUNGS, shapes):
            draw_shape(rng, rung)  # consumed, not used: see the module docstring
            out[(rung.name, k)] = draw_entries(rng, shape)
    return out


def system_json(system: PosetCausalSystem) -> str:
    return json.dumps(system_to_dict(system), indent=2) + "\n"
