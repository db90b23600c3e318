"""Shared generators and oracles for the test suite.

All randomness is seeded; rerunning the suite is deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from posetsys import _linalg as la
from posetsys import corpus
from posetsys.errors import IncompatibleShapes
from posetsys.poset import Poset, build_poset
from posetsys.reachability import ctrb_matrix
from posetsys.subspace import Subspace
from posetsys.system import PosetCausalSystem

NAMED_POSETS = {name: corpus._POSETS[name] for name in ("p1", "p2", "p3", "p4", "p5", "p6")}
named_poset = corpus.corpus_poset


def random_poset(rng: random.Random, p: int) -> Poset:
    """A random poset: close random downward edges among 1..p."""
    edges = []
    for j in range(1, p + 1):
        for i in range(j + 1, p + 1):
            if rng.random() < 0.4:
                edges.append((j, i))
    return build_poset(p, edges)


def dense_random_matrix(rng, rows, cols, lo=-3, hi=3):
    m = la.zeros(rows, cols)
    for r in range(rows):
        for c in range(cols):
            m[r, c] = la.F(rng.randint(lo, hi))
    return m


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


def random_system(rng, poset, max_block=3, lo=-3, hi=3, allow_zero_blocks=True):
    low = 0 if allow_zero_blocks else 1
    n = [rng.randint(low, max_block) for _ in range(poset.p)]
    if sum(n) == 0:
        n[rng.randrange(poset.p)] = 1
    m = [rng.randint(low, 2) for _ in range(poset.p)]
    r = [rng.randint(low, 2) for _ in range(poset.p)]
    return PosetCausalSystem(
        poset=poset,
        n=n,
        m=m,
        r=r,
        A=structured_random_matrix(rng, poset, n, n, lo, hi),
        B=structured_random_matrix(rng, poset, n, m, lo, hi),
        C=structured_random_matrix(rng, poset, r, n, lo, hi),
        D=structured_random_matrix(rng, poset, r, m, lo, hi),
    )


def random_locally_controllable_system(rng, poset, max_block=3):
    """Every local pair is controllable; couplings are random."""
    n = [rng.randint(1, max_block) for _ in range(poset.p)]
    m = [rng.randint(1, 2) for _ in range(poset.p)]
    r = [rng.randint(0, 2) for _ in range(poset.p)]
    a = structured_random_matrix(rng, poset, n, n)
    b = structured_random_matrix(rng, poset, n, m)
    noff = [sum(n[:k]) for k in range(len(n) + 1)]
    moff = [sum(m[:k]) for k in range(len(m) + 1)]
    for j in range(poset.p):
        rows = slice(noff[j], noff[j + 1])
        cols = slice(moff[j], moff[j + 1])
        while True:
            blk_a = la.fmat([[rng.randint(-3, 3) for _ in range(n[j])] for _ in range(n[j])])
            blk_b = la.fmat([[rng.randint(-3, 3) for _ in range(m[j])] for _ in range(n[j])])
            if la.rank(ctrb_matrix(blk_a, blk_b)) == n[j]:
                break
        a[rows, rows] = blk_a
        b[rows, cols] = blk_b
    return PosetCausalSystem(
        poset=poset,
        n=n,
        m=m,
        r=r,
        A=a,
        B=b,
        C=structured_random_matrix(rng, poset, r, n),
        D=structured_random_matrix(rng, poset, r, m),
    )


def obsv_matrix(c, a):
    """[C; CA; ...; C A^(n-1)]: the observability matrix, the test oracle of every unobservable set."""
    return ctrb_matrix(a.T, c.T).T


def coordinate_subspace(partition, nodes) -> Subspace:
    """The blocks in ``nodes`` as a subspace of the full ambient, spanned by unit vectors."""
    total = partition.total
    return Subspace(total, la.eye(total)[:, partition.indices(nodes)])


def det(m) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n, nc = m.shape
    if n != nc:
        raise IncompatibleShapes("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    a = m.copy()
    result = Fraction(1)
    for col in range(n):
        sel = None
        for i in range(col, n):
            if a[i, col] != 0:
                sel = i
                break
        if sel is None:
            return Fraction(0)
        if sel != col:
            a[[col, sel], :] = a[[sel, col], :]
            result = -result
        piv = a[col, col]
        result *= piv
        for i in range(col + 1, n):
            if a[i, col] != 0:
                factor = a[i, col] / piv
                a[i, col:] = [x - factor * y for x, y in zip(a[i, col:], a[col, col:])]
    return result


def char_poly_by_interpolation(m):
    """Independent oracle: evaluate det(xI - m) at n+1 points, then interpolate."""
    n = m.shape[0]
    points = [la.F(k) for k in range(n + 1)]
    values = []
    for x in points:
        shifted = -m.copy()
        for i in range(n):
            shifted[i, i] += x
        values.append(det(shifted))
    coeffs = [la.F(0)] * (n + 1)
    for i, xi in enumerate(points):
        basis = [la.F(1)]
        denom = la.F(1)
        for j, xj in enumerate(points):
            if i == j:
                continue
            basis = la.poly_mul(basis, [-xj, la.F(1)])
            denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += values[i] * c / denom
    return coeffs


def fraction_char_poly(m):
    """The Fraction Faddeev-LeVerrier recursion ``_linalg.char_poly`` ran before it moved to ints."""
    n, nc = m.shape
    if n != nc:
        raise IncompatibleShapes("characteristic polynomial of a non-square matrix")
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = la.eye(n)
    for k in range(1, n + 1):
        mk = la.mdot(m, mk)
        trace = sum((mk[i, i] for i in range(n)), Fraction(0))
        c = -trace / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i, i] += c
    return coeffs


def fraction_poly_eval_matrix(p, m):
    """The Fraction Horner loop ``_linalg.poly_eval_matrix`` ran before it moved to ints."""
    n = m.shape[0]
    acc = la.zeros(n, n)
    for c in reversed(p):
        acc = la.mdot(acc, m)
        for i in range(n):
            acc[i, i] += c
    return acc


def closure_oracle(p: int, edges) -> set:
    """Brute-force reflexive-transitive closure by repeated squaring of pairs."""
    rel = {(i, i) for i in range(1, p + 1)} | {tuple(e) for e in edges}
    while True:
        extra = {(a, d) for (a, b) in rel for (c, d) in rel if b == c} - rel
        if not extra:
            return rel
        rel |= extra


@pytest.fixture
def rng():
    return random.Random(20240817)
