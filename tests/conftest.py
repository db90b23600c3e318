"""Shared generators and oracles for the test suite.

All randomness is seeded; rerunning the suite is deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from posetsys import _linalg as la
from posetsys import corpus
from posetsys.errors import CycleError, IncompatibleShapes, IndexOutOfRange, SingularMatrix
from posetsys.poset import Poset, _witness_cycle, build_poset
from posetsys.reachability import ctrb_matrix
from posetsys.subspace import Subspace
from posetsys.system import PosetCausalSystem, model_nodes

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


def faddeev_leverrier_char_poly(a_ints):
    """The integer Faddeev-LeVerrier recursion ``_linalg.char_poly`` ran before its power traces.

    M_1 = I, M_(k+1) = Ia M_k + c_(n-k) I with c_(n-k) = -tr(Ia M_k) / k: the
    integer coefficients of det(lambda I - Ia), low degree first.
    """
    n = a_ints.shape[0]
    coeffs = [0] * n + [1]
    diagonal = np.arange(n)
    prod = a_ints.copy()  # Ia M_1
    for k in range(1, n + 1):
        c, rest = divmod(-prod.trace(), k)
        assert rest == 0, (k, prod.trace())
        coeffs[n - k] = c
        if k < n:
            prod[diagonal, diagonal] += c
            prod = a_ints.dot(prod)
    return coeffs


def fraction_poly_eval_matrix(p, m):
    """p(m) by Horner's rule on Fractions: one ``mdot`` per coefficient."""
    n = m.shape[0]
    acc = la.zeros(n, n)
    for c in reversed(p):
        acc = la.mdot(acc, m)
        for i in range(n):
            acc[i, i] += c
    return acc


def gauss_jordan_rref(m: np.ndarray):
    """The column-wise Gauss-Jordan ``_linalg.rref`` ran before it took rows one at a time.

    Gauss-Jordan on Python ints: every update ``(p/g) row - (f/g) pivot_row``
    is divided by its content, which changes rows only by nonzero scalars. At
    the end each pivot row is made primitive with a positive pivot. Divided by
    its pivot it is the pivot-1 reduced form, so R is unique for the row space
    as well. Rows past the pivots are zero.
    """
    nrows, ncols = m.shape
    rows = m.tolist()
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sel = next((i for i in range(row, nrows) if rows[i][col]), None)
        if sel is None:
            continue
        rows[row], rows[sel] = rows[sel], rows[row]
        prow = rows[row]
        piv = prow[col]
        for i, cur in enumerate(rows):
            factor = cur[col]
            if factor and i != row:
                g = gcd(piv, factor)
                p, f = piv // g, factor // g
                new = [p * x - f * y for x, y in zip(cur, prow)]
                content = gcd(*new)
                if content > 1:
                    new = [x // content for x in new]
                rows[i] = new
        pivots.append(col)
        row += 1
    for i, col in enumerate(pivots):
        content = gcd(*rows[i]) if rows[i][col] > 0 else -gcd(*rows[i])
        if content != 1:
            rows[i] = [x // content for x in rows[i]]
    return np.array(rows, dtype=object).reshape(nrows, ncols), pivots


# The lattice operations as every operand took them before zero and full
# operands were decided from their dimension: one elimination each.


def eliminated_sum(space, *others) -> Subspace:
    parts = [space.integer_basis] + [o.integer_basis for o in others]
    return Subspace._span(space.ambient, np.hstack(parts))


def eliminated_intersect(u, w) -> Subspace:
    null = la.kernel_basis(np.hstack([u.integer_basis, w.integer_basis]))
    return Subspace._span(u.ambient, u.integer_basis.dot(null[: u.dim, :]))


def eliminated_complement(space) -> Subspace:
    return Subspace._span(space.ambient, la.kernel_basis(space.integer_basis.T))


def eliminated_project(space, partition, nodes) -> Subspace:
    rows = partition.indices(nodes)
    return Subspace._span(len(rows), space.integer_basis[rows, :])


def eliminated_section(space, partition, nodes) -> Subspace:
    rows = partition.indices(nodes)
    cols = space.integer_basis
    coords = la.kernel_basis(np.delete(cols, rows, axis=0))
    return Subspace._span(len(rows), cols[rows, :].dot(coords))


def eliminated_invariant_span(a, b):
    """``_linalg.invariant_span`` saturated until an elimination shows the span stopped growing."""
    a_ints = la.cleared(a)[0]
    span = la.column_echelon(la.cleared_rows(b.T)[0].T)
    while True:
        grown = la.column_echelon(np.hstack([span, a_ints.dot(span)]))
        if grown.shape[1] == span.shape[1]:
            return span
        span = grown


# The Kalman projection and the compression as they ran on Fractions, before
# they solved their normal equations on the integer bases.


def fraction_project_onto(space, target) -> Subspace:
    """``Subspace.project_onto``: the Fraction normal equations of the pivot-1 bases, then their span."""
    if target.is_zero() or space.is_zero():
        return Subspace.zero(space.ambient)
    basis = target.basis
    coords = la.solve(la.mdot(basis.T, basis), la.mdot(basis.T, space.basis))
    return Subspace(space.ambient, la.mdot(basis, coords))


def fraction_compress(sys, subspace) -> tuple:
    """(A', B', C') of ``reduction._compress``: the five-``mdot`` Gram formula on the pivot-1 basis."""
    basis = subspace.basis
    lift = la.solve(la.mdot(basis.T, basis), basis.T)
    a = la.mdot(lift, la.mdot(sys.A.entries, basis))
    b = la.mdot(lift, sys.B.entries)
    c = la.mdot(sys.C.entries, basis)
    return a, b, c


# The Fraction-forming loops each routine ran on its own integer result before
# ``_linalg.exact_over`` formed every exact result in one place.


def looped_mdot(a, b) -> np.ndarray:
    """``_linalg.mdot``: Ia Ib^T over the row denominators of ``a`` and the column ones of ``b``."""
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return la.zeros(a.shape[0], b.shape[1])
    a_ints, a_dens = la.cleared_rows(a)
    b_ints, b_dens = la.cleared_rows(b.T)
    prod = a_ints.dot(b_ints.T)
    out = np.empty(prod.shape, dtype=object)
    for i, (row, da) in enumerate(zip(prod.tolist(), a_dens)):
        out[i, :] = [Fraction(x, da * db) if x else Fraction(0) for x, db in zip(row, b_dens)]
    return out


def looped_krylov(a, b, k) -> np.ndarray:
    """``_linalg.krylov`` of exact operands: block j of the integer powers over e d^j."""
    a_ints, d = la.cleared(a)
    cur, den = la.cleared(b)
    cols = b.shape[1]
    out = np.empty((b.shape[0], k * cols), dtype=object)
    for j in range(k):
        if j:
            cur, den = a_ints.dot(cur), den * d
        for i, row in enumerate(cur.tolist()):
            out[i, j * cols : (j + 1) * cols] = [Fraction(x, den) if x else Fraction(0) for x in row]
    return out


def looped_solve(m, rhs) -> np.ndarray:
    """``_linalg.solve``: each pivot row of the integer Gauss-Jordan result over its pivot."""
    n = m.shape[0]
    r, pivots = la.rref(la.cleared_rows(np.hstack([m, rhs]))[0])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    out = np.empty((n, rhs.shape[1]), dtype=object)
    for i, row in enumerate(r.tolist()):
        out[i, :] = [Fraction(x, row[i]) if x else Fraction(0) for x in row[n:]]
    return out


def looped_poly_eval_matrix(p, m) -> np.ndarray:
    """p(m) by Horner's rule on the cleared ``m`` and ``p``, each entry formed over D d^deg in a loop."""
    n = m.shape[0]
    if not p:
        return la.zeros(n, n)
    a_ints, d = la.cleared(m)
    den = lcm(*(c.denominator for c in p))
    deg = len(p) - 1
    acc = np.zeros((n, n), dtype=object)
    for j in range(deg, -1, -1):
        if j < deg:
            acc = a_ints.dot(acc)
        for i in range(n):
            acc[i, i] += p[j].numerator * (den // p[j].denominator) * d ** (deg - j)
    den *= d**deg
    out = np.empty((n, n), dtype=object)
    for i, row in enumerate(acc.tolist()):
        out[i, :] = [Fraction(x, den) if x else Fraction(0) for x in row]
    return out


def looped_basis(space) -> np.ndarray:
    """``Subspace.basis``: each canonical integer column over its pivot."""
    out = np.empty(space.integer_basis.shape, dtype=object)
    for k, col in enumerate(space.integer_basis.T.tolist()):
        pivot = next(x for x in col if x)
        out[:, k] = [Fraction(x, pivot) if x else Fraction(0) for x in col]
    return out


# The structure tables as they were read before ``Poset.cones``, ranges
# extended from ``Partition.starts`` and intp slices.


def scanned_derived_set(poset, nodes, kind: str) -> frozenset:
    """``poset.derived_set`` as a scan of every node against the relation."""
    kinds = ("down", "up", "strict_down", "strict_up")
    if kind not in kinds:
        raise ValueError(f"kind must be one of {kinds}")
    members = frozenset(nodes)
    for i in members:
        poset.check_node(i)
    if kind in ("down", "strict_down"):
        hit = frozenset(i for i in poset.nodes if any(poset.geq(j, i) for j in members))
    else:
        hit = frozenset(i for i in poset.nodes if any(poset.geq(i, j) for j in members))
    if kind.startswith("strict"):
        hit -= members
    return hit


def looped_ultra_transitivity(poset) -> tuple[bool, bool]:
    """``poset.ultra_transitivity`` as a double loop over the relation's pairs."""
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
    return in_ultra, out_ultra


def fixpoint_poset(p: int, edges) -> Poset:
    """``poset.build_poset`` closing each node's set below it by a fixpoint loop, not Warshall's."""
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
        for i in sorted(succ[j]):
            if i != j and j in succ[i]:
                raise CycleError(_witness_cycle(j, edges))
    return Poset(p=p, relation=frozenset((j, i) for j in succ for i in succ[j]))


def scanned_hasse_edges(poset) -> frozenset:
    """``poset.hasse_edges`` as a scan of every node between each related pair (``Poset.gt``)."""
    return frozenset(
        (i, j) for i, j in poset.relation
        if i != j and not any(poset.gt(i, k) and poset.gt(k, j) for k in poset.nodes)
    )


def scanned_block_triangular_relabel(poset) -> dict[int, int]:
    """``poset.block_triangular_relabel`` scanning the unplaced nodes pairwise (``Poset.gt``)."""
    remaining = set(poset.nodes)
    order: list[int] = []
    while remaining:
        ready = sorted(j for j in remaining if not any(poset.gt(k, j) for k in remaining if k != j))
        order.append(ready[0])
        remaining.remove(ready[0])
    return {old: new for new, old in enumerate(order, start=1)}


def listed_indices(partition, nodes) -> list:
    """``Partition.indices`` as one comprehension over ``block_range``."""
    return [k for j in sorted(set(nodes)) for k in partition.block_range(j)]


def ix_model_slices(sys, mats, kind: str, i=None) -> tuple:
    """``system.model_slices`` as ``np.ix_`` cuts at the ``Partition.indices`` lists of the model's nodes.

    ``mats`` is (A, B, C) or (A, B, C, D) of ``sys`` in any representation:
    exact entries, the integer form or doubles.
    """
    x, u, y = (part.indices(k) for part, k in zip((sys.n, sys.m, sys.r), model_nodes(sys.poset, kind, i)))
    a, b, c, *d = mats
    return (a[np.ix_(x, x)], b[np.ix_(x, u)], c[np.ix_(y, x)], *(m[np.ix_(y, u)] for m in d))


def inverted_ackermann(a: np.ndarray, b: np.ndarray, target: list) -> np.ndarray:
    """``reachability._ackermann`` reading the last row of the Krylov matrix's full inverse."""
    n = a.shape[0]
    inv = la.inverse(ctrb_matrix(a, b))
    return -la.mdot(inv[n - 1 : n, :], fraction_poly_eval_matrix(target, a))


def ranked_place_block(a: np.ndarray, b: np.ndarray, target: list, rng: random.Random):
    """``reachability._place_block`` testing each candidate by the rank of its Krylov matrix.

    Returns (block, refused): the feedback block and the number of candidates refused before it.
    """
    n = a.shape[0]
    m = b.shape[1]
    if n == 0:
        return la.zeros(m, 0), 0
    if m == 1:
        return inverted_ackermann(a, b, target), 0
    for refused in range(200):
        pre = la.fmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        mix = la.fmat([[rng.randint(-3, 3)] for _ in range(m)])
        shifted = a + la.mdot(b, pre)
        single = la.mdot(b, mix)
        if la.rank(ctrb_matrix(shifted, single)) == n:
            return pre + la.mdot(mix, inverted_ackermann(shifted, single, target)), refused
    raise AssertionError("no candidate controls the block")


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
