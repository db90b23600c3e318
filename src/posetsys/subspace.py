"""Exact subspaces of Q^n represented by canonical integer column bases.

The canonical form is the reduced column echelon form with each column scaled
to a primitive integer vector with a positive pivot (``_linalg.column_echelon``).
It is unique, so two Subspace objects are equal iff their ``integer_basis``
arrays are identical. Every lattice operation, projection and section
eliminates on these integers and forms no Fraction; ``embed`` and
``direct_sum`` place canonical bases without eliminating at all.

The canonical basis of {0} has no columns and that of the full space is the
identity, so a zero or full operand decides these results from its dimension
alone, with no elimination:

* ``sum`` drops zero operands, is full if one operand is full, and returns
  the operand that is left if only one is;
* ``intersect`` is {0} if one operand is {0}, and the other operand if one
  is full;
* ``complement`` swaps {0} and the full space;
* ``section`` and ``project`` of {0} are {0}, and of the full space the full
  space of the chosen coordinates.

Each is a lattice identity, and canonical bases are unique, so each result
equals, by ``==``, the one the elimination gives. Every other operand is
eliminated.

Fractions appear only at the boundary, and ``_linalg`` crosses it both ways:
``Subspace(ambient, basis)`` takes any exact matrix and clears each column
of its denominators (``_linalg.cleared_rows`` of the transpose; an integer
matrix, such as a Krylov matrix of integer slices, is taken as it is), and
``basis`` is each integer column over its pivot (``_linalg.exact_over``),
formed on first use. ``basis`` is output only: ``vectors()``,
``reduction.Compression.basis`` and ``ReducedSystem.block_basis`` read it,
and no computation does. ``apply`` and ``contains_vector`` clear their exact
operand to one common denominator (``_linalg.cleared``) and work on
``integer_basis``; ``project_onto`` and the reductions solve their normal
equations on the integer bases (``_linalg.normal_equations``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from . import _linalg as la
from .blockmat import Partition
from .errors import AmbientMismatch, IncompatibleShapes

__all__ = ["Subspace", "image", "kernel", "direct_sum"]


class Subspace:
    """A linear subspace of Q^ambient with a canonical integer basis."""

    def __init__(self, ambient: int, basis: np.ndarray):
        """Span of the columns of an exact matrix (array or rows) or of an integer matrix."""
        if not isinstance(basis, np.ndarray):
            basis = la.exact_matrix(basis)
        # a column times its common denominator spans the same line
        basis = la.cleared_rows(basis.T)[0].T
        if basis.shape[0] != ambient:
            raise AmbientMismatch(f"basis rows {basis.shape[0]} != ambient {ambient}")
        self._hold(ambient, la.column_echelon(basis))

    def _hold(self, ambient: int, integer_basis: np.ndarray) -> None:
        integer_basis.flags.writeable = False
        self.ambient = int(ambient)
        self.integer_basis = integer_basis

    @classmethod
    def _canonical(cls, ambient: int, integer_basis: np.ndarray) -> "Subspace":
        """The subspace whose canonical integer basis is ``integer_basis`` (not checked)."""
        space = cls.__new__(cls)
        space._hold(ambient, integer_basis)
        return space

    @classmethod
    def _span(cls, ambient: int, columns: np.ndarray) -> "Subspace":
        """Span of the columns of an integer matrix."""
        return cls._canonical(ambient, la.column_echelon(columns))

    @cached_property
    def pivots(self) -> tuple:
        """The first nonzero entry of each canonical integer column, in column order."""
        return tuple(next(x for x in col if x) for col in self.integer_basis.T.tolist())

    @cached_property
    def basis(self) -> np.ndarray:
        """The canonical basis with pivots 1, in Fractions: each integer column over its pivot."""
        out = la.exact_over(self.integer_basis, [1] * self.ambient, self.pivots)
        out.flags.writeable = False
        return out

    # construction -----------------------------------------------------

    @classmethod
    def from_columns(cls, ambient: int, columns) -> "Subspace":
        """Span of the given vectors (iterable of length-``ambient`` sequences)."""
        cols = [la.fvec(c) for c in columns]
        if not cols:
            return cls.zero(ambient)
        if any(c.shape[0] != ambient for c in cols):
            raise AmbientMismatch(f"column lengths {[c.shape[0] for c in cols]} != ambient {ambient}")
        return cls(ambient, np.hstack(cols))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls._canonical(ambient, np.zeros((ambient, 0), dtype=object))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls._canonical(ambient, np.identity(ambient, dtype=object))

    # basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.integer_basis.shape[1]

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def _require_same_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"ambients differ: {self.ambient} vs {other.ambient}")

    def equals(self, other: "Subspace") -> bool:
        self._require_same_ambient(other)
        return self.integer_basis.shape == other.integer_basis.shape and all(
            x == y for x, y in zip(self.integer_basis.flat, other.integer_basis.flat)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.ambient == other.ambient and self.equals(other)

    def __hash__(self):
        return hash((self.ambient, tuple(self.integer_basis.flat)))

    def contains(self, other: "Subspace") -> bool:
        self._require_same_ambient(other)
        return self.sum(other).dim == self.dim

    def contains_vector(self, vec) -> bool:
        v = la.fvec(vec)
        if v.size != self.ambient:
            raise AmbientMismatch(f"vector has {v.size} entries, ambient is {self.ambient}")
        return la.rank(np.hstack([self.integer_basis, la.cleared(v)[0]])) == self.dim

    # lattice operations -----------------------------------------------

    def sum(self, *others: "Subspace") -> "Subspace":
        """Span of this subspace and all ``others``, by at most one canonical elimination.

        Zero operands are dropped; a single operand left, or a full one,
        decides the span without elimination.
        """
        for other in others:
            self._require_same_ambient(other)
        parts = [space for space in (self, *others) if not space.is_zero()]
        if not parts:
            return self
        if len(parts) == 1:
            return parts[0]
        if any(space.is_full() for space in parts):
            return Subspace.full(self.ambient)
        return Subspace._span(self.ambient, np.hstack([space.integer_basis for space in parts]))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._require_same_ambient(other)
        if self.is_zero() or other.is_full():
            return self
        if other.is_zero() or self.is_full():
            return other
        # U a + W b = 0 puts U a in U cap W, so no sign flip of W is needed
        null = la.kernel_basis(np.hstack([self.integer_basis, other.integer_basis]))
        return Subspace._span(self.ambient, self.integer_basis.dot(null[: self.dim, :]))

    def complement(self) -> "Subspace":
        """Orthogonal complement in the standard inner product; {0} and the full space swap."""
        if self.is_zero():
            return Subspace.full(self.ambient)
        if self.is_full():
            return Subspace.zero(self.ambient)
        return Subspace._span(self.ambient, la.kernel_basis(self.integer_basis.T))

    def ominus(self, other: "Subspace") -> "Subspace":
        """self intersected with the orthogonal complement of ``other``."""
        return self.intersect(other.complement())

    # maps and projections ----------------------------------------------

    def apply(self, matrix: np.ndarray) -> "Subspace":
        """Image of this subspace under an exact linear map (rows = new ambient), in integers.

        The map over one common denominator (``_linalg.cleared``) spans the
        same image, so it is the span of Im times the integer basis. A map
        whose width is not ``ambient`` raises ``IncompatibleShapes``; a float
        or bool entry raises ``exact_entry``'s TypeError.
        """
        if matrix.shape[1] != self.ambient:
            raise IncompatibleShapes(f"cannot multiply {matrix.shape} by {(self.ambient, self.dim)}")
        return Subspace._span(matrix.shape[0], la.cleared(matrix)[0].dot(self.integer_basis))

    def project_onto(self, target: "Subspace") -> "Subspace":
        """Orthogonal projection of this subspace onto ``target``, on the integer bases.

        With T and S the canonical integer bases, the projection of S is
        T G^-1 T^T S for the Gram matrix G = T^T T. That matrix does not
        depend on how T's columns are scaled (T D, for a diagonal D, gives
        T D D^-1 G^-1 D^-1 D T^T), and scaling S's columns does not change
        the span, so the pivot-1 bases would give the same subspace. One
        ``rref`` of [G, T^T S] (``_linalg.normal_equations``) gives row i of
        G^-1 T^T S as row i of X over its pivot piv_i; with L the lcm of the
        pivots, T diag(L / piv_i) X is L times the projection, in integers.
        """
        self._require_same_ambient(target)
        if target.is_zero() or self.is_zero():
            return Subspace.zero(self.ambient)
        pivots, rows = la.normal_equations(target.integer_basis, self.integer_basis)
        scale = lcm(*pivots)
        coords = rows * np.array([[scale // piv] for piv in pivots], dtype=object)
        return Subspace._span(self.ambient, target.integer_basis.dot(coords))

    def _rows(self, partition: Partition, nodes) -> list:
        if partition.total != self.ambient:
            raise AmbientMismatch(f"partition total {partition.total} != ambient {self.ambient}")
        return partition.indices(nodes)

    def _trivial_on(self, rows: list) -> "Subspace":
        """{0} or the full space of ``rows``, as this one: its section and projection there."""
        return Subspace.zero(len(rows)) if self.is_zero() else Subspace.full(len(rows))

    def project(self, partition: Partition, nodes) -> "Subspace":
        """Projection onto the coordinate blocks in ``nodes``, in their coordinates."""
        rows = self._rows(partition, nodes)
        if self.is_zero() or self.is_full():
            return self._trivial_on(rows)
        return Subspace._span(len(rows), self.integer_basis[rows, :])

    def section(self, partition: Partition, nodes) -> "Subspace":
        """Intersection with the coordinate blocks in ``nodes``, in their coordinates."""
        rows = self._rows(partition, nodes)
        if self.is_zero() or self.is_full():
            return self._trivial_on(rows)
        cols = self.integer_basis
        coords = la.kernel_basis(np.delete(cols, rows, axis=0))  # vanishing off ``nodes``
        return Subspace._span(len(rows), cols[rows, :].dot(coords))

    def embed(self, partition: Partition, nodes) -> "Subspace":
        """This subspace of the coordinates of ``nodes``, placed in the full ambient.

        The basis rows go to the coordinates ``partition.indices(nodes)``; every
        other row is zero. Those coordinates increase, so each column stays
        primitive with its pivot first and the placed basis is already canonical.
        """
        rows = partition.indices(nodes)
        if len(rows) != self.ambient:
            raise AmbientMismatch(f"nodes have {len(rows)} coordinates, ambient is {self.ambient}")
        placed = np.zeros((partition.total, self.dim), dtype=object)
        placed[rows, :] = self.integer_basis
        return Subspace._canonical(partition.total, placed)

    # serialization ------------------------------------------------------

    def vectors(self) -> list[list[Fraction]]:
        """Canonical basis as a list of column vectors."""
        return self.basis.T.tolist()

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def image(matrix: np.ndarray) -> Subspace:
    """Exact column space."""
    return Subspace(matrix.shape[0], matrix)


def kernel(matrix: np.ndarray) -> Subspace:
    """Exact null space; a row times its common denominator has the same null space."""
    return Subspace._span(matrix.shape[1], la.kernel_basis(la.cleared_rows(matrix)[0]))


def direct_sum(*spaces: Subspace) -> Subspace:
    """The spaces placed block-diagonally, the k-th in the k-th block of coordinates.

    The placed canonical bases form a canonical basis, so nothing is eliminated.
    """
    placed = np.zeros((sum(s.ambient for s in spaces), sum(s.dim for s in spaces)), dtype=object)
    row = col = 0
    for space in spaces:
        placed[row : row + space.ambient, col : col + space.dim] = space.integer_basis
        row, col = row + space.ambient, col + space.dim
    return Subspace._canonical(placed.shape[0], placed)
