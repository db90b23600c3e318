"""Exact subspaces of Q^n represented by canonical column bases.

The canonical form is the reduced column echelon form with pivots normalized
to 1, so two Subspace objects are equal iff their basis arrays are identical.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import _linalg as la
from .blockmat import Partition
from .errors import AmbientMismatch

__all__ = ["Subspace", "image", "kernel"]


class Subspace:
    """A linear subspace of Q^ambient with a canonical rational basis."""

    def __init__(self, ambient: int, basis: np.ndarray):
        self.ambient = int(ambient)
        if basis.dtype != object:
            basis = la.fmat(basis)
        if basis.shape[0] != self.ambient:
            raise AmbientMismatch(f"basis rows {basis.shape[0]} != ambient {self.ambient}")
        basis = la.column_echelon(basis)
        basis = basis.copy()
        basis.flags.writeable = False
        self.basis = basis

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
        return cls(ambient, la.zeros(ambient, 0))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, la.eye(ambient))

    # basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def is_zero(self) -> bool:
        return self.dim == 0

    def _require_same_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"ambients differ: {self.ambient} vs {other.ambient}")

    def equals(self, other: "Subspace") -> bool:
        self._require_same_ambient(other)
        return self.basis.shape == other.basis.shape and all(
            x == y for x, y in zip(self.basis.flat, other.basis.flat)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.ambient == other.ambient and self.equals(other)

    def __hash__(self):
        return hash((self.ambient, tuple(self.basis.flat)))

    def contains(self, other: "Subspace") -> bool:
        self._require_same_ambient(other)
        return self.sum(other).dim == self.dim

    def contains_vector(self, vec) -> bool:
        v = vec if isinstance(vec, np.ndarray) and vec.dtype == object else la.fvec(vec)
        if v.size != self.ambient:
            raise AmbientMismatch(f"vector has {v.size} entries, ambient is {self.ambient}")
        return la.rank(np.hstack([self.basis, v.reshape(self.ambient, 1)])) == self.dim

    # lattice operations -----------------------------------------------

    def sum(self, *others: "Subspace") -> "Subspace":
        """Span of this subspace and all ``others``, by one canonical elimination."""
        for other in others:
            self._require_same_ambient(other)
        return Subspace(self.ambient, np.hstack([self.basis] + [o.basis for o in others]))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._require_same_ambient(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient)
        # U a + W b = 0 puts U a in U cap W, so no sign flip of W is needed
        stacked = np.hstack([self.basis, other.basis])
        null = la.kernel_basis(stacked)
        coords = null[: self.dim, :]
        return Subspace(self.ambient, la.mdot(self.basis, coords))

    def complement(self) -> "Subspace":
        """Orthogonal complement in the standard inner product."""
        return Subspace(self.ambient, la.kernel_basis(self.basis.T))

    def ominus(self, other: "Subspace") -> "Subspace":
        """self intersected with the orthogonal complement of ``other``."""
        return self.intersect(other.complement())

    # maps and projections ----------------------------------------------

    def apply(self, matrix: np.ndarray) -> "Subspace":
        """Image of this subspace under a linear map (rows = new ambient)."""
        return Subspace(matrix.shape[0], la.mdot(matrix, self.basis))

    def project_onto(self, target: "Subspace") -> "Subspace":
        """Orthogonal projection of this subspace onto ``target``."""
        self._require_same_ambient(target)
        if target.is_zero() or self.is_zero():
            return Subspace.zero(self.ambient)
        coords = la.solve_gram(target.basis, self.basis)
        return Subspace(self.ambient, la.mdot(target.basis, coords))

    def coordinate_project(self, partition: Partition, nodes) -> "Subspace":
        """Projection onto the coordinate blocks in ``nodes``, in full ambient coordinates."""
        if partition.total != self.ambient:
            raise AmbientMismatch(
                f"partition total {partition.total} != ambient {self.ambient}"
            )
        keep = partition.indices(nodes)
        masked = la.zeros(*self.basis.shape)
        masked[keep, :] = self.basis[keep, :]
        return Subspace(self.ambient, masked)

    def embed(self, partition: Partition, nodes) -> "Subspace":
        """This subspace of the coordinates of ``nodes``, placed in the full ambient.

        The basis rows go to the coordinates ``partition.indices(nodes)``; every
        other row is zero.
        """
        rows = partition.indices(nodes)
        if len(rows) != self.ambient:
            raise AmbientMismatch(f"nodes have {len(rows)} coordinates, ambient is {self.ambient}")
        placed = la.zeros(partition.total, self.dim)
        placed[rows, :] = self.basis
        return Subspace(partition.total, placed)

    # serialization ------------------------------------------------------

    def vectors(self) -> list[list[Fraction]]:
        """Canonical basis as a list of column vectors."""
        return [[self.basis[r, c] for r in range(self.ambient)] for c in range(self.dim)]

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def image(matrix: np.ndarray) -> Subspace:
    """Exact column space."""
    return Subspace(matrix.shape[0], matrix)


def kernel(matrix: np.ndarray) -> Subspace:
    """Exact null space."""
    return Subspace(matrix.shape[1], la.kernel_basis(matrix))
