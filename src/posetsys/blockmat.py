"""Partitioned exact matrices with order-prescribed zero patterns.

A BlockMatrix couples a dense rational matrix with row/column partitions.
Compressions keep the full-length partition and zero out the sizes of dropped
blocks, so block indices stay globally meaningful across compressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import _linalg as la
from .errors import (
    DownSetNotContained,
    IncompatibleShapes,
    PartitionMismatch,
    ShapeMismatch,
    StructureViolation,
)
from .poset import Poset, derived_set

__all__ = [
    "Partition",
    "BlockMatrix",
    "is_incident",
    "incidence_violations",
    "compress",
    "structured_multiply",
    "structured_inverse",
    "compressed_product",
    "block_identity",
    "embed",
    "project",
]


@dataclass(frozen=True)
class Partition:
    """Block sizes (n_1, ..., n_p): ints or numpy integers, zero allowed, never a bool.

    Equality and hashing read ``sizes`` alone; ``starts``, the prefix sums
    (block j begins at ``starts[j - 1]``, and ``starts[-1]`` is the total), is
    computed once from them.
    """

    sizes: tuple
    starts: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, sizes):
        sizes = tuple(sizes)
        if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 0 for s in sizes):
            raise PartitionMismatch(f"partition sizes must be non-negative integers, got {sizes}")
        self._hold(tuple(map(int, sizes)))

    def _hold(self, sizes: tuple) -> None:
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "starts", (0, *accumulate(sizes)))

    @classmethod
    def _of(cls, sizes: tuple) -> "Partition":
        """The partition of a tuple of ints already validated (not checked)."""
        out = cls.__new__(cls)
        out._hold(sizes)
        return out

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return self.starts[-1]

    def size(self, j: int) -> int:
        self._check(j)
        return self.sizes[j - 1]

    def block_range(self, j: int) -> range:
        self._check(j)
        return range(self.starts[j - 1], self.starts[j])

    @property
    def nonempty(self) -> tuple:
        """The nodes whose blocks have nonzero size, in increasing order."""
        return tuple(j + 1 for j, s in enumerate(self.sizes) if s)

    def indices(self, nodes) -> list:
        """Global coordinates of the blocks in ``nodes``, in increasing node order."""
        out: list[int] = []
        starts = self.starts
        for j in sorted(set(nodes)):
            self._check(j)
            out.extend(range(starts[j - 1], starts[j]))
        return out

    def restrict(self, nodes) -> "Partition":
        """Same length, sizes zeroed outside ``nodes``."""
        keep = set(nodes)
        return Partition._of(tuple(s if (j + 1) in keep else 0 for j, s in enumerate(self.sizes)))

    def _check(self, j: int) -> None:
        if not 1 <= j <= len(self.sizes):
            raise PartitionMismatch(f"block index {j} outside 1..{len(self.sizes)}")


class BlockMatrix:
    """Dense rational matrix with row and column partitions."""

    def __init__(self, entries, row_partition: Partition, col_partition: Partition):
        entries = la.exact_matrix(entries)
        if entries.shape != (row_partition.total, col_partition.total):
            raise ShapeMismatch(
                f"entries {entries.shape} do not match partitions "
                f"({row_partition.total}, {col_partition.total})"
            )
        self._hold(entries.copy(), row_partition, col_partition)

    def _hold(self, entries: np.ndarray, row_partition: Partition, col_partition: Partition) -> None:
        entries.flags.writeable = False
        self.entries = entries
        self.row_partition = row_partition
        self.col_partition = col_partition

    @classmethod
    def _owning(cls, entries: np.ndarray, row_partition: Partition, col_partition: Partition) -> "BlockMatrix":
        """The block matrix of ``entries``, an exact matrix no one else writes, of the partitions' shape.

        Nothing is checked or copied; ``entries`` becomes read-only.
        """
        out = cls.__new__(cls)
        out._hold(entries, row_partition, col_partition)
        return out

    @property
    def shape(self):
        return self.entries.shape

    def block(self, i: int, j: int) -> np.ndarray:
        rows = self.row_partition.block_range(i)
        cols = self.col_partition.block_range(j)
        return self.entries[rows.start : rows.stop, cols.start : cols.stop]

    def transpose(self) -> "BlockMatrix":
        """The transpose, as a read-only view of these entries, which are exact already."""
        return BlockMatrix._owning(self.entries.T, self.col_partition, self.row_partition)

    def equals(self, other: "BlockMatrix") -> bool:
        return (
            self.row_partition == other.row_partition
            and self.col_partition == other.col_partition
            and self.shape == other.shape
            and all(x == y for x, y in zip(self.entries.flat, other.entries.flat))
        )

    def __repr__(self) -> str:
        return (
            f"BlockMatrix({self.shape[0]}x{self.shape[1]}, "
            f"rows={self.row_partition.sizes}, cols={self.col_partition.sizes})"
        )


def _check_parts(m: BlockMatrix, poset: Poset) -> None:
    if m.row_partition.count != poset.p or m.col_partition.count != poset.p:
        raise PartitionMismatch(
            f"partitions have {m.row_partition.count}/{m.col_partition.count} parts, "
            f"poset has {poset.p}"
        )


def incidence_violations(m: BlockMatrix, poset: Poset) -> list:
    """Blocks (i, j) that are nonzero although j is not above i."""
    _check_parts(m, poset)
    bad = []
    for i in poset.nodes:
        for j in poset.nodes:
            if not poset.geq(j, i) and not la.is_zero_matrix(m.block(i, j)):
                bad.append((i, j))
    return bad


def is_incident(m: BlockMatrix, poset: Poset) -> bool:
    """True iff block (i, j) vanishes whenever j is not above i."""
    return not incidence_violations(m, poset)


def compress(m: BlockMatrix, rows, cols) -> BlockMatrix:
    """Keep the blocks with row index in ``rows`` and column index in ``cols``.

    The result's partitions keep all p entries with dropped sizes set to zero.
    """
    rows, cols = set(rows), set(cols)
    # fancy indexing copies, and the entries of ``m`` are already exact
    sub = m.entries[np.ix_(m.row_partition.indices(rows), m.col_partition.indices(cols))]
    return BlockMatrix._owning(sub, m.row_partition.restrict(rows), m.col_partition.restrict(cols))


def structured_multiply(g: BlockMatrix, h: BlockMatrix, poset: Poset) -> BlockMatrix:
    """Product of two pattern-respecting matrices; asserts the pattern survives."""
    if g.col_partition != h.row_partition:
        raise IncompatibleShapes("column partition of G must equal row partition of H")
    if not is_incident(g, poset) or not is_incident(h, poset):
        raise StructureViolation("operands do not respect the poset pattern")
    out = BlockMatrix(la.mdot(g.entries, h.entries), g.row_partition, h.col_partition)
    if not is_incident(out, poset):
        raise StructureViolation("product left the incidence space (internal bug)")
    return out


def structured_inverse(k: BlockMatrix, poset: Poset) -> BlockMatrix:
    """Exact inverse of a pattern-respecting square matrix; pattern is asserted."""
    if k.row_partition != k.col_partition:
        raise IncompatibleShapes("inverse needs matching row/column partitions")
    if not is_incident(k, poset):
        raise StructureViolation("operand does not respect the poset pattern")
    inv = BlockMatrix(la.inverse(k.entries), k.col_partition, k.row_partition)
    if not is_incident(inv, poset):
        raise StructureViolation("inverse left the incidence space (internal bug)")
    return inv


def compressed_product(
    g: BlockMatrix,
    h: BlockMatrix,
    poset: Poset,
    out_rows,
    in_cols,
    through=None,
) -> BlockMatrix:
    """G(Q,R) H(R,S) for any R containing the down-set of S; equals (GH)(Q,S).

    ``through`` defaults to the down-set of ``in_cols``; H must respect the
    pattern for the shortcut to be sound.
    """
    if g.col_partition != h.row_partition:
        raise IncompatibleShapes("column partition of G must equal row partition of H")
    if not is_incident(h, poset):
        raise StructureViolation("H does not respect the poset pattern")
    down = derived_set(poset, in_cols, "down")
    mid = down if through is None else frozenset(through)
    if not down <= mid:
        raise DownSetNotContained(f"intermediate set {sorted(mid)} misses {sorted(down - mid)}")
    left = compress(g, out_rows, mid)
    right = compress(h, mid, in_cols)
    return BlockMatrix(la.mdot(left.entries, right.entries), left.row_partition, right.col_partition)


def block_identity(partition: Partition) -> BlockMatrix:
    return BlockMatrix(la.eye(partition.total), partition, partition)


def embed(partition: Partition, nodes) -> BlockMatrix:
    """Identity columns for ``nodes``: the inclusion of the compressed space."""
    return compress(block_identity(partition), partition_nodes(partition), nodes)


def project(partition: Partition, nodes) -> BlockMatrix:
    """Identity rows for ``nodes``: the projection onto the compressed space."""
    return compress(block_identity(partition), nodes, partition_nodes(partition))


def partition_nodes(partition: Partition) -> range:
    return range(1, partition.count + 1)
