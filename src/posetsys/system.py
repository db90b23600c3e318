"""State-space systems whose matrices respect a common poset pattern."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg as la
from .blockmat import BlockMatrix, Partition, incidence_violations, is_incident
from .errors import (
    IndexOutOfRange,
    ShapeMismatch,
    SingularMatrix,
    SingularResolvent,
    StructureViolation,
    ValidationError,
)
from .poset import Poset, dual_poset

__all__ = [
    "PosetCausalSystem",
    "ValidationReport",
    "validate",
    "dual_system",
    "derived",
    "transfer_eval",
]


class PosetCausalSystem:
    """(A, B, C, D) over a poset with state/input/output partitions n, m, r.

    Every matrix keeps the poset's zero pattern: block (i, j) vanishes unless
    node j is above node i. The constructor raises ``ValidationError`` otherwise,
    and a built system is immutable, so the pattern cannot be broken later. On
    first use it clears A, B and C to integers once and keeps them with the
    denominators it cleared by (``_integer_form``), for the exact per-node
    sets to slice and the reductions to compress.
    """

    def __init__(self, poset: Poset, n, m, r, A, B, C, D, x0=None):
        self._hold(poset, n, m, r, A, B, C, D, x0)
        report = validate(self)
        if not report.ok:
            raise ValidationError(report.describe())

    @classmethod
    def _unchecked(cls, *args, **kwargs) -> "PosetCausalSystem":
        """A system whose matrices are known to keep the pattern (not checked)."""
        sys = cls.__new__(cls)
        sys._hold(*args, **kwargs)
        return sys

    def _hold(self, poset: Poset, n, m, r, A, B, C, D, x0=None) -> None:
        n = n if isinstance(n, Partition) else Partition(n)
        m = m if isinstance(m, Partition) else Partition(m)
        r = r if isinstance(r, Partition) else Partition(r)
        for name, part in (("n", n), ("m", m), ("r", r)):
            if part.count != poset.p:
                raise ShapeMismatch(f"partition {name} has {part.count} parts, poset has {poset.p}")
        A, B, C, D = _as_block(A, n, n), _as_block(B, n, m), _as_block(C, r, n), _as_block(D, r, m)
        if x0 is not None:
            x0 = la.fvec(x0).copy()
            if x0.shape[0] != n.total:
                raise ShapeMismatch(f"x0 has {x0.shape[0]} entries, expected {n.total}")
            x0.flags.writeable = False
        # past __setattr__, which refuses every assignment
        vars(self).update(poset=poset, n=n, m=m, r=r, A=A, B=B, C=C, D=D, x0=x0)

    @cached_property
    def _integer_form(self) -> tuple:
        """((Ia, Ib, Ic), (d, e, f)): A, B and C as integer matrices, cleared once on first use and kept.

        Ia is A over one common denominator d, so A = Ia / d. Ib is B with
        column j times its common denominator e[j], and Ic is C with row i
        times its own, f[i]. The per-node sets read sub-blocks of them
        (``model_integers``) instead of deriving each model and clearing it
        again; ``reduction`` compresses with them and the denominators and
        checks moments on them. The clearing is ``_linalg``'s (``cleared``,
        ``cleared_rows``), and ``dual_system`` gives a dual this form
        transposed instead of clearing it again. ``cached_property`` writes
        the instance dictionary directly, past the frozen ``__setattr__``;
        the arrays are read-only, as the system is.
        """
        ia, d = la.cleared(self.A.entries)
        ib, e = la.cleared_rows(self.B.entries.T)
        ic, f = la.cleared_rows(self.C.entries)
        ints = (ia, ib.T, ic)
        for m in ints:
            m.flags.writeable = False
        return ints, (d, e, f)

    def _frozen(self, name, *value):
        raise AttributeError(f"a PosetCausalSystem is immutable: cannot change {name!r}")

    __setattr__ = __delattr__ = _frozen

    @property
    def state_dim(self) -> int:
        return self.n.total

    @property
    def input_dim(self) -> int:
        return self.m.total

    @property
    def output_dim(self) -> int:
        return self.r.total

    def initial_state(self) -> np.ndarray:
        return self.x0 if self.x0 is not None else la.zeros(self.state_dim, 1)

    def __repr__(self) -> str:
        return (
            f"PosetCausalSystem(p={self.poset.p}, n={self.n.sizes}, "
            f"m={self.m.sizes}, r={self.r.sizes})"
        )


def _as_block(mat, rows: Partition, cols: Partition) -> BlockMatrix:
    if isinstance(mat, BlockMatrix):
        if mat.row_partition != rows or mat.col_partition != cols:
            raise ShapeMismatch("block matrix partitions disagree with the system's")
        return mat
    return BlockMatrix(mat, rows, cols)


@dataclass(frozen=True)
class ValidationReport:
    """Per-matrix lists of blocks that break the required zero pattern."""

    violations: dict

    @property
    def ok(self) -> bool:
        return not any(self.violations.values())

    def describe(self) -> str:
        if self.ok:
            return "all system matrices respect the poset pattern"
        lines = []
        for name in sorted(self.violations):
            for i, j in self.violations[name]:
                lines.append(f"{name}: block ({i},{j}) must vanish (node {j} is not above {i})")
        return "\n".join(lines)


def validate(sys: PosetCausalSystem) -> ValidationReport:
    """Check the four incidence conditions, as the constructor does; reports every bad block."""
    out = {}
    for name in ("A", "B", "C", "D"):
        out[name] = incidence_violations(getattr(sys, name), sys.poset)
    return ValidationReport(violations=out)


def dual_system(sys: PosetCausalSystem) -> PosetCausalSystem:
    """Transpose all matrices and reverse the order; inputs and outputs swap.

    No pattern check: the paper shows poset-causal systems are closed under
    duality. Nor is anything copied or cleared again: its exact matrices are
    the system's transposed (``BlockMatrix.transpose``) and its integer form
    is the system's, transposed, ((Ia^T, Ic^T, Ib^T), (d, f, e)), all as
    read-only views. A^T is Ia^T over the same d; column j of C^T is row j of
    C, so Ic^T clears the dual's B by columns with f, and likewise Ib^T its C
    by rows with e.
    """
    (ia, ib, ic), (d, e, f) = sys._integer_form
    dual = PosetCausalSystem._unchecked(
        poset=dual_poset(sys.poset),
        n=sys.n,
        m=sys.r,
        r=sys.m,
        A=sys.A.transpose(),
        B=sys.C.transpose(),
        C=sys.B.transpose(),
        D=sys.D.transpose(),
        x0=sys.x0,
    )
    vars(dual)["_integer_form"] = (ia.T, ic.T, ib.T), (d, f, e)  # what the cached_property would hold
    return dual


def model_nodes(poset: Poset, kind: str, i: int | None = None) -> tuple:
    """State, input and output nodes of the global, local(i), downstream(i) or upstream(i) model.

    The kind is checked first, so an unknown kind raises ``ValueError`` with or
    without a node index. The down-set and up-set are the node's cones
    (``Poset.cones``), sorted tuples. ``derived`` restricts the partitions to them;
    ``model_coordinates`` lists their coordinates. Not in ``__all__``, so the
    benchmark's tracer, which wraps every listed function, does not count it as
    a call of its own.
    """
    if kind not in ("global", "local", "downstream", "upstream"):
        raise ValueError(f"unknown derived kind {kind!r}")
    if kind == "global":
        return poset.nodes, poset.nodes, poset.nodes
    if i is None:
        raise IndexOutOfRange(f"derived kind {kind!r} needs a node index")
    poset.check_node(i)
    own = (i,)
    if kind == "local":
        return own, own, own
    downs, ups = poset.cones
    if kind == "downstream":
        return downs[i - 1], own, downs[i - 1]
    return ups[i - 1], ups[i - 1], own


def model_coordinates(sys: PosetCausalSystem, kind: str, i: int | None = None) -> tuple:
    """State, input and output coordinates (``Partition.indices``) of the model's nodes, as intp arrays.

    ``model_slices`` cuts every model at them, from any representation of the
    system's matrices: ``derived`` the exact entries, ``model_integers`` the
    integer form and ``sim``'s decomposition check the doubles. A node's empty
    block adds none. Not in ``__all__``, as ``model_nodes``.
    """
    nodes = model_nodes(sys.poset, kind, i)
    return tuple(np.array(part.indices(k), dtype=np.intp) for part, k in zip((sys.n, sys.m, sys.r), nodes))


def model_slices(mats, coords) -> tuple:
    """A, B, C, and D when it is given, of the model at ``coords`` (``model_coordinates``), cut from ``mats``.

    ``mats`` holds the system's matrices in any representation (exact,
    integer or double); each cut is a copy of the same dtype. This is the one
    place a model is cut from its system. Not in ``__all__``, as ``model_nodes``.
    """
    (x, u, y), (a, b, c, *d) = coords, mats
    rows, outputs = x[:, None], y[:, None]
    return (a[rows, x], b[rows, u], c[outputs, x], *(m[outputs, u] for m in d))


def model_integers(sys: PosetCausalSystem, kind: str, i: int | None = None) -> tuple:
    """The model's A, B and C cut from the system's integer form by ``model_slices``.

    The per-node sets read these in place of the derived model's own cleared
    matrices. Slicing is exact, so every set comes out equal:

    * Ia[x, x] is d times the model's A, so it has the same Krylov spans,
      kernels and invariant subspaces.
    * Block (k, j) of B vanishes unless node j is above node k, so the column
      of an input at node j has all its nonzeros in the down-set of j. Sliced
      to the downstream model at j, it is that model's column cleared by its
      own common denominator; sliced to node j alone, a positive multiple.
    * Likewise the row of an output at node j has all its nonzeros in the
      up-set of j, so sliced to the upstream model at j it is that model's
      row cleared by its own common denominator.

    The global model is the system itself, so the global sets read
    ``_integer_form`` whole, with no cut. Not in ``__all__``, as ``model_nodes``.
    """
    return model_slices(sys._integer_form[0], model_coordinates(sys, kind, i))


def derived(sys: PosetCausalSystem, kind: str, i: int | None = None) -> PosetCausalSystem:
    """The global, local(i), downstream(i) or upstream(i) model of the system.

    The model is again a poset-causal system over ``sys.poset``. Its partitions
    are the system's, restricted to the model's state, input and output nodes
    (``model_nodes``; the other blocks have size 0), so block j of the model is
    block j of the system. Its four matrices are ``model_slices`` of the
    system's exact entries. No pattern check: a restriction of a system keeps
    its pattern. The exact per-node sets build no model: they read integer
    slices of the system (``model_integers``).
    """
    nodes = model_nodes(sys.poset, kind, i)
    n, m, r = (part.restrict(k) for part, k in zip((sys.n, sys.m, sys.r), nodes))
    # the cuts are copies, and the system's entries are already exact
    mats = (sys.A.entries, sys.B.entries, sys.C.entries, sys.D.entries)
    a, b, c, d = model_slices(mats, model_coordinates(sys, kind, i))
    return PosetCausalSystem._unchecked(
        poset=sys.poset,
        n=n,
        m=m,
        r=r,
        A=BlockMatrix._owning(a, n, n),
        B=BlockMatrix._owning(b, n, m),
        C=BlockMatrix._owning(c, r, n),
        D=BlockMatrix._owning(d, r, m),
    )


def transfer_eval(sys: PosetCausalSystem, s) -> BlockMatrix:
    """Exact D + C X with (sI - A) X = B, one solve; the result respects the poset pattern."""
    s = la.exact_entry(s)
    try:
        x = la.solve(s * la.eye(sys.state_dim) - sys.A.entries, sys.B.entries)
    except SingularMatrix as exc:
        raise SingularResolvent(f"{s} is an eigenvalue of A") from exc
    f = sys.D.entries + la.mdot(sys.C.entries, x)
    out = BlockMatrix(f, sys.r, sys.m)
    if not is_incident(out, sys.poset):
        raise StructureViolation("transfer function left the incidence space (internal bug)")
    return out
