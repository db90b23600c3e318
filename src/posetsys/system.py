"""State-space systems whose matrices respect a common poset pattern."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .blockmat import BlockMatrix, Partition, compress, incidence_violations, is_incident
from .errors import (
    IndexOutOfRange,
    ShapeMismatch,
    SingularMatrix,
    SingularResolvent,
    StructureViolation,
    ValidationError,
)
from .poset import Poset, derived_set

__all__ = [
    "PosetCausalSystem",
    "ValidationReport",
    "validate",
    "require_valid",
    "dual_system",
    "derived",
    "transfer_eval",
]


class PosetCausalSystem:
    """(A, B, C, D) over a poset with state/input/output partitions n, m, r."""

    def __init__(self, poset: Poset, n, m, r, A, B, C, D, x0=None):
        self.poset = poset
        self.n = n if isinstance(n, Partition) else Partition(n)
        self.m = m if isinstance(m, Partition) else Partition(m)
        self.r = r if isinstance(r, Partition) else Partition(r)
        for name, part in (("n", self.n), ("m", self.m), ("r", self.r)):
            if part.count != poset.p:
                raise ShapeMismatch(f"partition {name} has {part.count} parts, poset has {poset.p}")
        self.A = _as_block(A, self.n, self.n)
        self.B = _as_block(B, self.n, self.m)
        self.C = _as_block(C, self.r, self.n)
        self.D = _as_block(D, self.r, self.m)
        if x0 is None:
            self.x0 = None
        else:
            vec = la.fvec(x0)
            if vec.shape[0] != self.n.total:
                raise ShapeMismatch(f"x0 has {vec.shape[0]} entries, expected {self.n.total}")
            vec = vec.copy()
            vec.flags.writeable = False
            self.x0 = vec

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
    """Check the four incidence conditions; reports every violating block."""
    out = {}
    for name in ("A", "B", "C", "D"):
        out[name] = incidence_violations(getattr(sys, name), sys.poset)
    return ValidationReport(violations=out)


def require_valid(sys: PosetCausalSystem) -> None:
    report = validate(sys)
    if not report.ok:
        raise ValidationError(report.describe())


def dual_system(sys: PosetCausalSystem) -> PosetCausalSystem:
    """Transpose all matrices and reverse the order; inputs and outputs swap."""
    from .poset import dual_poset

    return PosetCausalSystem(
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


def derived(sys: PosetCausalSystem, kind: str, i: int | None = None) -> PosetCausalSystem:
    """The global, local(i), downstream(i) or upstream(i) model of the system.

    The model is again a poset-causal system over ``sys.poset``. Its partitions
    are the system's, restricted to the model's state, input and output nodes
    (the other blocks have size 0), so block j of the model is block j of the
    system, and ``sys.n.indices(model.n.nonempty)`` are its global coordinates.
    """
    if kind == "global":
        states = inputs = outputs = sys.poset.nodes
    elif i is None:
        raise IndexOutOfRange(f"derived kind {kind!r} needs a node index")
    else:
        sys.poset.check_node(i)
        own = (i,)
        if kind == "local":
            states = inputs = outputs = own
        elif kind == "downstream":
            states = outputs = derived_set(sys.poset, {i}, "down")
            inputs = own
        elif kind == "upstream":
            states = inputs = derived_set(sys.poset, {i}, "up")
            outputs = own
        else:
            raise ValueError(f"unknown derived kind {kind!r}")
    return PosetCausalSystem(
        poset=sys.poset,
        n=sys.n.restrict(states),
        m=sys.m.restrict(inputs),
        r=sys.r.restrict(outputs),
        A=compress(sys.A, states, states),
        B=compress(sys.B, states, inputs),
        C=compress(sys.C, outputs, states),
        D=compress(sys.D, outputs, inputs),
    )


def transfer_eval(sys: PosetCausalSystem, s) -> BlockMatrix:
    """Exact D + C (sI - A)^-1 B; the result respects the poset pattern."""
    s = la.exact_entry(s)
    try:
        res = la.inverse(s * la.eye(sys.state_dim) - sys.A.entries)
    except SingularMatrix as exc:
        raise SingularResolvent(f"{s} is an eigenvalue of A") from exc
    f = sys.D.entries + la.mdot(sys.C.entries, la.mdot(res, sys.B.entries))
    out = BlockMatrix(f, sys.r, sys.m)
    if not is_incident(out, sys.poset):
        raise StructureViolation("transfer function left the incidence space (internal bug)")
    return out
