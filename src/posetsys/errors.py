"""Exception hierarchy shared by all posetsys modules."""


class PosetSysError(Exception):
    """Base class for all errors raised by this package."""


class CycleError(PosetSysError):
    """The transitive closure of the given edges contains a nontrivial cycle.

    Carries a witness cycle as a list of node labels, first and last equal:
    the shortest cycle of the given edges through the smallest node on one.
    No other node repeats, and a self-loop is never the witness.
    """

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"relation is not anti-symmetric, witness cycle: {self.cycle}")


class PartitionMismatch(PosetSysError):
    """A block matrix's partitions do not fit the operation's requirements."""


class IncompatibleShapes(PosetSysError):
    """Operands are not compatible for the requested (block) operation."""


class StructureViolation(PosetSysError):
    """An operation produced a matrix violating its guaranteed zero pattern.

    This indicates an internal bug; it is asserted, never expected.
    """


class SingularMatrix(PosetSysError):
    """An exact inverse was requested for a singular matrix."""


class DownSetNotContained(PosetSysError):
    """The intermediate index set of a compressed product misses part of a down-set."""


class AmbientMismatch(PosetSysError):
    """Subspace operands live in different ambient spaces."""


class ShapeMismatch(PosetSysError):
    """Matrix dimensions are inconsistent with the declared partitions."""


class IndexOutOfRange(PosetSysError):
    """A node index is outside 1..p."""


class SingularResolvent(PosetSysError):
    """Transfer function evaluated at an eigenvalue of the state matrix."""


class NotWeaklyLocallyControllable(PosetSysError):
    """Structured pole placement requested for a system with an uncontrollable local pair.

    Carries the witness block index.
    """

    def __init__(self, block):
        self.block = block
        super().__init__(f"local pair at block {block} is not controllable")


class InclusionViolation(PosetSysError):
    """A reduction hypothesis of the form U subseteq V failed; names the hypothesis."""


class DimensionMismatch(PosetSysError):
    """Vectors or signals have the wrong dimension for the given system."""


class NonFinite(PosetSysError):
    """A numerical routine received NaN or infinite entries."""


class ParseError(PosetSysError):
    """A system or signal file could not be parsed, or a system file could not be written."""


class ValidationError(PosetSysError):
    """A system breaks its poset's zero pattern; the message names every violating block."""
