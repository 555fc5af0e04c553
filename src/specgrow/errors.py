"""Exception types shared across the package."""


class SpecgrowError(Exception):
    """Base class for all package errors."""


class GraphFormatError(SpecgrowError):
    """Malformed graph or candidate-set input (bad indices, weights, duplicates)."""


class SelfLoopEdge(GraphFormatError):
    """An edge {i, j} with i == j."""


class NodeCountMismatch(GraphFormatError):
    """Binary graph operation on graphs with different node counts."""


class NotConnected(SpecgrowError):
    """The graph has more than one component; all measures are undefined."""


class IllConditioned(NotConnected):
    """The links join every node, but the algebraic connectivity is below the
    scale-aware zero threshold: the spectrum reads as disconnected."""


class InvalidParameter(SpecgrowError):
    """A measure or simulation parameter outside its admissible range."""


class MeasureSpecError(InvalidParameter):
    """A measure spec string that does not match the grammar."""


class NonDifferentiableMeasure(SpecgrowError):
    """Gradient requested for a measure that is not differentiable here."""


class UnsupportedMeasure(SpecgrowError):
    """The operation has no meaning (or no closed form) for this measure."""


class CombinatorialBlowup(SpecgrowError):
    """Exhaustive search would exceed the configured subset cap."""


class UnstableStepSize(InvalidParameter):
    """Simulation step size violates the explicit-scheme stability bound."""


class AxiomViolation(SpecgrowError):
    """A measure-axiom check failed; carries the witnessing instance."""

    def __init__(self, axiom: str, detail: str, witness=None):
        super().__init__(f"{axiom}: {detail}")
        self.axiom = axiom
        self.witness = witness
