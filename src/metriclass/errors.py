"""Semantic exception hierarchy.

Error messages are prefixed with the subsystem that raised them so CLI
output names the failing component.
"""


class MetriclassError(Exception):
    """Base error for the package."""


class ConstraintError(MetriclassError, ValueError):
    """Inputs violate a structural invariant (counts, lengths, labels)."""


class UndefinedValueError(MetriclassError):
    """A measure formula hit a zero denominator on the given element.

    Carries the measure id and a display form of the offending element,
    so classification can exclude the point and record the exclusion.
    Formulas raise it with a reason only; ``Measure.evaluate`` fills in
    the id and the element.
    """

    def __init__(self, measure_id: str = "", element: str = "",
                 reason: str = "zero denominator"):
        self.measure_id = measure_id
        self.element = element
        self.reason = reason
        super().__init__(f"measures: {measure_id} undefined on {element} ({reason})")


class UnsatisfiableNeedError(MetriclassError):
    """A leveled output does not contain enough relevant documents."""


class ParameterError(MetriclassError, ValueError):
    """A measure parameter is missing or out of range."""


class ParseError(MetriclassError, ValueError):
    """A text input (qrels, run, domain spec, measure id, JSON record) is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class DomainTooLargeError(MetriclassError):
    """Enumeration refused: the domain has more elements than the cap.

    ``cardinality`` is where counting stopped, a lower bound above the cap;
    past 64 bits the message names only its leading power of two.
    """

    def __init__(self, cardinality: int, cap: int):
        self.cardinality = cardinality
        self.cap = cap
        bits = cardinality.bit_length()
        count = cardinality if bits <= 64 else f"2^{bits - 1}"
        super().__init__(
            f"enumeration: domain has at least {count} elements, above the cap of {cap}"
        )
