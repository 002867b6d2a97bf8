"""Exception taxonomy shared by all germforge engines."""


class GermforgeError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(GermforgeError):
    """Operands live in different numbers of variables."""


class PrecisionError(GermforgeError):
    """A result was requested beyond the certified truncation order."""


class ConstantCurveError(GermforgeError):
    """The curve vanishes identically to its precision; ratios are ill-posed."""


class RealityError(GermforgeError):
    """Coefficient data violates the real-valuedness symmetry."""


class NotRegularError(GermforgeError):
    """Series is not regular of finite order in the distinguished variable."""


class DiscriminantError(GermforgeError):
    """Discriminant vanishes through its precision: the input is not
    reduced, or the precision is below the discriminant's order."""


class NormalFormError(GermforgeError):
    """User-supplied normal-form data violates its contract."""


class BlockSizeError(GermforgeError):
    """A unitary block is too small to cover the active families."""


class ImproperIdealError(GermforgeError):
    """A generator is a unit: the presentation is not a proper ideal."""


class ExactnessError(GermforgeError):
    """Floating data reached an operation that requires exact coefficients."""


class ParseError(GermforgeError):
    """Syntax error in a germforge text format, with source location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
