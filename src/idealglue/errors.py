"""Exception types shared across the package."""


class IdealGlueError(Exception):
    """Base class for all package errors."""


class DegenerateShape(IdealGlueError):
    """A shape parameter is (numerically) 0 or 1, where the parameter
    relations are singular."""


class BranchCut(IdealGlueError):
    """Dilogarithm evaluated on the real ray (1, oo)."""


class NotUnitModulus(IdealGlueError):
    """A value expected on the unit circle is not, within tolerance."""


class NotConverged(IdealGlueError):
    """A certificate was requested from a non-converged solve."""


class EdgeCycleNotClosed(IdealGlueError):
    """The composed face steps once around an edge cycle do not fix the
    edge's ends.  Impossible on valid input; indicates a convention fault."""


class DevelopFailure(IdealGlueError, ValueError):
    """The developing map could not be built: coincident ideal points, a
    singular matrix, or a disconnected triangulation.  Also a ValueError,
    which these failures raised before they had a type of their own."""


class UnknownCorpusEntry(IdealGlueError):
    """Requested corpus name is not one of the built-in triangulations."""


class ParseError(IdealGlueError):
    """Triangulation file is malformed.  Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(IdealGlueError):
    """A triangulation failed validation.  Carries the full report."""

    def __init__(self, report):
        issues = ", ".join(str(i) for i in report.issues) or "invalid"
        super().__init__(issues)
        self.report = report
