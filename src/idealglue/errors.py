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
    """A solve failed, or a certificate was refused.  Carries the failed
    SolveResult, when there is one, as `result`."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class EdgeCycleNotClosed(IdealGlueError):
    """The composed face steps once around an edge cycle do not fix the
    edge's ends to within `tolerance`: a convention fault, or the rounding
    of the face steps at a shape of large modulus (about 1e5 and more).
    Carries the relative `mismatch`."""

    def __init__(self, edge: int, mismatch: float, tolerance: float):
        super().__init__(f"edge {edge}: mismatch {mismatch:.3e}")
        self.mismatch, self.tolerance = mismatch, tolerance


class DevelopFailure(IdealGlueError, ValueError):
    """The developing map could not be built: the triangulation is
    disconnected.  Also a ValueError, which this failure raised before it
    had a type of its own."""


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
