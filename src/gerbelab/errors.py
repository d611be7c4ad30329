"""Exception hierarchy shared by all gerbelab modules."""


class GerbeError(Exception):
    """Base class for every error raised by gerbelab."""


class ProblemFileError(GerbeError):
    """Malformed or inconsistent declarative input file (CLI exit code 2)."""


# nerve

class DegenerateSimplex(GerbeError):
    """A simplex specification repeats a vertex."""


class DimensionTooLarge(GerbeError):
    """A simplex exceeds the supported dimension cap."""


# cech

class DegreeOverflow(GerbeError):
    """Coboundary requested past the top supported cochain degree."""


class UnsupportedCoefficient(GerbeError):
    """Operation not defined for this coefficient group."""


class NotACocycle(GerbeError):
    """Input cochain fails the (twisted) cocycle condition."""


class NotU1Cocycle(NotACocycle):
    """Circle-valued cochain is not closed modulo 1 within tolerance."""


class LiftNotIntegral(GerbeError):
    """Rounded coboundary of the real lift is not an integer cocycle."""


# lifting

class LiftMismatch(GerbeError):
    """Chosen lift does not project onto the transition cocycle."""


class ValueNotInKernel(GerbeError):
    """Obstruction entry escapes the central kernel (broken extension data)."""


class CocycleIdentityViolated(GerbeError):
    """Twisted 2-cocycle identity fails on a quadruple overlap."""


class ShapeMismatch(GerbeError):
    """Matrix family has inconsistent shapes."""


# schwinger

class TruncationTooSmall(GerbeError):
    """Fourier truncation below the exactness threshold for this band."""


# connection

class GridTooCoarse(GerbeError):
    """Chart grid too small for second-order finite differences."""


class NoOverlap(GerbeError):
    """Requested chart pair has no usable overlap points."""


class PointOutsideCharts(GerbeError):
    """Base point does not lie in the stated chart."""


class NotClosedSurface(GerbeError):
    """Integration requires a closed oriented surface base model."""
