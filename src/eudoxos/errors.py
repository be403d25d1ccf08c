"""Exception hierarchy shared across the library."""


class EudoxosError(Exception):
    """Base class for all library errors."""


class KindMismatchError(EudoxosError):
    """Magnitudes of distinct kinds were combined."""


class ZeroMagnitudeError(EudoxosError):
    """A magnitude payload is zero or could not be certified positive."""


class NotGreaterError(EudoxosError):
    """Partial subtraction attempted with minuend not greater than subtrahend."""


class NoWitnessError(EudoxosError):
    """No element z satisfies y + z = x although x exceeds y in the order."""


class IndistinguishableError(EudoxosError):
    """A comparison stayed unresolved at the requested resolution."""


class NotArchimedeanError(EudoxosError):
    """Cut is empty or full: the pair has no ratio (infinitesimal/infinite)."""


class CollinearError(EudoxosError):
    """Point triple lies on a straight line (zero or straight angle)."""


class DuplicatePointError(EudoxosError):
    """Point triple contains coincident points."""


class NotAcuteError(EudoxosError):
    """Operation requires an acute angle."""


class DomainError(EudoxosError, ValueError):
    """Numeric argument outside the operation's domain.

    Also a ``ValueError``, so callers that catch the built-in argument error
    keep catching it.
    """


class EmptyArcError(EudoxosError):
    """Arc with zero or negative extent."""


class NotDisjointError(EudoxosError):
    """Region parts overlap, or disjointness could not be certified."""


class DegeneratePolygonError(EudoxosError):
    """Polygon has fewer than three usable vertices or zero content."""


class SelfIntersectionError(DegeneratePolygonError):
    """Polygon boundary crosses itself."""


class IrrationalVertexError(EudoxosError):
    """Vertex coordinate is not an exact rational."""
