"""Exception types raised by the geometric constructors and pipelines."""


class GeometryError(Exception):
    """Base class for all geometric validation and pipeline failures."""


# -- input files ----------------------------------------------------------------

class InvalidInput(GeometryError, ValueError):
    """A JSON input breaks its schema; a ValueError too, so callers catching that still work."""


# -- planar polygon validation ------------------------------------------------

class NotConvex(GeometryError):
    """A vertex chain has a reflex (negative exterior) angle or zero area."""


class NotSimple(GeometryError):
    """A locally convex chain winds more than once (turning sum != 2*pi)."""


class WrongOrientation(GeometryError):
    """Vertices are ordered clockwise (negative signed area)."""


class DegenerateEdge(GeometryError):
    """Two consecutive vertices coincide within the length tolerance."""


# -- curve pairing and alignment ----------------------------------------------

class PerimeterMismatch(GeometryError):
    """Paired curves do not have equal length within tolerance."""


class OrientationMismatch(GeometryError):
    """Paired curves are not both positively oriented."""


class AlignmentNotFound(GeometryError):
    """No base shift gives a positive semitangent margin."""


# -- spherical polygons and cones ----------------------------------------------

class NotOnSphere(GeometryError):
    """A vertex is not a unit vector within tolerance."""


class NotConvexSpherical(GeometryError):
    """A spherical chain fails the convexity or Gauss-Bonnet certificate."""


class AntipodalEdge(GeometryError):
    """Consecutive spherical vertices are antipodal (no unique geodesic)."""


class NonPositiveHeight(GeometryError):
    """The x0-denominator of the Pogorelov transform is too small."""


class NotConvexPlanar(GeometryError):
    """A transformed planar image failed convex validation."""


class AntipodalCorrespondence(GeometryError):
    """Corresponding spherical points are (nearly) antipodal; sum vanishes."""


class LinkNotGenerated(GeometryError, RuntimeError):
    """No random hull reaches the target link length within the attempt cap; a RuntimeError too."""


class PositioningNotFound(GeometryError):
    """No rotation candidate yields a certified convex combined cone."""


class TruncationTooDeep(GeometryError):
    """Digon truncation depth leaves no valid quadrilateral."""


# -- rendering -----------------------------------------------------------------

class EmptyInput(GeometryError):
    """A renderer was called with nothing to draw."""
