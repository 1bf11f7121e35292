"""Closed convex geodesic polygons on the unit sphere.

Orientation is counterclockwise as seen from outside the sphere (interior
on the left of travel).  Convexity is certified by nonnegative geodesic
turning at every vertex together with one Gauss-Bonnet check: total turning
plus enclosed area must equal 2*pi, where the area is a signed triangle fan
from the vertices' mean direction.  The fan shares no angle with the
turnings, so a chain that winds twice reads a residual of 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AntipodalEdge, DegenerateEdge, LinkNotGenerated, NotConvexSpherical, NotOnSphere
from .geometry import (
    MAX_SAMPLES,
    TAU,
    ArcPolygon,
    brent_root,
    chain_perimeter,
    chain_vertices,
    check_count,
    convex_hull_2d,
    cross3,
    dot3,
    merge_to_corners,
    roll_next,
    roll_prev,
)
from .tolerances import (
    ANTIPODAL_DOT_EPS,
    CENTROID_NORM_FLOOR,
    COLLINEAR_EPS,
    GAUSS_BONNET_TOL,
    LINK_BRACKET_RTOL,
    LINK_LENGTH_TOL,
    LINK_SCALE_FLOOR,
    UNIT_NORM_TOL,
)

LINK_CAP_ANGLE = 1.45           # random links sample the polar cap of this radius
LINK_MAX_ATTEMPTS = 200
# Least target length every hull brackets: a cap point's gnomonic radius is
# at most tan(LINK_CAP_ANGLE), so a hull's gnomonic perimeter is at most
# 2*pi*tan(LINK_CAP_ANGLE), and the gnomonic map only lengthens, so its
# lifted perimeter at scale LINK_SCALE_FLOOR is at most that times the floor.
LINK_TARGET_FLOOR = LINK_SCALE_FLOOR * TAU * math.tan(LINK_CAP_ANGLE)
# Bound every hull stays below: the cap is convex, so a convex link inside it
# is no longer than its boundary circle.
LINK_TARGET_CEILING = TAU * math.sin(LINK_CAP_ANGLE)


def unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows divided by their norms (a norm of exactly 1.0 keeps the bits)."""
    v = np.asarray(v, dtype=float)
    return v / np.sqrt(dot3(v, v))[..., None]


def edge_frame(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sphere's one edge measurement: for the edge from each vertex v of
    a closed chain to the next, w, the rows w, v x w and v . w and the
    geodesic length atan2(|v x w|, v . w)."""
    nxt = roll_next(verts)
    cross = cross3(verts, nxt)
    dots = dot3(verts, nxt)
    return nxt, cross, dots, np.arctan2(np.sqrt(dot3(cross, cross)), dots)


def fan_area(verts: np.ndarray, nxt: np.ndarray, cross: np.ndarray, dots: np.ndarray) -> float:
    """Signed enclosed area from a triangle fan; independent of the turnings.

    ``nxt``, ``cross`` and ``dots`` are the :func:`edge_frame` of ``verts``.
    """
    apex = unit_rows(verts.sum(axis=0) / len(verts))     # np.mean, bit for bit
    triple = dot3(cross, apex)
    denom = 1.0 + verts @ apex + dots + nxt @ apex
    return float((2.0 * np.arctan2(triple, denom)).sum())


@dataclass(frozen=True, eq=False)
class SphericalPolygon(ArcPolygon):
    """Validated convex geodesic polygon, unit rows counterclockwise from outside; a cone's link."""

    turning: np.ndarray         # (n,) geodesic turning at each vertex
    area: float                 # signed triangle-fan area
    gauss_bonnet_residual: float

    def min_turning(self) -> float:
        return float(self.turning.min())

    def points_on_edges(self, idx: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The points at geodesic offsets ``u`` along edges ``idx``, as
        :meth:`~geometry.ArcPolygon.locate` gives them: the slerp between each
        edge's end vertices, at offset 0.0 the vertex's own bits.  Each edge's
        length and its sine are taken once, and the slerp runs on (3, n)
        columns: the result is their transpose, an F-ordered (n, 3) view."""
        vt = self.vertices.T
        a = vt.take(idx, axis=1)
        b = vt.take(idx + 1, axis=1, mode="wrap")
        theta = self.edge_ends() - self.cum_lengths
        st = np.sin(theta).take(idx)
        theta = theta.take(idx)
        out = np.sin(theta - u) * a
        b *= np.sin(u)
        out += b
        out /= st
        np.copyto(out, a, where=u == 0.0)
        return out.T


def _frame(verts: np.ndarray) -> tuple:
    """A pass of :func:`build_spherical_polygon`: edge lengths, turnings, the
    perimeter, and the edge frame the fan area reads (next vertices, v x w, v . w).
    Each edge's normal v x (w - v) equals v x w but is accurate to eps of
    itself however short the edge; a turning is the angle about v from the
    arriving edge's normal to the departing one's, and atan2 needs neither
    normalized."""
    nxt, cross, dots, lengths = edge_frame(verts)
    if (dots <= -1.0 + ANTIPODAL_DOT_EPS).any():
        raise AntipodalEdge("consecutive vertices are antipodal")
    perimeter = chain_perimeter(lengths)
    normal = cross3(verts, nxt - verts)
    arrive = roll_prev(normal)
    turning = np.arctan2(dot3(verts, cross3(arrive, normal)), dot3(arrive, normal))
    return lengths, turning, perimeter, nxt, cross, dots


def build_spherical_polygon(
    vertices, base_s: float = 0.0, *, collinear_eps: float = COLLINEAR_EPS
) -> SphericalPolygon:
    """Validate vertices and construct a :class:`SphericalPolygon`.

    Raises:
        NotOnSphere: a vertex norm is off unity by more than ``UNIT_NORM_TOL``.
        AntipodalEdge: consecutive vertices whose dot product is within
            ``ANTIPODAL_DOT_EPS`` of -1, an edge within about 1.4e-6 of pi.
        DegenerateEdge: an edge below the length floor
            (:func:`geometry.chain_perimeter`).
        NotConvexSpherical: negative turning, a Gauss-Bonnet residual above
            ``GAUSS_BONNET_TOL`` (a link that winds twice reads 2*pi), area
            outside (0, 2*pi), or perimeter not below 2*pi.
    """
    verts = chain_vertices(vertices, 3, "spherical")
    norms = np.sqrt(dot3(verts, verts))
    off = np.abs(norms - 1.0)
    if (off > UNIT_NORM_TOL).any():
        raise NotOnSphere(f"vertex norm off unity by {off.max():.3e}")
    verts, base_s, (lengths, turning, perimeter, nxt, cross, dots) = merge_to_corners(
        verts / norms[:, None], base_s, _frame, collinear_eps,
        NotConvexSpherical, "negative geodesic turning")
    if perimeter >= TAU:
        raise NotConvexSpherical(f"link perimeter {perimeter:.12f} is not below 2*pi")
    area = fan_area(verts, nxt, cross, dots)
    residual = abs(float(turning.sum()) + area - TAU)
    if residual > GAUSS_BONNET_TOL:
        raise NotConvexSpherical(f"Gauss-Bonnet residual {residual:.3e}")
    if not 0.0 < area < TAU:
        raise NotConvexSpherical(f"enclosed area {area:.12f} outside (0, 2*pi)")

    return SphericalPolygon.from_corners(verts, lengths, perimeter, base_s, turning=turning, area=area,
                                         gauss_bonnet_residual=residual)


def centroid_direction(poly: SphericalPolygon) -> np.ndarray:
    """Direction of the enclosed region's centroid (area-weighted).

    The surface integral of the position vector over the region equals half
    the boundary circulation of r x dr, which along geodesic edges is the
    edge length times the unit edge normal.  The circulation is of the order
    of the area, but its rounding of the order of the perimeter, so the
    floor is relative to the perimeter.
    """
    _, cross, _, lengths = edge_frame(poly.vertices)
    c = 0.5 * (lengths[:, None] * unit_rows(cross)).sum(axis=0)
    n = np.sqrt(c.dot(c))         # np.linalg.norm of a 1-D vector, bit for bit
    if n < CENTROID_NORM_FLOOR * poly.perimeter:
        raise NotConvexSpherical("degenerate centroid direction")
    return c / n


def rotate_polygon(poly: SphericalPolygon, rot: np.ndarray) -> SphericalPolygon:
    """Apply a 3x3 rotation, an isometry of the sphere: the rows are normalized
    as the builder stores them, and every other field carries over unrevalidated."""
    return replace(poly, vertices=unit_rows(poly.vertices @ np.asarray(rot).T))


def gnomonic(points: np.ndarray) -> np.ndarray:
    """Central projection of x0 > 0 points onto the plane x0 = 1."""
    points = np.asarray(points, dtype=float)
    return points[:, 1:] / points[:, :1]


def gnomonic_inverse(w: np.ndarray) -> np.ndarray:
    """Unit vectors (1, w) / |(1, w)| over gnomonic coordinates w, in any dimension."""
    w = np.asarray(w, dtype=float)
    scale = 1.0 / np.sqrt(1.0 + (w * w).sum(axis=1))
    out = np.empty((len(w), w.shape[1] + 1))
    out[:, 0] = scale
    out[:, 1:] = w * scale[:, None]
    return out


def _scaled_hull_perimeter(wh: np.ndarray):
    """Perimeter of ``gnomonic_inverse(lam * wh)`` as a function of ``lam``: for
    u = (1, lam*a), v = (1, lam*b), |u x v|^2 = lam^2 |b - a|^2 + lam^4 (a x b)^2
    and u.v = 1 + lam^2 a.b, whose norms cancel in atan2.  a x b is taken as
    a x (b - a), accurate however short the edge."""
    b = roll_next(wh)
    d = b - wh
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    c2 = (wh[:, 0] * d[:, 1] - wh[:, 1] * d[:, 0]) ** 2
    g = wh[:, 0] * b[:, 0] + wh[:, 1] * b[:, 1]

    def perimeter(lam: float) -> float:
        l2 = lam * lam
        return float(np.arctan2(lam * np.sqrt(d2 + l2 * c2), 1.0 + l2 * g).sum())

    return perimeter


def _cap_samples(rng: np.random.Generator, n: int, cap_angle: float) -> np.ndarray:
    """Uniform-area samples in the polar cap around +x0."""
    c = rng.uniform(math.cos(cap_angle), 1.0, size=n)
    phi = rng.uniform(0.0, TAU, size=n)
    s = np.sqrt(1.0 - c * c)
    out = np.empty((n, 3))
    out[:, 0] = c
    np.multiply(s, np.cos(phi), out=out[:, 1])
    np.multiply(s, np.sin(phi), out=out[:, 2])
    return out


def random_convex_link(
    rng: np.random.Generator,
    target_length: float,
    n_points: int = 24,
) -> SphericalPolygon:
    """Random convex spherical polygon with a prescribed perimeter.

    Takes the geodesic convex hull (via the gnomonic plane, from the
    lexicographically least gnomonic vertex) of random cap points, then
    contracts it toward the pole by scaling the gnomonic coordinates: the
    scale is solved in [``LINK_SCALE_FLOOR``, 1] on the hull's closed-form
    perimeter, skipping a hull that brackets no root there, and lifted once.
    The builder's own perimeter must match ``target_length`` to
    ``LINK_LENGTH_TOL``; raises ``LinkNotGenerated`` if no hull does within
    ``LINK_MAX_ATTEMPTS``, and ValueError at once unless target_length is a
    real number in (0, ``LINK_TARGET_CEILING``) and n_points an integer in
    [3, ``MAX_SAMPLES``]."""
    try:
        in_range = 0.0 < target_length < LINK_TARGET_CEILING
    except TypeError:       # no real number: a str, None
        in_range = False
    if not in_range:
        raise ValueError(f"target link length must be a real number in (0, LINK_TARGET_CEILING = "
                         f"{LINK_TARGET_CEILING!r}); got {target_length!r}")
    check_count(n_points, "n_points", 3, MAX_SAMPLES, high_name="MAX_SAMPLES")
    for _ in range(LINK_MAX_ATTEMPTS):
        pts = _cap_samples(rng, n_points, LINK_CAP_ANGLE)
        w = gnomonic(pts)
        wh = w[convex_hull_2d(w)]  # counterclockwise
        if len(wh) < 3:
            continue
        perimeter = _scaled_hull_perimeter(wh)
        longest = perimeter(1.0)
        if longest <= target_length * (1.0 + LINK_BRACKET_RTOL):
            continue
        shortest = perimeter(LINK_SCALE_FLOOR)
        if shortest > target_length:
            continue
        lam = brent_root(lambda t: perimeter(t) - target_length, LINK_SCALE_FLOOR, 1.0,
                         shortest - target_length, longest - target_length)
        verts = gnomonic_inverse(lam * wh)
        try:
            poly = build_spherical_polygon(verts)
        except (NotConvexSpherical, DegenerateEdge, AntipodalEdge):
            continue
        if abs(poly.perimeter - target_length) > LINK_LENGTH_TOL:
            continue
        return poly.with_base(rng.uniform(0.0, poly.perimeter))
    raise LinkNotGenerated(
        f"could not generate a convex link of length {target_length} "
        f"after {LINK_MAX_ATTEMPTS} attempts"
    )
