"""Convex cones in 3-space, the pairwise Pogorelov transform, and digons.

A convex cone with apex at the origin is encoded by its link, the convex
spherical polygon cut out on the unit sphere.  Two cones of equal link
length are intrinsically isometric, corresponding by link arc length.  The
pairwise transform sends a corresponding pair of spherical points to the
plane by projecting out the x0 coordinate and dividing by the summed
heights; it maps a pair of convex spherical curves to a pair of convex,
mutually isometric planar curves, which reduces cone positioning to the
planar alignment problem restricted to rotations about the x0-axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AntipodalCorrespondence,
    AntipodalEdge,
    DegenerateEdge,
    NonPositiveHeight,
    NotConvex,
    NotConvexPlanar,
    NotConvexSpherical,
    NotSimple,
    PositioningNotFound,
    TruncationTooDeep,
)
from .geometry import (
    E0,
    Angle,
    alignment_margins,
    brent_root,
    chord_directions,
    common_perimeter,
    cross3,
    dot3,
    merged_vertex_positions,
    norm_angle,
    roll_next,
    rotate_about_x0_many,
    rotation_matrix_from_to,
    turns,
    unwrap_turns,
)
from .planar import PlanarPolygon, build_polygon
from .spherical import (
    SphericalPolygon,
    build_spherical_polygon,
    centroid_direction,
    gnomonic_inverse,
    rotate_polygon,
    sph_points_at,
    unit_rows,
)
from .tolerances import (
    ANTIPODAL_EPS,
    DIGON_DEPTH_FLOOR,
    DIGON_DEPTH_MARGIN,
    DIGON_EDGE_FLOOR,
    DIGON_PERIMETER_RTOL,
    HEIGHT_EPS,
    IMAGE_COLLINEAR_EPS,
    MARGIN_EPS,
)


@dataclass(frozen=True, eq=False)
class ConvexCone3:
    """Cone {t * r(s) : t >= 0} over a convex spherical link."""

    link: SphericalPolygon


def cone_from_link(link: SphericalPolygon) -> ConvexCone3:
    """Wrap a validated link; cones of equal link perimeter are isometric."""
    return ConvexCone3(link)


# -- pairwise Pogorelov transform ------------------------------------------------

def pogorelov_forward(r1, r2):
    """Planar image pair (rbar1, rbar2) / (x0_1 + x0_2) of two unit vectors,
    or of two (n, 3) arrays of them row by row.

    Raises:
        NonPositiveHeight: if a height x0 is at or below ``HEIGHT_EPS``.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    if not (np.min(r1[..., 0]) > HEIGHT_EPS and np.min(r2[..., 0]) > HEIGHT_EPS):  # NaN fails too
        raise NonPositiveHeight("a sampled point has x0 at or below the height floor")
    denom = (r1[..., 0] + r2[..., 0])[..., None]
    return r1[..., 1:] / denom, r2[..., 1:] / denom


def pogorelov_identity_check(r1, r2) -> float:
    """Max componentwise spread of three routes to the combined direction.

    Compares (a) the inverse transform of the summed forward images,
    (b) the closed form (rbar1 + rbar2, x0_1 + x0_2) / sqrt(2 (1 + <r1, r2>)),
    and (c) the normalized sum of the inputs.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    w1, w2 = pogorelov_forward(r1, r2)
    a = gnomonic_inverse((w1 + w2)[None])[0]
    s = r1 + r2
    b = s / math.sqrt(2.0 * (1.0 + float(r1 @ r2)))
    c = s / np.linalg.norm(s)
    return float(
        max(np.max(np.abs(a - b)), np.max(np.abs(b - c)), np.max(np.abs(a - c)))
    )


MAX_SAMPLES = 2**20    # most positions a link is sampled at in one call, far above any grid in use


def _refine(positions: np.ndarray, period: float, max_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Subdivide each gap (including the wraparound) to at most max_step,
    and give the row where each gap starts, which holds its start exactly.

    A gap of width w from a is cut into k = max(1, ceil(w / max_step))
    pieces at a + w * j / k, j = 0..k-1.  An infinite step cuts nothing;
    one asking for more than ``MAX_SAMPLES`` pieces raises ValueError.
    """
    if max_step == math.inf:
        return positions, np.arange(len(positions))
    gaps = np.append(positions[1:], period) - positions
    counts = np.maximum(1.0, np.ceil(gaps / max_step))   # floats: no cast overflows
    if counts.sum() > MAX_SAMPLES:
        raise ValueError(f"max_step {max_step!r} asks for more than MAX_SAMPLES = {MAX_SAMPLES} samples")
    counts = counts.astype(np.int64)
    firsts = np.cumsum(counts) - counts
    k = np.repeat(counts, counts)
    j = np.arange(len(k)) - np.repeat(firsts, counts)
    return np.repeat(positions, counts) + np.repeat(gaps, counts) * j / k, firsts


@dataclass(frozen=True, eq=False)
class PogorelovImage:
    """Planar image samples of two corresponded spherical curves."""

    events: np.ndarray          # (e,) merged vertex positions the samples refine
    positions: np.ndarray       # (m,) arc positions sampled
    x0_sums: np.ndarray         # (m,) height denominators per sample
    projections: np.ndarray     # (m, 2, 2) raw (x1, x2) projections of r1, r2
    image1: np.ndarray          # (m, 2) transformed samples of M1
    image2: np.ndarray          # (m, 2) transformed samples of M2


def _sample_links(L1: SphericalPolygon, L2: SphericalPolygon, max_step: float,
                  include_vertices: bool = True, midpoints: bool = False) -> tuple[np.ndarray, ...]:
    """Both links evaluated once: the events (their merged vertex positions,
    or the base point alone), the positions (the events refined by
    :func:`_refine`, then with ``midpoints`` the midpoint of each gap after
    an event), each event's row among them, and each link's points there.

    Raises:
        ValueError: ``max_step`` is not positive (NaN included) or too small.
        PerimeterMismatch
    """
    if not max_step > 0.0:
        raise ValueError(f"max_step must be positive, got {max_step!r}")
    p = common_perimeter(L1, L2)
    events = merged_vertex_positions(L1, L2)[0] if include_vertices else np.zeros(1)
    at, firsts = _refine(events, p, max_step)
    if midpoints:
        at = np.concatenate([at, 0.5 * (events + np.append(events[1:], p))])
    return events, at, firsts, sph_points_at(L1, at), sph_points_at(L2, at)


def transform_link_pair(
    M1: SphericalPolygon,
    M2: SphericalPolygon,
    max_step: float = math.inf,
    include_vertices: bool = True,
) -> PogorelovImage:
    """Map an equal-length spherical pair to the plane at its merged events.

    The correspondence is by arc length from the base points.  Between two
    merged vertex positions both links are geodesic arcs in one parameter t,
    and the image (a' + tan(t) b') / (A + tan(t) B) is a central projection
    of a line: straight, so the events are the image vertices.  A finite
    ``max_step`` refines the events to gaps of at most it (collinear
    samples); resolution studies pass ``include_vertices=False`` to refine
    the base point alone, a uniform grid whose segments straddle the corners.

    Raises:
        PerimeterMismatch, NonPositiveHeight,
        ValueError: ``max_step`` is not positive (NaN included) or asks
            for more than ``MAX_SAMPLES`` samples.
    """
    events, positions, _, r1, r2 = _sample_links(M1, M2, max_step, include_vertices)
    w1, w2 = pogorelov_forward(r1, r2)
    return PogorelovImage(
        events=events,
        positions=positions,
        x0_sums=r1[:, 0] + r2[:, 0],
        projections=np.stack([r1[:, 1:], r2[:, 1:]], axis=1),
        image1=w1,
        image2=w2,
    )


def image_polygons(image: PogorelovImage) -> tuple[PlanarPolygon, PlanarPolygon]:
    """Both image sample loops built as validated convex planar polygons.

    Raises:
        NotConvexPlanar: an image fails convex validation.
    """
    try:
        return tuple(build_polygon(w, base_s=0.0, collinear_eps=IMAGE_COLLINEAR_EPS)
                     for w in (image.image1, image.image2))
    except (NotConvex, NotSimple, DegenerateEdge) as exc:
        raise NotConvexPlanar(
            f"transformed image failed convex validation ({exc}); "
            "resolution too coarse or invalid input"
        ) from exc


def segment_mismatch(image: PogorelovImage) -> float:
    """Max difference of corresponding image chord lengths (isometry defect)."""
    d1 = roll_next(image.image1) - image.image1
    d2 = roll_next(image.image2) - image.image2
    return float(np.max(np.abs(np.hypot(d1[:, 0], d1[:, 1]) - np.hypot(d2[:, 0], d2[:, 1]))))


# -- cone combination --------------------------------------------------------------

def _combined_cone(r1: np.ndarray, r2: np.ndarray, at: np.ndarray) -> ConvexCone3:
    """The cone over normalized r1 + r2, given both links' points at the m
    merged events and then at the m midpoints between them (``at``)."""
    sums = r1 + r2
    norms = np.sqrt(dot3(sums, sums))
    if norms.min() < ANTIPODAL_EPS:
        raise AntipodalCorrespondence(
            f"|r1 + r2| = {norms.min():.3e} at arc {at[int(np.argmin(norms))]!r}"
        )
    m = len(at) // 2
    if m < 3:
        raise DegenerateEdge(f"only {m} correspondence breakpoints survive the merge")
    link = build_spherical_polygon(
        sums[:m] / norms[:m, None], base_s=0.0, collinear_eps=IMAGE_COLLINEAR_EPS
    )
    return ConvexCone3(link)


def combine_cones(K1: ConvexCone3, K2: ConvexCone3) -> ConvexCone3:
    """Isometric combination: the cone over normalized r1(s) + r2(s).

    Between correspondence events the summed generators stay in a fixed
    plane through the origin, so the combined link is again a geodesic
    polygon with vertices exactly at the merged breakpoints, and the
    midpoints between them are checked for antipodal sums.  Merges the
    links and evaluates both once; :func:`position_and_combine` builds its
    candidates through the same private helper from points it already has.

    Raises:
        PerimeterMismatch, AntipodalCorrespondence, NotConvexSpherical,
        DegenerateEdge: fewer than 3 breakpoints survive the merge
    """
    _, at, _, r1, r2 = _sample_links(K1.link, K2.link, math.inf, midpoints=True)
    return _combined_cone(r1, r2, at)


# -- positioning pipeline -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PositioningReport:
    """Outcome of the cone positioning search."""

    psi: Angle                  # rotation of the first cone about the x0-axis
    sigma0: float               # arc position whose image tangents were matched
    margin: Angle               # planar semitangent margin of the candidate
    combined: ConvexCone3
    cone1: ConvexCone3          # centroid-normalized, rotated by psi
    cone2: ConvexCone3          # centroid-normalized
    candidates_tried: int


def normalize_cone(K: ConvexCone3) -> ConvexCone3:
    """Rotate a cone so its link's centroid direction is the +x0 axis."""
    rot = rotation_matrix_from_to(centroid_direction(K.link), E0)
    return ConvexCone3(rotate_polygon(K.link, rot))


def position_and_combine(
    K1: ConvexCone3,
    K2: ConvexCone3,
    max_step: float = math.inf,
) -> PositioningReport:
    """Rotate K1 about the x0-axis until the combination certifies convex.

    Pipeline: centroid-normalize both cones; merge their links' vertex
    positions once, refine the events to gaps of at most ``max_step``, and
    evaluate each link once, at the refined positions and the midpoints
    between events (the sampler :func:`transform_link_pair` and
    :func:`combine_cones` share); map the rows at the
    positions to the plane, the search image; enumerate candidate rotations
    from tangent matching at each sample (rotating the first cone about x0
    rotates its image rigidly and leaves the height sums untouched); keep
    candidates whose planar semitangent margin is positive, in increasing
    arc order; accept the first whose combined link passes the spherical
    convexity and Gauss-Bonnet certificate.  A rotation about x0 commutes
    with evaluation and keeps every arc position, so a candidate's combined
    link is the first link's rows at the events and midpoints turned by psi
    plus the second's, the rows :func:`combine_cones` would evaluate on the
    rotated pair, and the rotated first link is built for the accepted one.

    Each image's chord directions unwrap as the plane's pieces do
    (:func:`geometry.unwrap_turns` of :func:`geometry.turns`, so a chord
    reversal steps by +pi).  Every margin comes from
    :func:`geometry.alignment_margins`: the gap
    between the unwrapped chord directions of the two images is periodic,
    so a candidate's worst gap is its real difference from the largest or
    the smallest gap, found in O(m) time and memory, and a candidate whose
    gap swings through pi is rejected.  The image of the positioned pair at
    the same ``max_step`` is the search image with ``image1`` rotated by psi.

    Raises:
        ValueError: ``max_step`` is not positive (NaN included) or asks
            for more than ``MAX_SAMPLES`` samples.
        NonPositiveHeight: a sampled point is at or below the height floor.
        PositioningNotFound: if no candidate certifies, or fewer than 3
            merged breakpoints leave none to try.
    """
    C1 = normalize_cone(K1)
    C2 = normalize_cone(K2)
    events, at, firsts, r1, r2 = _sample_links(C1.link, C2.link, max_step, midpoints=True)
    m = len(events)
    n = len(at) - m
    # the image samples drive the candidate search; image convexity is not
    # required because every candidate is certified on the sphere
    w1, w2 = pogorelov_forward(r1[:n], r2[:n])
    # a rotation about x0 keeps arc positions, so the events are every
    # candidate's merge, and too few of them fail them all
    if m < 3:
        raise PositioningNotFound(f"only {m} correspondence breakpoints survive the merge")
    # each candidate reads the rows at the checks: the first sample of each
    # gap, which is its event, then the midpoints
    rows = np.concatenate([firsts, np.arange(n, n + m)])
    checks, r1, r2 = at[rows], r1[rows], r2[rows]
    th1, th2 = (unwrap_turns(p[0], turns(p)) for p in map(chord_directions, (w1, w2)))
    margins = alignment_margins(th1 - th2)

    tried = 0
    for j in np.nonzero(margins > MARGIN_EPS)[0]:
        tried += 1
        psi = norm_angle(float(th2[j] - th1[j]))
        try:
            combined = _combined_cone(rotate_about_x0_many(psi, r1), r2, checks)
        except (NotConvexSpherical, AntipodalCorrespondence, DegenerateEdge, AntipodalEdge):
            continue
        turned = unit_rows(rotate_about_x0_many(psi, C1.link.vertices))
        return PositioningReport(
            psi=psi,
            sigma0=float(at[j]),
            margin=float(margins[j]),
            combined=combined,
            cone1=ConvexCone3(replace(C1.link, vertices=turned)),
            cone2=C2,
            candidates_tried=tried,
        )
    raise PositioningNotFound(
        f"no certified candidate among {tried} with margin > {MARGIN_EPS} "
        f"(best margin {margins.max():.3e})"
    )


# -- digons and dihedral angles ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Digon:
    """Spherical lune stored symbolically by its opening angle.

    The standard digon has vertices at (0, 0, +-1) and edges in the half
    planes at azimuth +-angle/2 around the +x0 direction, so digons of
    increasing angle are nested around the x0-axis.  No placement is kept:
    positioning turns each centroid to +x0 and searches rotations about x0,
    so a rotated digon would move only the rotation ``psi`` found.
    """

    angle: float


def make_digon(angle: float) -> Digon:
    """Digon of the given dihedral angle; the angle must lie strictly in (0, pi).

    Raises:
        ValueError: the angle is out of range.
    """
    if not 0.0 < angle < math.pi:
        raise ValueError(f"digon angle must lie strictly in (0, pi); got {angle!r}")
    return Digon(float(angle))


def _digon_quadrilateral(digon: Digon, eps: float) -> SphericalPolygon:
    """Quadrilateral obtained by cutting both digon vertices at depth eps."""
    if not 0.0 < eps < math.pi / 2:
        raise TruncationTooDeep(f"cut depth {eps!r} outside (0, pi/2)")
    half = digon.angle / 2.0
    north = np.array([0.0, 0.0, 1.0])
    ea = np.array([math.cos(half), math.sin(half), 0.0])
    eb = np.array([math.cos(half), -math.sin(half), 0.0])
    ce, se = math.cos(eps), math.sin(eps)
    a1 = ce * north + se * ea
    a2 = -ce * north + se * ea
    b1 = ce * north + se * eb
    b2 = -ce * north + se * eb
    try:
        return build_spherical_polygon(np.stack([a2, a1, b1, b2]))
    except (NotConvexSpherical, DegenerateEdge, AntipodalEdge) as exc:
        raise TruncationTooDeep(
            f"cut depth {eps!r} leaves no valid quadrilateral of the digon of angle "
            f"{digon.angle!r}: {exc}"
        ) from exc


def truncate_digons(
    digon1: Digon, digon2: Digon, eps: float
) -> tuple[SphericalPolygon, SphericalPolygon, float]:
    """Cut both digons into spherical quadrilaterals of equal perimeter.

    The first digon is cut at depth ``eps``; the second's cut depth ``e2``
    is solved by Brent's method so the perimeters match to
    ``DIGON_PERIMETER_RTOL`` relative.
    Returns ``(q1, q2, e2)``.

    Raises:
        TruncationTooDeep: eps outside (0, pi/4), a cut that leaves no valid
            quadrilateral (a thin digon's edges too short), or no matching
            depth exists.
    """
    if not 0.0 < eps < math.pi / 4:
        raise TruncationTooDeep(f"cut depth {eps!r} outside (0, pi/4)")
    q1 = _digon_quadrilateral(digon1, eps)
    target = q1.perimeter

    def f(e2: float) -> float:
        return _digon_quadrilateral(digon2, e2).perimeter - target

    # the perimeter is strictly decreasing in the cut depth, from ~2*pi at
    # depth 0 down to ~twice the digon angle near pi/2; the shortest edge at
    # depth lo, ~2 lo sin(angle/2) >= 2 DIGON_EDGE_FLOOR, clears the
    # LENGTH_EPS_FACTOR * perimeter floor
    lo = max(DIGON_DEPTH_FLOOR, DIGON_EDGE_FLOOR / math.sin(digon2.angle / 2.0))
    hi = math.pi / 2 - DIGON_DEPTH_MARGIN
    try:
        f_lo, f_hi = f(lo), f(hi)
    except TruncationTooDeep as exc:
        # a bracket end is an internal depth: name the one the caller gave
        raise TruncationTooDeep(
            f"no cut depth of the second digon matches the first digon's cut depth {eps!r}"
        ) from exc
    if f_lo * f_hi > 0.0:
        raise TruncationTooDeep(
            f"no cut depth of the second digon matches perimeter {target!r}"
        )
    e2 = brent_root(f, lo, hi)
    q2 = _digon_quadrilateral(digon2, e2)
    if abs(q2.perimeter - target) > DIGON_PERIMETER_RTOL * target:
        raise TruncationTooDeep("perimeter equalization did not converge")
    return q1, q2, e2


def link_hausdorff(a: SphericalPolygon, b: SphericalPolygon, n: int = 1024) -> float:
    """Symmetric geodesic Hausdorff distance between two links (sampled).

    Each direction takes the largest distance, over ``n`` points at equal arc
    length on one link and its vertices, to the other link's boundary, the
    least distance to its k geodesic edges: O((n + vertices) * k) time, in
    blocks of points that hold at most ``MAX_SAMPLES`` distances each.  For
    an edge (v, w) with unit normal nrm = unit(v x w), a point is p = x v +
    y t + h nrm in the frame t = nrm x v.  The foot of its
    perpendicular, q = x v + y t, lies on the edge when y >= 0 and
    p . (w x nrm) >= 0, and the distance is then atan2(|h|, |q|); off the
    edge the nearest point is an end.  Each edge scores its start v,
    atan2(|p x v|, p . v) with |p x v| = hypot(y, h): its end w is the next
    edge's start, and that edge scores no more than w's distance.  Every
    angle is an atan2, so identical links read 0 to rounding.  The distance to a
    fixed set is 1-Lipschitz along a link, so the sampled value is at most
    ``perimeter / (2 n)`` below the exact one, and never above it.  An
    ``n`` below 1 or above ``MAX_SAMPLES`` raises ValueError.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    if n > MAX_SAMPLES:
        raise ValueError(f"n must be at most MAX_SAMPLES = {MAX_SAMPLES}, got {n!r}")

    def farthest(src: SphericalPolygon, dst: SphericalPolygon) -> float:
        points = np.concatenate([sph_points_at(src, np.arange(n) * (src.perimeter / n)), src.vertices])
        v = dst.vertices
        w = roll_next(v)
        nrm = unit_rows(cross3(v, w))
        ahead, along = cross3(w, nrm).T, cross3(nrm, v).T

        def nearest(p: np.ndarray) -> np.ndarray:
            # three (points, edges) float arrays at most: the distances are
            # written over the frame coordinates in place
            off = p @ ahead < 0.0
            h = np.abs(p @ nrm.T)
            y = p @ along
            off |= y < 0.0
            x = p @ v.T
            np.hypot(y, h, out=h, where=off)
            np.hypot(x, y, out=x, where=~off)
            return np.arctan2(h, x, out=h).min(axis=1)

        # blocks of points with at most MAX_SAMPLES (point, edge) entries each
        rows = max(1, MAX_SAMPLES // len(v))
        blocks = range(0, len(points), rows)
        return float(np.concatenate([nearest(points[i:i + rows]) for i in blocks]).max())

    return max(farthest(a, b), farthest(b, a))


@dataclass(frozen=True, eq=False)
class DigonLevel:
    """One rung of the digon truncation ladder."""

    eps1: float
    eps2: float
    perimeter: float
    psi: Angle
    sigma0: float
    margin: Angle
    min_turning: float
    gauss_bonnet_residual: float
    combined_link: SphericalPolygon


@dataclass(frozen=True, eq=False)
class DigonCombinationReport:
    levels: list[DigonLevel]
    hausdorff: list[float]      # distances between successive combined links


def combine_dihedral(digon1: Digon, digon2: Digon, eps_ladder) -> DigonCombinationReport:
    """Truncate, position, and combine along a decreasing ladder of cut depths;
    a failing rung's error names its depth."""
    eps_ladder = [float(e) for e in eps_ladder]
    if not eps_ladder or any(e <= 0 for e in eps_ladder):
        raise ValueError("eps ladder must be positive")
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    levels = []
    for eps in eps_ladder:
        q1, q2, e2 = truncate_digons(digon1, digon2, eps)
        try:
            report = position_and_combine(cone_from_link(q1), cone_from_link(q2))
        except (NonPositiveHeight, PositioningNotFound) as exc:
            raise type(exc)(f"cut depth {eps!r}: {exc}") from exc
        link = report.combined.link
        levels.append(
            DigonLevel(
                eps1=eps,
                eps2=e2,
                perimeter=q1.perimeter,
                psi=report.psi,
                sigma0=report.sigma0,
                margin=report.margin,
                min_turning=link.min_turning(),
                gauss_bonnet_residual=link.gauss_bonnet_residual,
                combined_link=link,
            )
        )
    hausdorff = [
        link_hausdorff(a.combined_link, b.combined_link)
        for a, b in zip(levels, levels[1:])
    ]
    return DigonCombinationReport(levels=levels, hausdorff=hausdorff)
