"""Closed convex polygonal curves with arc-length parametrization.

A :class:`PlanarPolygon` is a simple closed convex counterclockwise polygon
together with a marked base point given as an arc-length position.  All
curve queries (``locate``, ``points_at`` and the scalar ``point_at``)
measure arc length counterclockwise from the base point; the base point
itself may sit in the interior of an edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateEdge, NotConvex, NotSimple, WrongOrientation
from .geometry import (
    TAU,
    ArcPolygon,
    Vec2,
    chain_chords,
    chain_perimeter,
    chain_vertices,
    merge_to_corners,
    reduce_mod,
    roll_next,
    roll_prev,
    short_edges,
    turns,
)
from .tolerances import (
    CERTIFICATE_TOL,
    COLLINEAR_EPS,
    DILATION_TURN_FACTOR,
    TOTAL_TURN_TOL,
)

# Largest accepted vertex coordinate magnitude: a combination sums two
# curves, and its squared chord lengths (bending_check) must stay finite.
MAX_COORDINATE = 1e150


def signed_area(vertices: np.ndarray) -> float:
    """Signed area of a closed vertex chain (positive = counterclockwise)."""
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float((x * roll_next(y) - roll_next(x) * y).sum())


@dataclass(frozen=True, eq=False)
class PlanarPolygon(ArcPolygon):
    """Validated convex polygon, counterclockwise.  Build with :func:`build_polygon`."""

    edge_dirs: np.ndarray = field(repr=False)  # (n,) direction angles
    exterior_angles: np.ndarray = field(repr=False)  # (n,) turn at each vertex, turns(edge_dirs)

    def points_on_edges(self, idx: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The points at offsets ``u`` along edges ``idx``, as :meth:`~geometry.ArcPolygon.locate`
        gives them; at offset 0.0 the vertex's own bits."""
        d = self.edge_dirs
        step = np.empty((len(d), 2))
        np.cos(d, out=step[:, 0])
        np.sin(d, out=step[:, 1])
        v = self.vertices.take(idx, axis=0)
        out = step.take(idx, axis=0)
        out *= u[:, None]
        out += v
        # adding a 0.0 step keeps every coordinate but a -0.0, which turns +0.0;
        # the masked copy doubles the cost, so it runs only where a zero can be
        if (self.vertices == 0.0).any():
            np.copyto(out, v, where=(u == 0.0)[:, None])
        return out


def _check_coordinates(verts: np.ndarray) -> float:
    """The largest coordinate magnitude, in one scan; ValueError unless every
    coordinate is finite (else the largest is not) and within ``MAX_COORDINATE``."""
    largest = float(np.abs(verts).max())
    if not math.isfinite(largest):
        raise ValueError("vertices must be finite")
    if largest > MAX_COORDINATE:
        raise ValueError(f"vertex coordinates must not exceed MAX_COORDINATE = {MAX_COORDINATE:g}")
    return largest


def _frame(verts: np.ndarray) -> tuple:
    """A pass of :func:`build_polygon`, the one planar chain check: edge
    lengths, exterior angles, the perimeter and the edge directions;
    DegenerateEdge below the length floor (:func:`geometry.chain_perimeter`),
    WrongOrientation for a clockwise chain, NotConvex for zero area."""
    _, lengths, dirs = chain_chords(verts)
    perimeter = chain_perimeter(lengths)
    area = signed_area(verts)
    if area < 0.0:
        raise WrongOrientation("vertices are clockwise; expected counterclockwise")
    if area == 0.0:
        raise NotConvex("polygon has zero area")
    return lengths, turns(dirs), perimeter, dirs


def build_polygon(vertices, base_s: float = 0.0, *, collinear_eps: float = COLLINEAR_EPS) -> PlanarPolygon:
    """Validate a vertex chain and construct a :class:`PlanarPolygon`.

    Vertices must be counterclockwise and in convex position.  Vertices
    whose exterior angle is at most ``collinear_eps`` are merged away, so
    every stored vertex is a genuine corner.

    Raises:
        ValueError: a coordinate above ``MAX_COORDINATE`` in magnitude.
        DegenerateEdge: an edge below the length floor (:func:`geometry.short_edges`).
        WrongOrientation: clockwise input.
        NotConvex: reflex vertex, zero area, or a full reversal.
        NotSimple: locally convex chain winding more than once.
    """
    verts = chain_vertices(vertices, 2, "planar")
    _check_coordinates(verts)
    verts, base_s, (lengths, ext, perimeter, dirs) = merge_to_corners(
        verts, base_s, _frame, collinear_eps, NotConvex, "reflex vertex: min exterior angle")
    total_turn = float(ext.sum())
    if abs(total_turn - TAU) > TOTAL_TURN_TOL:
        raise NotSimple(f"total turning {total_turn:.12f} != 2*pi; chain is not simple")
    return PlanarPolygon.from_corners(verts, lengths, perimeter, base_s, edge_dirs=dirs, exterior_angles=ext)


def point_at(poly: PlanarPolygon, s: float) -> Vec2:
    """Point at arc length ``s`` from the marked point (s reduced mod
    perimeter): :meth:`~geometry.ArcPolygon.points_at` at one position."""
    return Vec2(*poly.points_at([s])[0].tolist())


@dataclass(frozen=True, eq=False)
class ConvexityCertificate:
    """Numerical convexity witness for a closed vertex chain."""

    interior_angles: np.ndarray
    exterior_sum: float
    min_exterior: float
    is_convex: bool
    tolerance: float

    def summary(self) -> dict:
        """The scalar fields, an undefined (NaN) one as None: JSON null."""
        return {
            "exterior_sum": _defined(self.exterior_sum),
            "min_exterior": _defined(self.min_exterior),
            "is_convex": bool(self.is_convex),
            "tolerance": _defined(self.tolerance),
        }


def _defined(x: float) -> float | None:
    return None if math.isnan(x) else x


# the certificate of a combined curve too degenerate to measure: no value is defined
FAILED_CERTIFICATE = ConvexityCertificate(np.empty(0), math.nan, math.nan, False, math.nan)


def convexity_certificate(vertices) -> ConvexityCertificate:
    """Certify (never enforce) convexity of a closed chain.

    Reports interior angles, the exterior-angle sum and minimum, and an
    ``is_convex`` verdict at ``CERTIFICATE_TOL``.  Non-convex input is a
    valid query; a vertex that is not finite raises ValueError, and only
    consecutive vertices within the length floor raise DegenerateEdge.
    """
    return _certify_chain(chain_vertices(vertices, 2, "planar"))


def _certify_chain(verts: np.ndarray, ext: np.ndarray | None = None) -> ConvexityCertificate:
    """:func:`convexity_certificate` of an (n >= 3, 2) chain, unchecked for finiteness;
    given its turns ``ext``, its edges are taken to clear the length floor."""
    if ext is None:
        _, lengths, dirs = chain_chords(verts)
        chain_perimeter(lengths)
        ext = turns(dirs)
    exterior_sum = float(ext.sum())
    min_exterior = float(ext.min())
    simple_ok = signed_area(verts) > 0.0 and abs(exterior_sum - TAU) <= CERTIFICATE_TOL
    is_convex = simple_ok and min_exterior >= -CERTIFICATE_TOL
    return ConvexityCertificate(
        interior_angles=math.pi - ext,
        exterior_sum=exterior_sum,
        min_exterior=min_exterior,
        is_convex=is_convex,
        tolerance=CERTIFICATE_TOL,
    )


def _dedup_closed(points: np.ndarray) -> np.ndarray:
    """Drop each point (wrapping around) whose edge from the point before it
    is below the certificate's length floor (:func:`geometry.short_edges`),
    so a run of near-duplicates keeps its first point."""
    seg = chain_chords(points)[1]
    total = float(seg.sum())
    if total == 0.0:
        return points[:1]
    # row i is kept when the edge arriving from row i - 1 is not short
    return points[roll_prev(~short_edges(seg, total))]


def chain_certificate(curve: np.ndarray, lengths: np.ndarray, ext: np.ndarray) -> ConvexityCertificate:
    """The certificate of a closed chain of finite points from its chord
    ``lengths`` (:func:`geometry.chain_chords`) and the turns ``ext`` of its
    chord directions (:func:`geometry.turns`) when no chord is short; else of
    the chain without the points short chords end at (:func:`_dedup_closed`),
    or ``FAILED_CERTIFICATE`` if that is degenerate."""
    total = float(lengths.sum())
    if len(curve) >= 3 and total != 0.0 and not short_edges(lengths, total).any():
        return _certify_chain(curve, ext)
    pts = _dedup_closed(curve)
    if len(pts) < 3:
        return FAILED_CERTIFICATE
    try:
        return _certify_chain(pts)
    except DegenerateEdge:
        return FAILED_CERTIFICATE


def dilate_to_perimeter(poly: PlanarPolygon, target: float, center) -> PlanarPolygon:
    """Homothety about ``center`` scaling the perimeter to ``target``.

    A positive homothety is a similarity, so the edge directions and the
    exterior angles carry over from ``poly``, and the arc lengths, the
    perimeter and the base point scale by the ratio; only the vertices are
    computed, and nothing is rebuilt.  The carried fields are those of the
    exact image; the vertices differ from it by the rounding of ``center +
    ratio * (v - center)``, at most e = 2 eps (|center| + |w|) per
    coordinate of a dilated vertex w.  So an edge's chord direction is
    within 3 e / L of the carried one, and a turn within 6 e / L, for the
    shortest dilated edge L.  The checks that rounding can break are made
    again on the dilated vertices; a centre so far from the polygon that
    the turns' bound reaches half the least exterior angle
    (``DILATION_TURN_FACTOR``) may bend the chain, which is then rebuilt
    from its vertices (:func:`build_polygon`).

    Raises:
        ValueError: a target that is not positive and finite, a ``center``
            that is not 2 finite coordinates, or a dilated coordinate that
            is not finite or exceeds ``MAX_COORDINATE``.
        DegenerateEdge: an edge below the length floor, as an underflow can
            leave it.
        WrongOrientation: a clockwise dilated chain.
        NotConvex: zero area, as an underflow can leave it, or a rebuilt
            chain that is not convex.
        NotSimple: a rebuilt chain that winds more than once.
    """
    if not (math.isfinite(target) and target > 0.0):
        raise ValueError(f"target perimeter must be positive and finite; got {target!r}")
    try:
        c = np.asarray(center, dtype=float)
    except (TypeError, ValueError, OverflowError):
        c = None
    if c is None or c.shape != (2,) or not all(map(math.isfinite, c.tolist())):
        raise ValueError(f"center must be 2 finite coordinates; got {center!r}")
    ratio = target / poly.perimeter
    verts = c + ratio * (poly.vertices - c)
    scale = float(np.abs(c).max()) + _check_coordinates(verts)
    lengths = _frame(verts)[0]
    if DILATION_TURN_FACTOR * scale >= lengths.min() * poly.exterior_angles.min():
        return build_polygon(verts, base_s=poly.base_s * ratio)
    perimeter = poly.perimeter * ratio
    return replace(
        poly,
        vertices=verts,
        cum_lengths=poly.cum_lengths * ratio,
        perimeter=perimeter,
        base_s=reduce_mod(poly.base_s * ratio, perimeter),
    )
