"""Closed convex polygonal curves with arc-length parametrization.

A :class:`PlanarPolygon` is a simple closed convex counterclockwise polygon
together with a marked base point given as an arc-length position.  All
curve queries (``point_at``, ``locate``) measure arc length
counterclockwise from the base point; the base point itself may sit in the
interior of an edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateEdge,
    NotConvex,
    NotSimple,
    WrongOrientation,
)
from .geometry import (
    TAU,
    ArcPolygon,
    Vec2,
    merge_collinear,
    reduce_mod,
    roll_next,
    turns,
)
from .tolerances import CERTIFICATE_TOL, COLLINEAR_EPS, LENGTH_EPS_FACTOR, TOTAL_TURN_TOL

# Largest accepted vertex coordinate magnitude: a combination sums two
# curves, and its squared chord lengths (bending_check) must stay finite.
MAX_COORDINATE = 1e150


def signed_area(vertices: np.ndarray) -> float:
    """Signed area of a closed vertex chain (positive = counterclockwise)."""
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.sum(x * roll_next(y) - roll_next(x) * y))


def _edge_angles(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge lengths and direction angles; edge i runs v[i] -> v[i+1]."""
    diffs = roll_next(vertices) - vertices
    return np.hypot(diffs[:, 0], diffs[:, 1]), np.arctan2(diffs[:, 1], diffs[:, 0])


@dataclass(frozen=True, eq=False)
class PlanarPolygon(ArcPolygon):
    """Validated convex polygon.  Build with :func:`build_polygon`."""

    vertices: np.ndarray          # (n, 2), counterclockwise
    cum_lengths: np.ndarray       # (n,), arc length at each vertex, [0]=0
    perimeter: float
    base_s: float                 # arc position of the marked point, in [0, perimeter)
    edge_dirs: np.ndarray = field(repr=False)  # (n,) direction angles
    exterior_angles: np.ndarray = field(repr=False)  # (n,) turn at each vertex, turns(edge_dirs)


def build_polygon(vertices, base_s: float = 0.0, *, collinear_eps: float = COLLINEAR_EPS) -> PlanarPolygon:
    """Validate a vertex chain and construct a :class:`PlanarPolygon`.

    Vertices must be counterclockwise and in convex position.  Vertices
    whose exterior angle is at most ``collinear_eps`` are merged away, so
    every stored vertex is a genuine corner.

    Raises:
        ValueError: a coordinate above ``MAX_COORDINATE`` in magnitude.
        DegenerateEdge: an edge shorter than ``LENGTH_EPS_FACTOR * perimeter``.
        WrongOrientation: clockwise input.
        NotConvex: reflex vertex, zero area, or a full reversal.
        NotSimple: locally convex chain winding more than once.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValueError("expected at least 3 planar vertices of shape (n, 2)")
    if not np.all(np.isfinite(verts)):
        raise ValueError("vertices must be finite")
    if np.max(np.abs(verts)) > MAX_COORDINATE:
        raise ValueError(f"vertex coordinates must not exceed MAX_COORDINATE = {MAX_COORDINATE:g}")

    lengths, dirs = _edge_angles(verts)
    perimeter = float(np.sum(lengths))
    if perimeter <= 0.0:
        raise DegenerateEdge("zero perimeter")
    if np.any(lengths < LENGTH_EPS_FACTOR * perimeter):
        raise DegenerateEdge("consecutive vertices coincide within tolerance")

    area = signed_area(verts)
    if area < 0.0:
        raise WrongOrientation("vertices are clockwise; expected counterclockwise")
    if area == 0.0:
        raise NotConvex("polygon has zero area")

    # Merge collinear vertices until stable.
    while True:
        ext = turns(dirs)
        keep, base_s = merge_collinear(
            ext, lengths, base_s, collinear_eps,
            NotConvex, "reflex vertex: min exterior angle",
        )
        if keep is None:
            break
        verts = verts[keep]
        lengths, dirs = _edge_angles(verts)
        perimeter = float(np.sum(lengths))

    total_turn = float(np.sum(ext))
    if abs(total_turn - TAU) > TOTAL_TURN_TOL:
        raise NotSimple(f"total turning {total_turn:.12f} != 2*pi; chain is not simple")

    cum = np.concatenate([[0.0], np.cumsum(lengths[:-1])])
    return PlanarPolygon(
        vertices=verts,
        cum_lengths=cum,
        perimeter=perimeter,
        base_s=reduce_mod(base_s, perimeter),
        edge_dirs=dirs,
        exterior_angles=ext,
    )


def point_at(poly: PlanarPolygon, s: float) -> Vec2:
    """Point at arc length ``s`` from the marked point (s reduced mod perimeter)."""
    (i,), (u,) = poly.locate([s])
    v = poly.vertices[i]
    if u == 0.0:
        return Vec2(float(v[0]), float(v[1]))
    d = poly.edge_dirs[i]
    return Vec2(float(v[0] + u * math.cos(d)), float(v[1] + u * math.sin(d)))


def points_at(poly: PlanarPolygon, ss: np.ndarray) -> np.ndarray:
    """Vectorized :func:`point_at` for an array of arc positions."""
    idx, u = poly.locate(ss)
    d = poly.edge_dirs
    step = np.stack([np.cos(d), np.sin(d)], axis=1).take(idx, axis=0)
    return poly.vertices.take(idx, axis=0) + u[:, None] * step


@dataclass(frozen=True, eq=False)
class ConvexityCertificate:
    """Numerical convexity witness for a closed vertex chain."""

    interior_angles: np.ndarray
    exterior_sum: float
    min_exterior: float
    is_convex: bool
    tolerance: float

    def summary(self) -> dict:
        return {
            "exterior_sum": self.exterior_sum,
            "min_exterior": self.min_exterior,
            "is_convex": bool(self.is_convex),
            "tolerance": self.tolerance,
        }


FAILED_CERTIFICATE = ConvexityCertificate(
    interior_angles=np.empty(0),
    exterior_sum=float("nan"),
    min_exterior=float("nan"),
    is_convex=False,
    tolerance=float("nan"),
)


def convexity_certificate(vertices) -> ConvexityCertificate:
    """Certify (never enforce) convexity of a closed chain.

    Reports interior angles, the exterior-angle sum and minimum, and an
    ``is_convex`` verdict at ``CERTIFICATE_TOL``.  Non-convex input is a
    valid query; only coincident consecutive vertices raise.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValueError("expected at least 3 planar vertices of shape (n, 2)")
    lengths, dirs = _edge_angles(verts)
    perimeter = float(np.sum(lengths))
    if perimeter <= 0.0 or np.any(lengths < LENGTH_EPS_FACTOR * perimeter):
        raise DegenerateEdge("consecutive vertices coincide within tolerance")
    ext = turns(dirs)
    exterior_sum = float(np.sum(ext))
    min_exterior = float(np.min(ext))
    simple_ok = signed_area(verts) > 0.0 and abs(exterior_sum - TAU) <= CERTIFICATE_TOL
    is_convex = simple_ok and min_exterior >= -CERTIFICATE_TOL
    return ConvexityCertificate(
        interior_angles=math.pi - ext,
        exterior_sum=exterior_sum,
        min_exterior=min_exterior,
        is_convex=is_convex,
        tolerance=CERTIFICATE_TOL,
    )


def dilate_to_perimeter(poly: PlanarPolygon, target: float, center) -> PlanarPolygon:
    """Homothety about ``center`` scaling the perimeter to ``target``."""
    if target <= 0.0:
        raise ValueError("target perimeter must be positive")
    ratio = target / poly.perimeter
    c = np.asarray(center, dtype=float)
    return build_polygon(c + ratio * (poly.vertices - c), base_s=poly.base_s * ratio)
