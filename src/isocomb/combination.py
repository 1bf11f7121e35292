"""Isometric combination of equal-length closed convex planar curves.

Two curves of the same length correspond point-to-point by arc length from
their marked base points.  Their isometric combination is the curve traced
by the sum of corresponding position vectors.  The alignment search finds a
base shift and a rigid motion of the second curve after which every pair of
corresponding right semitangents subtends an angle strictly below pi, which
certifies convexity of the combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentNotFound,
    DegenerateEdge,
    OrientationMismatch,
    PerimeterMismatch,
)
from .geometry import (
    IDENTITY_MOTION,
    Angle,
    RigidMotion2,
    Vec2,
    alignment_margins,
    apply_motion,
    apply_motion_many,
    compose,
    merge_positions,
    norm_angle,
    norm_angle_many,
    roll_next,
    roll_prev,
)
from .planar import (
    ConvexityCertificate,
    FAILED_CERTIFICATE,
    PlanarPolygon,
    convexity_certificate,
    point_at,
    points_at,
    right_semitangent,
    signed_area,
    turning_function,
)

PERIMETER_RTOL = 1e-9
MARGIN_EPS = 1e-9           # alignment margins at or below this are failures
CERTIFICATE_TOL = 1e-9      # convexity certificate of a combined curve
BREAKPOINT_MERGE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class MarkedPair:
    """Two equal-length convex curves; ``motion`` maps F2 into position."""

    F1: PlanarPolygon
    F2: PlanarPolygon
    motion: RigidMotion2 = IDENTITY_MOTION


def make_pair(F1: PlanarPolygon, F2: PlanarPolygon) -> MarkedPair:
    """Pair two curves, enforcing equal perimeter and equal orientation."""
    if abs(F1.perimeter - F2.perimeter) > PERIMETER_RTOL * F1.perimeter:
        raise PerimeterMismatch(
            f"perimeters {F1.perimeter!r} and {F2.perimeter!r} differ beyond tolerance"
        )
    if signed_area(F1.vertices) <= 0.0 or signed_area(F2.vertices) <= 0.0:
        raise OrientationMismatch("both curves must be counterclockwise")
    return MarkedPair(F1, F2)


def merged_breakpoints(pair: MarkedPair) -> np.ndarray:
    """Union of both curves' vertex arc-positions plus the base point.

    On this set both curves are simultaneously piecewise linear, so the
    combination is evaluated without sampling error.  Positions closer than
    1e-12 of the perimeter are merged.
    """
    p = pair.F1.perimeter
    pos = np.concatenate([[0.0], pair.F1.vertex_positions(), pair.F2.vertex_positions()])
    return merge_positions(np.sort(pos), p, BREAKPOINT_MERGE_RTOL * p)


@dataclass(frozen=True, eq=False)
class CombinedCurve:
    """Pointwise sum of a corresponded pair, with its convexity certificate."""

    curve: np.ndarray           # (m, 2) combined points, one per breakpoint
    certificate: ConvexityCertificate
    tau_segments: np.ndarray    # (m, 2) samples of the bending field r1 - r2
    breakpoints: np.ndarray     # (m,) arc positions the rows were evaluated at
    pair: MarkedPair            # the pair the rows were evaluated on


def _dedup_closed(points: np.ndarray) -> np.ndarray:
    """Drop consecutive (and wraparound) near-duplicate points."""
    diffs = roll_next(points) - points
    seg = np.hypot(diffs[:, 0], diffs[:, 1])
    total = float(np.sum(seg))
    if total == 0.0:
        return points[:1]
    keep = seg > 1e-12 * total
    # row i is kept when the edge leaving it is non-degenerate
    return points[roll_prev(keep)]


def _certify(curve: np.ndarray) -> ConvexityCertificate:
    pts = _dedup_closed(curve)
    if len(pts) < 3:
        return FAILED_CERTIFICATE
    try:
        return convexity_certificate(pts, CERTIFICATE_TOL)
    except DegenerateEdge:
        return FAILED_CERTIFICATE


def combine_at(pair: MarkedPair, positions: np.ndarray) -> CombinedCurve:
    """Evaluate the combination at the given arc positions."""
    positions = np.asarray(positions, dtype=float)
    pts1 = points_at(pair.F1, positions)
    pts2 = apply_motion_many(pair.motion, points_at(pair.F2, positions))
    curve = pts1 + pts2
    return CombinedCurve(
        curve=curve,
        certificate=_certify(curve),
        tau_segments=pts1 - pts2,
        breakpoints=positions,
        pair=pair,
    )


def combine(pair: MarkedPair) -> CombinedCurve:
    """Isometric combination r1(s) + motion(r2(s)) on the merged breakpoints.

    Never raises on a non-convex result; the certificate carries the verdict.
    When the semitangent condition holds with positive margin the certificate
    is guaranteed convex.
    """
    return combine_at(pair, merged_breakpoints(pair))


def semitangent_condition(pair: MarkedPair) -> Angle:
    """Margin pi - max angle between corresponding right semitangents.

    The angle is taken in (-pi, pi] at the base point and followed from
    there through the real change g(s) - g(0) of the unwrapped tangent gap
    g = phi1 - phi2, never reduced modulo 2*pi, so a gap that swings
    through pi makes the margin nonpositive.  Scanned over all merged
    breakpoints plus mid-piece samples; positive exactly when the
    convexity hypothesis of the combination holds.
    """
    _, g = _scanned_gap(pair)
    angles = g - g[0] + norm_angle(float(g[0]))
    return math.pi - float(np.max(np.abs(angles)))


@dataclass(frozen=True)
class CombinationVertexEvent:
    """Classification of one correspondence breakpoint.

    ``beta`` is the interior angle measured on the combined curve itself;
    ``beta1``/``beta2`` are the input interior angles (pi on edge interiors).
    ``alpha``/``delta``/``gamma`` describe vertex-edge events: angles between
    the right semitangent rays, between the left semitangent rays, and
    between the vertex's right semitangent ray and the edge point's left
    semitangent ray.
    """

    s: float
    case_id: str                # "edge-edge" | "vertex-edge" | "vertex-vertex"
    beta1: Angle
    beta2: Angle
    beta: Angle
    alpha: Angle | None = None
    delta: Angle | None = None
    gamma: Angle | None = None


def _vertex_interior(poly: PlanarPolygon, bps: np.ndarray, tol: float) -> np.ndarray:
    """Interior angle at the vertex within ``tol`` of each position, NaN if none."""
    pos = poly.vertex_positions()
    order = np.argsort(pos)
    pos_sorted = pos[order]
    interior = (math.pi - poly.exterior_angles())[order]
    n = len(pos_sorted)
    i = np.searchsorted(pos_sorted, bps)
    before, after = np.maximum(i - 1, 0), np.minimum(i, n - 1)
    at_before = (i > 0) & (np.abs(pos_sorted[before] - bps) <= tol)
    at_after = (i < n) & (np.abs(pos_sorted[after] - bps) <= tol)
    # wraparound: position 0 against a vertex at ~period
    wrap = (bps <= tol) & (abs(pos_sorted[-1] - poly.perimeter) <= tol)
    j = np.where(at_before, before, np.where(at_after, after, n - 1))
    return np.where(at_before | at_after | wrap, interior[j], np.nan)


def _semitangents(poly: PlanarPolygon, bps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right and left semitangent directions at each position, as in
    :func:`right_semitangent` and :func:`left_semitangent`."""
    idx, u = poly.locate(bps)
    right = norm_angle_many(poly.edge_dirs[idx])
    left = norm_angle_many(poly.edge_dirs[idx - (u == 0.0)])
    return right, left


def vertex_events(combined: CombinedCurve) -> list[CombinationVertexEvent]:
    """Classify every row of ``combined`` and measure its interior angle there."""
    pair, bps = combined.pair, combined.breakpoints
    tol = BREAKPOINT_MERGE_RTOL * pair.F1.perimeter * 4.0
    chords = roll_next(combined.curve) - combined.curve
    dirs = np.arctan2(chords[:, 1], chords[:, 0])
    beta = math.pi - norm_angle_many(dirs - roll_prev(dirs))
    b1 = _vertex_interior(pair.F1, bps, tol)
    b2 = _vertex_interior(pair.F2, bps, tol)
    at1, at2 = ~np.isnan(b1), ~np.isnan(b2)
    # vertex-edge: semitangent rays, with the left ray reversed
    rot = pair.motion.rotation
    r1, l1 = _semitangents(pair.F1, bps)
    r2, l2 = _semitangents(pair.F2, bps)
    r2, l2 = r2 + rot, l2 + rot
    alpha = np.abs(norm_angle_many(r1 - r2))
    delta = np.abs(norm_angle_many(l1 - l2))
    gamma = np.abs(norm_angle_many(np.where(at1, r1 - (l2 + math.pi), r2 - (l1 + math.pi))))

    beta1, beta2 = np.where(at1, b1, math.pi), np.where(at2, b2, math.pi)
    columns = (bps, at1, at2, beta1, beta2, beta, alpha, delta, gamma)
    events = []
    for s, v1, v2, c1, c2, b, a, d, g in zip(*(c.tolist() for c in columns)):
        if not (v1 or v2):
            events.append(CombinationVertexEvent(s, "edge-edge", math.pi, math.pi, math.pi))
        elif v1 and v2:
            events.append(CombinationVertexEvent(s, "vertex-vertex", c1, c2, b))
        else:
            events.append(CombinationVertexEvent(s, "vertex-edge", c1, c2, b, alpha=a, delta=d, gamma=g))
    return events


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Base shift and motion returned by the alignment search."""

    sigma0: float
    motion: RigidMotion2
    margin: Angle


def _unwrapped_direction_values(poly: PlanarPolygon, bps: np.ndarray, offset: float) -> np.ndarray:
    """Unwrapped right-semitangent direction at each breakpoint."""
    tf = turning_function(poly)
    idx = np.searchsorted(tf.breakpoints, bps, side="right") - 1
    turn = np.where(idx >= 0, tf.values[np.maximum(idx, 0)], 0.0)
    return right_semitangent(poly, 0.0) + offset + turn


def _scanned_gap(pair: MarkedPair) -> tuple[np.ndarray, np.ndarray]:
    """Merged breakpoints, and the gap g = phi1 - phi2 of unwrapped right
    semitangents at them followed by mid-piece samples (which close merge
    gaps)."""
    bps = merged_breakpoints(pair)
    ends = np.concatenate([bps[1:], [pair.F1.perimeter]])
    scan = np.concatenate([bps, 0.5 * (bps + ends)])
    g_scan = _unwrapped_direction_values(pair.F1, scan, 0.0) - _unwrapped_direction_values(
        pair.F2, scan, pair.motion.rotation
    )
    return bps, g_scan


def align(pair: MarkedPair) -> AlignmentResult:
    """Find a base shift sigma0 and a motion giving a positive margin.

    The step function g(s) = phi1(s) - phi2(s) of unwrapped tangent
    directions changes only at breakpoints, so every attained value is
    realized at one; each breakpoint is a candidate base.  Aligning at
    sigma0 turns the gap at s into the real difference g(s) - g(sigma0),
    which must stay inside (-pi, pi), and the candidate maximizing the
    worst-case margin wins (ties: smallest sigma0).  The returned motion
    maps P2(sigma0) onto P1(sigma0) with the right semitangents identified.

    g is periodic, since both curves turn by 2*pi, so the scanned values
    are all the gaps any candidate sees, and the worst one is at the
    largest or the smallest of them: every margin comes from that range in
    O(m) time and memory (:func:`geometry.alignment_margins`), with no
    m x m gap matrix.

    Raises:
        AlignmentNotFound: if the best margin is at or below 1e-9 rad.
    """
    bps, g_scan = _scanned_gap(pair)
    g = g_scan[: len(bps)]
    margins = alignment_margins(g_scan, g)
    j = int(np.argmax(margins))                     # first max = smallest sigma0
    margin = float(margins[j])
    if margin <= MARGIN_EPS:
        raise AlignmentNotFound(
            f"best margin {margin:.3e} rad at sigma0={bps[j]!r} is not positive"
        )
    sigma0 = float(bps[j])
    # the rotation comes from the scanned g value itself, so it is
    # right-continuous at sigma0 by construction
    rho = norm_angle(float(g[j]))
    p1 = point_at(pair.F1, sigma0)
    p2 = apply_motion(pair.motion, point_at(pair.F2, sigma0))
    c, s = math.cos(rho), math.sin(rho)
    t = Vec2(p1.x - (c * p2.x - s * p2.y), p1.y - (s * p2.x + c * p2.y))
    motion = compose(RigidMotion2(rho, t), pair.motion)
    return AlignmentResult(sigma0=sigma0, motion=motion, margin=margin)


def apply_alignment(pair: MarkedPair, result: AlignmentResult) -> MarkedPair:
    """Rebase both curves at sigma0 and install the alignment motion."""
    return MarkedPair(
        F1=pair.F1.with_base(pair.F1.base_s + result.sigma0),
        F2=pair.F2.with_base(pair.F2.base_s + result.sigma0),
        motion=result.motion,
    )


def combine_aligned(pair: MarkedPair) -> tuple[AlignmentResult, CombinedCurve]:
    """Align, then combine; the certificate is convex on success."""
    result = align(pair)
    combined = combine(apply_alignment(pair, result))
    return result, combined


# A bending increment below this fraction of the chord means the two
# curves run parallel there and the orthogonality holds trivially; the
# denominator floor keeps such segments from reporting a 0/0 ratio.
RELATIVE_TAU_FLOOR = 1e-3


def bending_check(combined: CombinedCurve) -> float:
    """Max normalized discrete residual of <dr, dtau> over the segments.

    Per segment the inner product equals |dr1|^2 - |dr2|^2, so it vanishes
    identically whenever corresponding chords have equal length.  The
    normalization divides by |dr| * |dtau| plus a floor of
    RELATIVE_TAU_FLOOR times the largest squared chord.
    """
    dr = roll_next(combined.curve) - combined.curve
    dtau = roll_next(combined.tau_segments) - combined.tau_segments
    len_r = np.hypot(dr[:, 0], dr[:, 1])
    floor_eps = RELATIVE_TAU_FLOOR * float(np.max(len_r)) ** 2 + 1e-300
    num = np.abs(np.sum(dr * dtau, axis=1))
    den = len_r * np.hypot(dtau[:, 0], dtau[:, 1]) + floor_eps
    return float(np.max(num / den))


def uniform_positions(pair: MarkedPair, n: int) -> np.ndarray:
    """n equally spaced correspondence positions, for refinement studies."""
    if n < 3:
        raise ValueError("need at least 3 positions")
    return np.arange(n) * (pair.F1.perimeter / n)
