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
    TAU,
    Angle,
    RigidMotion2,
    Vec2,
    alignment_margins,
    apply_motion,
    apply_motion_many,
    circ_dist,
    compose,
    merge_positions,
    norm_angle,
)
from .planar import (
    ConvexityCertificate,
    FAILED_CERTIFICATE,
    PlanarPolygon,
    convexity_certificate,
    default_certificate_tolerance,
    left_semitangent,
    point_at,
    points_at,
    right_semitangent,
    signed_area,
    turning_function,
)

PERIMETER_RTOL = 1e-9
MARGIN_EPS = 1e-9           # alignment margins at or below this are failures
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


def _dedup_closed(points: np.ndarray) -> np.ndarray:
    """Drop consecutive (and wraparound) near-duplicate points."""
    diffs = np.roll(points, -1, axis=0) - points
    seg = np.hypot(diffs[:, 0], diffs[:, 1])
    total = float(np.sum(seg))
    if total == 0.0:
        return points[:1]
    keep = seg > 1e-12 * total
    # row i is kept when the edge leaving it is non-degenerate
    return points[np.roll(keep, 1)]


def _certify(curve: np.ndarray, tolerance: float) -> ConvexityCertificate:
    pts = _dedup_closed(curve)
    if len(pts) < 3:
        return FAILED_CERTIFICATE
    try:
        return convexity_certificate(pts, tolerance)
    except DegenerateEdge:
        return FAILED_CERTIFICATE


def combine_at(pair: MarkedPair, positions: np.ndarray, tolerance: float | None = None) -> CombinedCurve:
    """Evaluate the combination at the given arc positions."""
    if tolerance is None:
        tolerance = default_certificate_tolerance()
    positions = np.asarray(positions, dtype=float)
    pts1 = points_at(pair.F1, positions)
    pts2 = apply_motion_many(pair.motion, points_at(pair.F2, positions))
    curve = pts1 + pts2
    return CombinedCurve(
        curve=curve,
        certificate=_certify(curve, tolerance),
        tau_segments=pts1 - pts2,
        breakpoints=positions,
    )


def combine(pair: MarkedPair, tolerance: float | None = None) -> CombinedCurve:
    """Isometric combination r1(s) + motion(r2(s)) on the merged breakpoints.

    Never raises on a non-convex result; the certificate carries the verdict.
    When the semitangent condition holds with positive margin the certificate
    is guaranteed convex.
    """
    return combine_at(pair, merged_breakpoints(pair), tolerance)


def semitangent_condition(pair: MarkedPair) -> Angle:
    """Margin pi - max angle between corresponding right semitangents.

    Scanned over all merged breakpoints plus mid-piece samples; positive
    exactly when the convexity hypothesis of the combination holds.
    """
    bps = merged_breakpoints(pair)
    p = pair.F1.perimeter
    ends = np.concatenate([bps[1:], [p]])
    samples = np.concatenate([bps, 0.5 * (bps + ends)])
    rot = pair.motion.rotation
    worst = 0.0
    for s in samples:
        t1 = right_semitangent(pair.F1, s)
        t2 = right_semitangent(pair.F2, s) + rot
        worst = max(worst, circ_dist(t1, t2))
    return math.pi - worst


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


def _vertex_lookup(poly: PlanarPolygon, tol: float):
    """Map arc position -> interior angle for positions at a vertex."""
    pos = poly.vertex_positions()
    order = np.argsort(pos)
    pos_sorted = pos[order]
    interior = (math.pi - poly.exterior_angles())[order]
    period = poly.perimeter

    def query(s: float) -> float | None:
        i = int(np.searchsorted(pos_sorted, s))
        for j in (i - 1, i):
            if 0 <= j < len(pos_sorted) and abs(pos_sorted[j] - s) <= tol:
                return float(interior[j])
        # wraparound: position 0 queried against a vertex at ~period
        if s <= tol and abs(pos_sorted[-1] - period) <= tol:
            return float(interior[-1])
        return None

    return query


def vertex_events(pair: MarkedPair) -> list[CombinationVertexEvent]:
    """Classify every breakpoint and measure the combined interior angle."""
    bps = merged_breakpoints(pair)
    tol = BREAKPOINT_MERGE_RTOL * pair.F1.perimeter * 4.0
    pts1 = points_at(pair.F1, bps)
    pts2 = apply_motion_many(pair.motion, points_at(pair.F2, bps))
    curve = pts1 + pts2
    chords = np.roll(curve, -1, axis=0) - curve
    dirs = np.arctan2(chords[:, 1], chords[:, 0])
    look1 = _vertex_lookup(pair.F1, tol)
    look2 = _vertex_lookup(pair.F2, tol)
    rot = pair.motion.rotation

    events = []
    m = len(bps)
    for k, s in enumerate(bps):
        b1 = look1(s)
        b2 = look2(s)
        if b1 is None and b2 is None:
            events.append(CombinationVertexEvent(float(s), "edge-edge", math.pi, math.pi, math.pi))
            continue
        turn = norm_angle(float(dirs[k] - dirs[(k - 1) % m]))
        beta = math.pi - turn
        if b1 is not None and b2 is not None:
            events.append(
                CombinationVertexEvent(float(s), "vertex-vertex", b1, b2, beta)
            )
            continue
        # vertex-edge: semitangent rays, with the left ray reversed
        r1 = right_semitangent(pair.F1, s)
        r2 = right_semitangent(pair.F2, s) + rot
        l1 = left_semitangent(pair.F1, s)
        l2 = left_semitangent(pair.F2, s) + rot
        alpha = circ_dist(r1, r2)
        delta = circ_dist(l1, l2)
        if b1 is not None:
            gamma = circ_dist(r1, l2 + math.pi)
        else:
            gamma = circ_dist(r2, l1 + math.pi)
        events.append(
            CombinationVertexEvent(
                float(s),
                "vertex-edge",
                math.pi if b1 is None else b1,
                math.pi if b2 is None else b2,
                beta,
                alpha=alpha,
                delta=delta,
                gamma=gamma,
            )
        )
    return events


@dataclass(frozen=True)
class AlignmentResult:
    """Base shift and motion returned by the alignment search."""

    sigma0: float
    motion: RigidMotion2
    margin: Angle
    g_values: np.ndarray        # attained values of g(s) = phi1(s) - phi2(s)


def _unwrapped_direction_values(poly: PlanarPolygon, bps: np.ndarray, offset: float) -> np.ndarray:
    """Unwrapped right-semitangent direction at each breakpoint."""
    tf = turning_function(poly)
    idx = np.searchsorted(tf.breakpoints, bps, side="right") - 1
    turn = np.where(idx >= 0, tf.values[np.maximum(idx, 0)], 0.0)
    return right_semitangent(poly, 0.0) + offset + turn


def align(pair: MarkedPair) -> AlignmentResult:
    """Find a base shift sigma0 and a motion giving a positive margin.

    The step function g(s) = phi1(s) - phi2(s) of unwrapped tangent
    directions changes only at breakpoints, so every attained value is
    realized at one; each breakpoint is a candidate base.  Aligning at
    sigma0 turns the gap at s into circ_dist(g(s), g(sigma0)), and the
    candidate maximizing the worst-case margin wins (ties: smallest
    sigma0).  The returned motion maps P2(sigma0) onto P1(sigma0) with the
    right semitangents identified.

    The worst gap for a candidate is attained at the scanned g value
    nearest its antipode g(sigma0) + pi, so sorting the scanned values and
    binary-searching where each antipode falls among them finds every
    margin in O(m log m) time and O(m) memory
    (:func:`geometry.alignment_margins`), with no m x m gap matrix.

    Raises:
        AlignmentNotFound: if the best margin is at or below 1e-9 rad.
    """
    bps = merged_breakpoints(pair)
    ends = np.concatenate([bps[1:], [pair.F1.perimeter]])
    scan = np.concatenate([bps, 0.5 * (bps + ends)])   # mid-piece samples close merge gaps
    g_scan = _unwrapped_direction_values(pair.F1, scan, 0.0) - _unwrapped_direction_values(
        pair.F2, scan, pair.motion.rotation
    )
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
    return AlignmentResult(sigma0=sigma0, motion=motion, margin=margin, g_values=g)


def apply_alignment(pair: MarkedPair, result: AlignmentResult) -> MarkedPair:
    """Rebase both curves at sigma0 and install the alignment motion."""
    return MarkedPair(
        F1=pair.F1.with_base(pair.F1.base_s + result.sigma0),
        F2=pair.F2.with_base(pair.F2.base_s + result.sigma0),
        motion=result.motion,
    )


def combine_aligned(pair: MarkedPair, tolerance: float | None = None) -> tuple[AlignmentResult, CombinedCurve]:
    """Align, then combine; the certificate is convex on success."""
    result = align(pair)
    combined = combine(apply_alignment(pair, result), tolerance)
    return result, combined


# A bending increment below this fraction of the chord means the two
# curves run parallel there and the orthogonality holds trivially; the
# denominator floor keeps such segments from reporting a 0/0 ratio.
RELATIVE_TAU_FLOOR = 1e-3


def bending_check(combined: CombinedCurve, floor_eps: float | None = None) -> float:
    """Max normalized discrete residual of <dr, dtau> over the segments.

    Per segment the inner product equals |dr1|^2 - |dr2|^2, so it vanishes
    identically whenever corresponding chords have equal length.  The
    normalization divides by |dr| * |dtau| plus a floor, by default
    RELATIVE_TAU_FLOOR times the largest squared chord.
    """
    dr = np.roll(combined.curve, -1, axis=0) - combined.curve
    dtau = np.roll(combined.tau_segments, -1, axis=0) - combined.tau_segments
    len_r = np.hypot(dr[:, 0], dr[:, 1])
    if floor_eps is None:
        floor_eps = RELATIVE_TAU_FLOOR * float(np.max(len_r)) ** 2 + 1e-300
    num = np.abs(np.sum(dr * dtau, axis=1))
    den = len_r * np.hypot(dtau[:, 0], dtau[:, 1]) + floor_eps
    return float(np.max(num / den))


def uniform_positions(pair: MarkedPair, n: int) -> np.ndarray:
    """n equally spaced correspondence positions, for refinement studies."""
    if n < 3:
        raise ValueError("need at least 3 positions")
    return np.arange(n) * (pair.F1.perimeter / n)
