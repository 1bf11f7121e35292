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
from dataclasses import dataclass, replace

import numpy as np

from .errors import AlignmentNotFound, DegenerateEdge, OrientationMismatch
from .geometry import (
    IDENTITY_MOTION,
    Angle,
    RigidMotion2,
    Vec2,
    alignment_margins,
    apply_motion,
    apply_motion_many,
    chord_directions,
    common_perimeter,
    compose,
    merged_vertex_positions,
    norm_angle,
    roll_next,
    roll_prev,
    turns,
    unwrap_turns,
)
from .planar import (
    ConvexityCertificate,
    FAILED_CERTIFICATE,
    PlanarPolygon,
    convexity_certificate,
    point_at,
    points_at,
    signed_area,
)
from .tolerances import (
    BENDING_DENOM_FLOOR,
    LENGTH_EPS_FACTOR,
    MARGIN_EPS,
    MARGIN_TIE_TOL,
    RELATIVE_TAU_FLOOR,
)


@dataclass(frozen=True, eq=False)
class MarkedPair:
    """Two equal-length convex curves; ``motion`` maps F2 into position."""

    F1: PlanarPolygon
    F2: PlanarPolygon
    motion: RigidMotion2 = IDENTITY_MOTION


def make_pair(F1: PlanarPolygon, F2: PlanarPolygon) -> MarkedPair:
    """Pair two curves, enforcing equal perimeter and equal orientation."""
    common_perimeter(F1, F2)
    if signed_area(F1.vertices) <= 0.0 or signed_area(F2.vertices) <= 0.0:
        raise OrientationMismatch("both curves must be counterclockwise")
    return MarkedPair(F1, F2)


def merged_breakpoints(pair: MarkedPair) -> np.ndarray:
    """Union of both curves' vertex arc-positions plus the base point.

    On this set both curves are simultaneously piecewise linear, so the
    combination is evaluated without sampling error.  Positions closer than
    ``BREAKPOINT_MERGE_RTOL`` times the perimeter are merged.
    """
    return merged_vertex_positions(pair.F1, pair.F2)[0]


@dataclass(frozen=True, eq=False)
class CombinedCurve:
    """Pointwise sum of a corresponded pair, with its convexity certificate."""

    curve: np.ndarray           # (m, 2) combined points, one per breakpoint
    certificate: ConvexityCertificate
    tau_segments: np.ndarray    # (m, 2) samples of the bending field r1 - r2
    breakpoints: np.ndarray     # (m,) arc positions the rows were evaluated at
    pair: MarkedPair            # the pair the rows were evaluated on
    vertex_rows: tuple[np.ndarray, np.ndarray] | None = None  # row of each vertex of F1, F2


def _dedup_closed(points: np.ndarray) -> np.ndarray:
    """Drop consecutive (and wraparound) near-duplicate points, whose edge is
    at most the certificate's ``LENGTH_EPS_FACTOR`` share of the total."""
    diffs = roll_next(points) - points
    seg = np.hypot(diffs[:, 0], diffs[:, 1])
    total = float(np.sum(seg))
    if total == 0.0:
        return points[:1]
    keep = seg > LENGTH_EPS_FACTOR * total
    # row i is kept when the edge leaving it is non-degenerate
    return points[roll_prev(keep)]


def _certificate(curve: np.ndarray) -> ConvexityCertificate:
    pts = _dedup_closed(curve)
    if len(pts) < 3:
        return FAILED_CERTIFICATE
    try:
        return convexity_certificate(pts)
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
        certificate=_certificate(curve),
        tau_segments=pts1 - pts2,
        breakpoints=positions,
        pair=pair,
    )


def combine(pair: MarkedPair) -> CombinedCurve:
    """Isometric combination r1(s) + motion(r2(s)) on the merged breakpoints.

    Never raises on a non-convex result; the certificate carries the verdict.
    When the semitangent condition holds with positive margin the certificate
    is guaranteed convex.  The merge's vertex rows are kept for :func:`vertex_events`.
    """
    positions, rows1, rows2 = merged_vertex_positions(pair.F1, pair.F2)
    return replace(combine_at(pair, positions), vertex_rows=(rows1, rows2))


def semitangent_condition(pair: MarkedPair) -> Angle:
    """Margin pi - max angle between corresponding right semitangents.

    The angle is taken in (-pi, pi] on the first piece and followed from
    there through the real change g(s) - g(0) of the unwrapped tangent gap
    g = phi1 - phi2 (:func:`_row_gaps`, one value per merged piece), never
    reduced modulo 2*pi, so a gap that swings through pi makes the margin
    nonpositive; positive exactly when the convexity hypothesis of the
    combination holds.
    """
    _, g = _row_gaps(pair)
    angles = g - g[0] + norm_angle(float(g[0]))
    return math.pi - float(np.max(np.abs(angles)))


@dataclass(frozen=True, eq=False)
class VertexEvents:
    """Classification of every correspondence breakpoint, one row each.

    ``case`` counts the curves with a vertex at the row (0 edge-edge, 1
    vertex-edge, 2 vertex-vertex).  ``beta`` is the combined curve's own
    interior angle (pi on edge-edge rows), ``beta1``/``beta2`` the inputs'
    (pi on edge interiors).
    """

    s: np.ndarray
    case: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    beta: np.ndarray

    def law_error(self) -> float:
        """Largest |beta - (beta1 + beta2) / 2| over the vertex rows; 0 if none."""
        err = np.abs(self.beta - 0.5 * (self.beta1 + self.beta2))
        return float(np.max(err[self.case > 0], initial=0.0))


def vertex_events(combined: CombinedCurve) -> VertexEvents:
    """Classify every row of ``combined`` and measure its interior angle there.

    A row is at a vertex of a curve exactly when the breakpoint merge folded
    one of that curve's vertices into it (:func:`geometry.merged_vertex_positions`),
    so the combined curve turns there by its angle; :func:`combine` keeps
    the merge's rows.  ``beta`` is read from the chords of the combined curve.

    Raises:
        ValueError: ``combined`` is off the merged breakpoints (from :func:`combine_at`).
    """
    if combined.vertex_rows is None:
        raise ValueError("vertex_events needs a combination on the merged breakpoints")
    pair, bps = combined.pair, combined.breakpoints
    rows1, rows2 = combined.vertex_rows
    m = len(bps)
    case = (np.bincount(rows1, minlength=m) > 0).astype(int) + (np.bincount(rows2, minlength=m) > 0)
    beta1 = math.pi - np.bincount(rows1, weights=pair.F1.exterior_angles, minlength=m)
    beta2 = math.pi - np.bincount(rows2, weights=pair.F2.exterior_angles, minlength=m)
    beta = np.where(case > 0, math.pi - turns(chord_directions(combined.curve)), math.pi)
    return VertexEvents(bps, case, beta1, beta2, beta)


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Base shift and motion returned by the alignment search."""

    sigma0: float
    motion: RigidMotion2
    margin: Angle


def _row_directions(poly: PlanarPolygon, bps: np.ndarray, rows: np.ndarray, offset: float) -> np.ndarray:
    """Unwrapped right-semitangent direction of ``poly``, plus ``offset``,
    over the piece from each merged breakpoint (:func:`geometry.unwrap_turns`):
    its direction over piece 0 (read mid-piece; no convex edge spans half the
    curve, so there are two pieces at least) plus the exterior angles of its
    vertices merged into rows 1..r, the per-row sums :func:`vertex_events` reads."""
    row_turns = np.bincount(rows, weights=poly.exterior_angles, minlength=len(bps))
    (i,), _ = poly.locate([0.5 * bps[1]])
    return unwrap_turns(norm_angle(float(poly.edge_dirs[i])) + offset, row_turns)


def _row_gaps(pair: MarkedPair) -> tuple[np.ndarray, np.ndarray]:
    """Merged breakpoints, and the gap g = phi1 - phi2 of unwrapped right
    semitangents over the piece that starts at each, F2's turned by the
    pair's motion."""
    bps, rows1, rows2 = merged_vertex_positions(pair.F1, pair.F2)
    phi1 = _row_directions(pair.F1, bps, rows1, 0.0)
    return bps, phi1 - _row_directions(pair.F2, bps, rows2, pair.motion.rotation)


def align(pair: MarkedPair) -> AlignmentResult:
    """Find a base shift sigma0 and a motion giving a positive margin.

    The gap g = phi1 - phi2 of unwrapped tangent directions is constant on
    each piece between merged breakpoints (:func:`_row_gaps`), so every
    value it attains is a row's, and each breakpoint is a candidate base.
    Aligning at sigma0 turns the gap at s into the real difference g(s) -
    g(sigma0), which must stay inside (-pi, pi), and the candidate
    maximizing the worst-case margin wins (ties, within ``MARGIN_TIE_TOL``
    rad: smallest sigma0).  The returned motion maps P2(sigma0) onto
    P1(sigma0) with the right semitangents identified.

    g is periodic, since both curves turn by 2*pi, so the row gaps are all
    the gaps any candidate sees, and the worst one is at the largest or the
    smallest of them: every margin comes from that range in O(m) time and
    memory (:func:`geometry.alignment_margins`), with no m x m gap matrix.

    Raises:
        AlignmentNotFound: if the best margin is at or below ``MARGIN_EPS`` rad.
    """
    bps, g = _row_gaps(pair)
    margins = alignment_margins(g)
    j = int(np.argmax(margins >= margins.max() - MARGIN_TIE_TOL))   # smallest tied sigma0
    margin = float(margins[j])
    if margin <= MARGIN_EPS:
        raise AlignmentNotFound(
            f"best margin {margin:.3e} rad at sigma0={bps[j]!r} is not positive"
        )
    sigma0 = float(bps[j])
    # the rotation is the gap over the piece from sigma0 on, so it matches
    # the right semitangents there
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
    floor_eps = RELATIVE_TAU_FLOOR * float(np.max(len_r)) ** 2 + BENDING_DENOM_FLOOR
    p = dr * dtau
    num = np.abs(0.0 + p[:, 0] + p[:, 1])     # np.sum(p, axis=1), as geometry.dot3
    den = len_r * np.hypot(dtau[:, 0], dtau[:, 1]) + floor_eps
    return float(np.max(num / den))


def uniform_positions(pair: MarkedPair, n: int) -> np.ndarray:
    """n equally spaced correspondence positions, for refinement studies."""
    if n < 3:
        raise ValueError("need at least 3 positions")
    return np.arange(n) * (pair.F1.perimeter / n)
