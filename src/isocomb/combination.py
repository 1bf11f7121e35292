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

from .errors import AlignmentNotFound, OrientationMismatch
from .geometry import (
    IDENTITY_MOTION,
    MAX_SAMPLES,
    Angle,
    RigidMotion2,
    Vec2,
    alignment_margins,
    apply_motion,
    apply_motion_many,
    chain_chords,
    check_count,
    common_perimeter,
    compose,
    merged_vertex_positions,
    norm_angle,
    roll_next,
    turns,
    unwrap_turns,
)
from .planar import (
    ConvexityCertificate,
    PlanarPolygon,
    chain_certificate,
    signed_area,
)
from .tolerances import (
    BENDING_DENOM_FLOOR,
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
    chords: np.ndarray          # (m, 2) chord dr from each row to the next
    chord_lengths: np.ndarray   # (m,) |dr|
    exterior_angles: np.ndarray  # (m,) turn at each row, turns of the chord directions
    vertex_rows: tuple[np.ndarray, np.ndarray] | None = None  # row of each vertex of F1, F2


def _combined(pair: MarkedPair, positions: np.ndarray, pts1: np.ndarray, pts2: np.ndarray,
              vertex_rows=None) -> CombinedCurve:
    """The combination of the rows ``pts1`` of F1 and ``pts2`` of F2 (before
    the pair's motion) at ``positions``, with its certificate, chords and turns."""
    pts2 = apply_motion_many(pair.motion, pts2)
    curve = pts1 + pts2
    chords, lengths, dirs = chain_chords(curve)
    ext = turns(dirs)
    return CombinedCurve(
        curve=curve,
        certificate=chain_certificate(curve, lengths, ext),
        tau_segments=pts1 - pts2,
        breakpoints=positions,
        pair=pair,
        chords=chords,
        chord_lengths=lengths,
        exterior_angles=ext,
        vertex_rows=vertex_rows,
    )


def combine_at(pair: MarkedPair, positions: np.ndarray) -> CombinedCurve:
    """Evaluate the combination at the given arc positions."""
    positions = np.asarray(positions, dtype=float)
    return _combined(pair, positions, pair.F1.points_at(positions), pair.F2.points_at(positions))


def combine(pair: MarkedPair) -> CombinedCurve:
    """Isometric combination r1(s) + motion(r2(s)) on the merged breakpoints.

    Never raises on a non-convex result; the certificate carries the verdict.
    When the semitangent condition holds with positive margin the certificate
    is guaranteed convex.  The pair is merged here and the merge's vertex
    rows are kept for :func:`vertex_events`; :func:`combine_aligned` builds
    the same rows from the alignment's merge instead.
    """
    positions, rows1, rows2 = merged_vertex_positions(pair.F1, pair.F2)
    return _combined(pair, positions, pair.F1.points_at(positions), pair.F2.points_at(positions),
                     (rows1, rows2))


def semitangent_condition(pair: MarkedPair) -> Angle:
    """Margin pi - max angle between corresponding right semitangents.

    The angle is taken in (-pi, pi] on the first piece and followed from
    there through the real change g(s) - g(0) of the unwrapped tangent gap
    g = phi1 - phi2 (:func:`_row_gaps`, one value per merged piece), never
    reduced modulo 2*pi, so a gap that swings through pi makes the margin
    nonpositive; positive exactly when the convexity hypothesis of the
    combination holds.
    """
    g = _row_gaps(pair)[1]
    angles = g - g[0] + norm_angle(float(g[0]))
    return math.pi - float(np.abs(angles).max())


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
        return float(err[self.case > 0].max(initial=0.0))


def vertex_events(combined: CombinedCurve) -> VertexEvents:
    """Classify every row of ``combined`` and measure its interior angle there.

    A row is at a vertex of a curve exactly when the breakpoint merge folded
    one of that curve's vertices into it (:func:`geometry.merged_vertex_positions`),
    so the combined curve turns there by its angle; :func:`combine` and
    :func:`combine_aligned` keep the merge's rows, so nothing is merged
    here.  ``beta`` is pi less the combined curve's own turn at the row
    (``exterior_angles``), the interior angle its certificate reports.

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
    beta = np.where(case > 0, math.pi - combined.exterior_angles, math.pi)
    return VertexEvents(bps, case, beta1, beta2, beta)


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Base shift and motion returned by the alignment search."""

    sigma0: float
    motion: RigidMotion2
    margin: Angle


def _row_directions(poly: PlanarPolygon, edge: int, rows: np.ndarray, m: int, offset: float) -> np.ndarray:
    """Unwrapped right-semitangent direction of ``poly``, plus ``offset``,
    over the piece from each of ``m`` merged breakpoints (:func:`geometry.unwrap_turns`):
    the direction of ``edge``, which holds piece 0 (no convex edge spans half
    the curve, so there are two pieces at least), plus the exterior angles of
    its vertices merged into rows 1..r, the per-row sums :func:`vertex_events` reads."""
    row_turns = np.bincount(rows, weights=poly.exterior_angles, minlength=m)
    return unwrap_turns(norm_angle(float(poly.edge_dirs[edge])) + offset, row_turns)


def _row_gaps(pair: MarkedPair) -> tuple:
    """Merged breakpoints, the gap g = phi1 - phi2 of unwrapped right
    semitangents over the piece that starts at each, F2's turned by the
    pair's motion, the row each vertex of F1 and F2 merged into, and each
    curve's one locate, at the breakpoints and then mid piece 0."""
    bps, rows1, rows2 = merged_vertex_positions(pair.F1, pair.F2)
    at, m = np.concatenate((bps, (0.5 * bps[1],))), len(bps)
    loc1, loc2 = pair.F1.locate(at), pair.F2.locate(at)
    phi1 = _row_directions(pair.F1, loc1[0][-1], rows1, m, 0.0)
    phi2 = _row_directions(pair.F2, loc2[0][-1], rows2, m, pair.motion.rotation)
    return bps, phi1 - phi2, rows1, rows2, loc1, loc2


def align(pair: MarkedPair) -> AlignmentResult:
    """Find a base shift sigma0 and a motion giving a positive margin: the
    alignment of :func:`combine_aligned`.

    Raises:
        AlignmentNotFound: if the best margin is at or below ``MARGIN_EPS`` rad.
    """
    return combine_aligned(pair)[0]


def apply_alignment(pair: MarkedPair, result: AlignmentResult) -> MarkedPair:
    """Rebase both curves at sigma0 and install the alignment motion."""
    return MarkedPair(
        F1=pair.F1.with_base(pair.F1.base_s + result.sigma0),
        F2=pair.F2.with_base(pair.F2.base_s + result.sigma0),
        motion=result.motion,
    )


def combine_aligned(pair: MarkedPair) -> tuple[AlignmentResult, CombinedCurve]:
    """Align, then combine; the certificate is convex on success.

    The gap g = phi1 - phi2 of unwrapped tangent directions is constant on
    each piece between merged breakpoints (:func:`_row_gaps`), so every
    value it attains is a row's, and each breakpoint is a candidate base.
    Aligning at sigma0 turns the gap at s into the real difference g(s) -
    g(sigma0), which must stay inside (-pi, pi), and the candidate
    maximizing the worst-case margin wins (ties, within ``MARGIN_TIE_TOL``
    rad: smallest sigma0).  The motion maps P2(sigma0) onto P1(sigma0)
    with the right semitangents identified: it is the pair's motion
    followed by the turn rho = g(sigma0) in (-pi, pi], the gap over the
    piece from sigma0 on.

    g is periodic, since both curves turn by 2*pi, so the row gaps are all
    the gaps any candidate sees, and the worst one is at the largest or the
    smallest of them: every margin comes from that range in O(m) time and
    memory (:func:`geometry.alignment_margins`), with no m x m gap matrix.

    The combination is :func:`combine`'s on the pair rebased at sigma0
    (:func:`apply_alignment`), built from the gap's one merge and one
    located evaluation of each curve: the rows from the winning row j on,
    then those before it, renumbered (the old base row 0 is left out unless
    a vertex merged into it, as a merge of the rebased pair has no
    breakpoint there).  The winning row's points fix the motion, and the
    positions are the merged breakpoints minus sigma0, plus the perimeter
    where that is below 0.  They agree with a fresh merge of the rebased
    pair to the rounding of its rebased arc positions, 7 eps times the
    perimeter, with one exception: a kept old base row keeps the base's
    position, where a fresh merge takes its first vertex's, within
    ``BREAKPOINT_MERGE_RTOL`` times the perimeter of it.

    Raises:
        AlignmentNotFound: if the best margin is at or below ``MARGIN_EPS`` rad.
    """
    bps, g, rows1, rows2, loc1, loc2 = _row_gaps(pair)
    margins = alignment_margins(g)
    j = int((margins >= margins.max() - MARGIN_TIE_TOL).argmax())   # smallest tied sigma0
    margin = float(margins[j])
    if margin <= MARGIN_EPS:
        raise AlignmentNotFound(
            f"best margin {margin:.3e} rad at sigma0={bps[j]!r} is not positive"
        )
    m = len(bps)
    # the old base row stays when it wins or a vertex merged into it
    first = 0 if j == 0 or not (rows1.all() and rows2.all()) else 1
    order = np.concatenate([np.arange(j, m), np.arange(first, j)])
    pts1 = pair.F1.points_on_edges(loc1[0].take(order), loc1[1].take(order))
    pts2 = pair.F2.points_on_edges(loc2[0].take(order), loc2[1].take(order))
    at = bps.take(order)
    sigma0 = float(at[0])
    rho = norm_angle(float(g[j]))
    q = apply_motion(pair.motion, pts2[0])
    c, s = math.cos(rho), math.sin(rho)
    t = Vec2(float(pts1[0][0]) - (c * q.x - s * q.y), float(pts1[0][1]) - (s * q.x + c * q.y))
    result = AlignmentResult(sigma0, compose(RigidMotion2(rho, t), pair.motion), margin)
    positions = at - sigma0
    positions[positions < 0.0] += pair.F1.perimeter
    rows = tuple(np.where(r >= j, r - j, r + (m - j - first)) for r in (rows1, rows2))
    return result, _combined(apply_alignment(pair, result), positions, pts1, pts2, rows)


def bending_check(combined: CombinedCurve) -> float:
    """Max normalized discrete residual of <dr, dtau> over the segments.

    Per segment the inner product equals |dr1|^2 - |dr2|^2, so it vanishes
    identically whenever corresponding chords have equal length.  The
    normalization divides by |dr| * |dtau| plus a floor of
    RELATIVE_TAU_FLOOR times the largest squared chord.
    """
    dr, len_r = combined.chords, combined.chord_lengths
    dtau = roll_next(combined.tau_segments)
    dtau -= combined.tau_segments
    floor_eps = RELATIVE_TAU_FLOOR * float(len_r.max()) ** 2 + BENDING_DENOM_FLOOR
    den = np.hypot(dtau[:, 0], dtau[:, 1])
    den *= len_r
    den += floor_eps
    dtau *= dr
    num = np.add(0.0, dtau[:, 0])             # np.sum(dr * dtau, axis=1), as geometry.dot3
    num += dtau[:, 1]
    np.abs(num, out=num)
    num /= den
    return float(num.max())


def uniform_positions(pair: MarkedPair, n: int) -> np.ndarray:
    """n equally spaced correspondence positions, for refinement studies;
    ValueError unless n is an integer (a fraction spaces the wraparound gap
    unevenly) in [3, ``MAX_SAMPLES``], by :func:`geometry.check_count`."""
    check_count(n, "n", 3, MAX_SAMPLES, high_name="MAX_SAMPLES")
    return np.arange(n) * (pair.F1.perimeter / n)
