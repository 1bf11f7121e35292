import math

import numpy as np
import pytest

from isocomb.combination import VertexEvents
from isocomb.errors import AntipodalEdge, DegenerateEdge, NotConvexSpherical, NotOnSphere
from isocomb.geometry import (
    TAU,
    brent_root,
    merge_collinear,
    merged_vertex_positions,
    norm_angle,
    norm_angle_many,
    reduce_mod,
    roll_next,
    roll_prev,
)
from isocomb.planar import build_polygon
from isocomb.spherical import (
    LINK_CAP_ANGLE,
    LINK_MAX_ATTEMPTS,
    SphericalPolygon,
    _cap_samples,
    _scaled_hull_perimeter,
    build_spherical_polygon,
    gnomonic,
    gnomonic_inverse,
)
from isocomb.tolerances import (
    BENDING_DENOM_FLOOR,
    BRENT_RTOL,
    BRENT_XTOL,
    COLLINEAR_EPS,
    GAUSS_BONNET_TOL,
    RELATIVE_TAU_FLOOR,
    SNAP_FACTOR,
    UNIT_NORM_TOL,
)


def support_polygon(n, radius, coeffs, base_frac=0.0):
    """Dense convex polygon from a trigonometric support function.

    coeffs maps frequency -> (cos, sin) amplitude; convex when the
    perturbation keeps h + h'' positive.
    """
    t = np.arange(n) * (2 * np.pi / n)
    h = np.full(n, float(radius))
    hp = np.zeros(n)
    for k, (a, b) in coeffs.items():
        h += a * np.cos(k * t) + b * np.sin(k * t)
        hp += -a * k * np.sin(k * t) + b * k * np.cos(k * t)
    pts = np.column_stack([h * np.cos(t) - hp * np.sin(t), h * np.sin(t) + hp * np.cos(t)])
    poly = build_polygon(pts)
    return poly.with_base(base_frac * poly.perimeter)


def support_link(n, radius, coeffs):
    """Dense convex spherical polygon: gnomonic lift of a support curve."""
    flat = support_polygon(n, radius, coeffs)
    return build_spherical_polygon(gnomonic_inverse(flat.vertices))


def ring_vertices(n, rho, offset=0.0):
    """n points at colatitude rho around +x0, counterclockwise from outside."""
    phi = np.arange(n) * (TAU / n) + offset
    return np.column_stack(
        [np.full(n, math.cos(rho)), math.sin(rho) * np.cos(phi), math.sin(rho) * np.sin(phi)]
    )


def ellipse_link_vertices(rng, n, a, b, perimeter=3.0):
    """Vertices of a dense convex link: ``n`` sorted uniform angles on the
    ellipse of semi-axes ``a`` and ``b`` in the gnomonic plane, scaled so
    that the lifted link's perimeter is ``perimeter``."""
    t = np.sort(rng.uniform(0.0, TAU, n))
    w = np.column_stack([a * np.cos(t), b * np.sin(t)])
    lifted = _scaled_hull_perimeter(w)
    return gnomonic_inverse(brent_root(lambda lam: lifted(lam) - perimeter, 1e-3, 1.0) * w)


def random_rotation(rng):
    """Uniformly random 3x3 rotation (determinant +1)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def circ_dist_many(a, b):
    """Minimal absolute difference of angles modulo 2*pi, in [0, pi], on
    arrays (broadcasting); the distance the alignment margins measure."""
    d = np.mod(np.asarray(a) - np.asarray(b), TAU)
    return np.pi - np.abs(d - np.pi)


def dense_alignment_margins(g_scan, g):
    """Reference for geometry.alignment_margins: the full m x m gap matrix.

    Each gap is the real difference g_scan[k] - g[j], taken as
    circ_dist_many while it lies inside (-pi, pi) and as its absolute
    value otherwise, so a gap of pi or more is never wrapped back below pi.
    """
    x, y = np.asarray(g_scan)[None, :], np.asarray(g)[:, None]
    diff = x - y
    gaps = np.where(np.abs(diff) < math.pi, circ_dist_many(x, y), np.abs(diff))
    return math.pi - gaps.max(axis=1)


def circular_alignment_margins(g_scan, g):
    """The gap matrix measured modulo 2*pi, which wraps gaps of pi or more."""
    x, y = np.asarray(g_scan)[None, :], np.asarray(g)[:, None]
    return math.pi - circ_dist_many(x, y).max(axis=1)


def geodesic_length(a, b):
    """Great-circle distance between unit vectors, stable near 0 and pi."""
    return float(np.arctan2(np.linalg.norm(np.cross(a, b)), np.dot(a, b)))


def scalar_locate(poly, s):
    """Reference for the shared arc-length locator: the former scalar
    ``planar._locate``, edge index and offset for one position."""
    x = reduce_mod(poly.base_s + s, poly.perimeter)
    i = int(np.searchsorted(poly.cum_lengths, x, side="right")) - 1
    u = x - poly.cum_lengths[i]
    snap = SNAP_FACTOR * poly.perimeter
    if u <= snap:
        return i, 0.0
    nxt = poly.cum_lengths[i + 1] if i + 1 < poly.n_vertices else poly.perimeter
    if nxt - x <= snap:
        return (i + 1) % poly.n_vertices, 0.0
    return i, u


def turning_function_directions(poly, ss, offset):
    """Reference for ``combination._unwrapped_direction_values``: the former
    turning-function route.  The cumulative turning is a right-continuous
    step function of the sorted vertex positions; a vertex at the base, or
    within the snap distance after it, turns at the perimeter.  The value
    at ``s`` is the right semitangent at the base plus ``offset`` plus the
    turning at ``s``."""
    pos = poly.vertex_positions()
    pos = np.where(pos <= SNAP_FACTOR * poly.perimeter, poly.perimeter, pos)
    order = np.argsort(pos, kind="stable")
    breakpoints, values = pos[order], np.cumsum(poly.exterior_angles[order])
    idx = np.searchsorted(breakpoints, ss, side="right") - 1
    turn = np.where(idx >= 0, values[np.maximum(idx, 0)], 0.0)
    base, _ = scalar_locate(poly, 0.0)
    return norm_angle(float(poly.edge_dirs[base])) + offset + turn


def row_directions(poly, bps, rows, offset=0.0):
    """``combination._row_directions`` over the pieces from the merged
    breakpoints ``bps``, piece 0's edge located at its middle as
    ``combination._row_gaps`` locates it."""
    from isocomb.combination import _row_directions

    (edge,), _ = poly.locate([0.5 * bps[1]])
    return _row_directions(poly, edge, rows, len(bps), offset)


def former_unwrapped_direction_values(poly, scan, offset):
    """Reference for ``combination._row_gaps``: the located route it
    replaced.  ``scan[0]`` is the base point, whose located edge is the
    base edge.  Each value is the base edge's direction plus the exterior
    turns from the base edge on to the located edge.  A position on the
    base edge past half the perimeter has come round the curve and counts
    the full turn, since no edge of a closed convex polygon spans half of
    it."""
    idx, _ = poly.locate(scan)
    k = int(idx[0]) + 1
    ext = poly.exterior_angles
    turns = np.cumsum(np.concatenate([ext[k:], ext[:k]]))   # turns[i - k] on reaching edge i
    before = (idx == k - 1) & (scan < 0.5 * poly.perimeter)
    return norm_angle(float(poly.edge_dirs[k - 1])) + offset + np.where(before, 0.0, turns[idx - k])


def former_scanned_gap(pair):
    """Merged breakpoints, and the gap g = phi1 - phi2 of unwrapped right
    semitangents at them followed by mid-piece samples (which close merge
    gaps): the scan ``combination.align`` and ``semitangent_condition``
    read before the row gaps."""
    from isocomb.combination import merged_breakpoints

    bps = merged_breakpoints(pair)
    ends = np.concatenate([bps[1:], [pair.F1.perimeter]])
    scan = np.concatenate([bps, 0.5 * (bps + ends)])
    g_scan = former_unwrapped_direction_values(pair.F1, scan, 0.0) - former_unwrapped_direction_values(
        pair.F2, scan, pair.motion.rotation
    )
    return bps, g_scan


def former_alignment_margins(g_scan, g):
    """``geometry.alignment_margins`` when it took the scanned values and
    the candidates apart: the margin of each ``g[j]`` against ``g_scan - g[j]``."""
    g_scan = np.asarray(g_scan, dtype=float)
    g = np.asarray(g, dtype=float)
    hi, lo = g_scan.max(), g_scan.min()
    reach = np.maximum(hi - g, g - lo)
    near = np.maximum(circ_dist_many(hi, g), circ_dist_many(lo, g))
    return np.where(reach < math.pi, math.pi - near, math.pi - reach)


def former_align(pair, scan=None):
    """``combination.align`` on the former scan: (sigma0, motion, margin),
    or None where it raised AlignmentNotFound; ``scan`` is the pair's
    :func:`former_scanned_gap`, taken here when not given."""
    from isocomb.combination import AlignmentResult
    from isocomb.geometry import RigidMotion2, Vec2, apply_motion, compose
    from isocomb.planar import point_at
    from isocomb.tolerances import MARGIN_EPS, MARGIN_TIE_TOL

    bps, g_scan = former_scanned_gap(pair) if scan is None else scan
    g = g_scan[: len(bps)]
    margins = former_alignment_margins(g_scan, g)
    j = int(np.argmax(margins >= margins.max() - MARGIN_TIE_TOL))
    margin = float(margins[j])
    if margin <= MARGIN_EPS:
        return None
    sigma0 = float(bps[j])
    rho = norm_angle(float(g[j]))
    p1 = point_at(pair.F1, sigma0)
    p2 = apply_motion(pair.motion, point_at(pair.F2, sigma0))
    c, s = math.cos(rho), math.sin(rho)
    t = Vec2(p1.x - (c * p2.x - s * p2.y), p1.y - (s * p2.x + c * p2.y))
    return AlignmentResult(sigma0, compose(RigidMotion2(rho, t), pair.motion), margin)


def former_semitangent_condition(pair, scan=None):
    """``combination.semitangent_condition`` on the former scan, given as
    by :func:`former_align`."""
    _, g = former_scanned_gap(pair) if scan is None else scan
    angles = g - g[0] + norm_angle(float(g[0]))
    return math.pi - float(np.max(np.abs(angles)))


def spherical_locate(poly, ss):
    """Reference for the shared arc-length locator: the locate block that
    the former ``spherical.sph_points_at`` carried before it used the shared one."""
    ss = np.asarray(ss, dtype=float)
    x = np.mod(poly.base_s + ss, poly.perimeter)
    x[x >= poly.perimeter] = 0.0
    idx = np.searchsorted(poly.cum_lengths, x, side="right") - 1
    snap = SNAP_FACTOR * poly.perimeter
    nxt = np.concatenate([poly.cum_lengths[1:], [poly.perimeter]])
    bump = nxt[idx] - x <= snap
    idx[bump] = (idx[bump] + 1) % poly.n_vertices
    u = x - poly.cum_lengths[idx]
    u[bump] = 0.0
    u[u <= snap] = 0.0
    return idx, u


def loop_refine(positions, period, max_step):
    """Reference for ``cones._refine``: the per-gap loop it replaced."""
    ends = np.concatenate([positions[1:], [period]])
    chunks = []
    for a, b in zip(positions, ends):
        k = max(1, int(math.ceil((b - a) / max_step)))
        chunks.append(a + (b - a) * np.arange(k) / k)
    return np.concatenate(chunks)


def arc_queries(poly, rng, n_random=200):
    """Arc positions that stress the locator: random ones inside, below 0
    and past the perimeter, every vertex and one ulp either side of it
    (from the base and from the raw arc origin), positions inside and
    outside the snap distance of every vertex, and 0.0 / -0.0."""
    p = poly.perimeter
    pos = poly.vertex_positions()
    marks = np.concatenate([pos, pos + p, pos - p, [p, -p, 2 * p]])
    snap = SNAP_FACTOR * p
    return np.concatenate([
        rng.uniform(-3 * p, 4 * p, size=n_random),
        *(pos + k * snap for k in (-2.0, -1.5, -0.75, -0.5, 0.5, 0.75, 1.5, 2.0)),
        marks,
        np.nextafter(marks, -np.inf),
        np.nextafter(marks, np.inf),
        poly.cum_lengths - poly.base_s,
        np.nextafter(poly.cum_lengths - poly.base_s, -np.inf),
        np.nextafter(poly.cum_lengths - poly.base_s, np.inf),
        [0.0, -0.0, 5e-324, -5e-324],
    ])


# -- the spherical kernel before its column-arithmetic rewrite ------------------
# Reference for the rewritten spherical primitives and builder: the former
# np.cross / np.roll / np.sum / np.linalg.norm code with only the names changed.

def former_unit_rows(v):
    v = np.asarray(v, dtype=float)
    n = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    return v / n


def former_edge_lengths(verts):
    nxt = np.roll(verts, -1, axis=0)
    cross = np.cross(verts, nxt)
    s = np.linalg.norm(cross, axis=1)
    c = np.sum(verts * nxt, axis=1)
    return np.arctan2(s, c)


def former_tangent_toward(at, toward):
    t = toward - np.sum(toward * at, axis=-1, keepdims=True) * at
    return former_unit_rows(t)


def former_signed_turns(verts):
    prv = np.roll(verts, 1, axis=0)
    nxt = np.roll(verts, -1, axis=0)
    arrive = -former_tangent_toward(verts, prv)
    depart = former_tangent_toward(verts, nxt)
    cross = np.cross(arrive, depart)
    return np.arctan2(np.sum(verts * cross, axis=1), np.sum(arrive * depart, axis=1))


def former_interior_angles(verts):
    prv = np.roll(verts, 1, axis=0)
    nxt = np.roll(verts, -1, axis=0)
    a = former_tangent_toward(verts, prv)
    b = former_tangent_toward(verts, nxt)
    dots = np.clip(np.sum(a * b, axis=1), -1.0, 1.0)
    return np.arccos(dots)


def former_fan_area(verts):
    apex = former_unit_rows(np.mean(verts, axis=0))
    a = verts
    b = np.roll(verts, -1, axis=0)
    triple = np.sum(apex * np.cross(a, b), axis=1)
    denom = 1.0 + a @ apex + np.sum(a * b, axis=1) + b @ apex
    return float(np.sum(2.0 * np.arctan2(triple, denom)))


def former_gnomonic_inverse(w):
    w = np.asarray(w, dtype=float)
    scale = 1.0 / np.sqrt(1.0 + np.sum(w * w, axis=1))
    return np.column_stack([scale, w[:, 0] * scale, w[:, 1] * scale])


def former_centroid_direction(poly):
    a = poly.vertices
    b = np.roll(a, -1, axis=0)
    normals = former_unit_rows(np.cross(a, b))
    c = 0.5 * np.sum(former_edge_lengths(a)[:, None] * normals, axis=0)
    n = np.linalg.norm(c)
    if n < 1e-14:
        raise NotConvexSpherical("degenerate centroid direction")
    return c / n


def former_build_spherical_polygon(vertices, base_s=0.0, *, collinear_eps=COLLINEAR_EPS):
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) < 3:
        raise ValueError("expected at least 3 spherical vertices of shape (n, 3)")
    if not np.all(np.isfinite(verts)):
        raise ValueError("vertices must be finite")
    norms = np.linalg.norm(verts, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise NotOnSphere(f"vertex norm off unity by {np.max(np.abs(norms - 1.0)):.3e}")
    verts = former_unit_rows(verts)

    while True:
        lengths = former_edge_lengths(verts)
        perimeter = float(np.sum(lengths))
        dots = np.sum(verts * np.roll(verts, -1, axis=0), axis=1)
        if np.any((lengths > math.pi - 1e-9) | (dots <= -1.0 + 1e-12)):
            raise AntipodalEdge("consecutive vertices are antipodal")
        if np.any(lengths < 1e-12 * perimeter):
            raise DegenerateEdge("consecutive vertices coincide within tolerance")
        turns = former_signed_turns(verts)
        keep, base_s = merge_collinear(
            turns, lengths, base_s, collinear_eps,
            NotConvexSpherical, "negative geodesic turning",
        )
        if keep is None:
            break
        verts = verts[keep]

    if perimeter >= TAU:
        raise NotConvexSpherical(f"link perimeter {perimeter:.12f} is not below 2*pi")
    area = float(np.sum(former_interior_angles(verts))) - (len(verts) - 2) * math.pi
    residual = abs(float(np.sum(turns)) + area - TAU)
    if residual > GAUSS_BONNET_TOL:
        raise NotConvexSpherical(f"Gauss-Bonnet residual {residual:.3e}")
    if abs(former_fan_area(verts) - area) > GAUSS_BONNET_TOL:
        raise NotConvexSpherical("fan area disagrees with angle excess (winding?)")
    if not 0.0 < area < TAU:
        raise NotConvexSpherical(f"enclosed area {area:.12f} outside (0, 2*pi)")

    cum = np.concatenate([[0.0], np.cumsum(lengths[:-1])])
    return SphericalPolygon(
        vertices=verts,
        cum_lengths=cum,
        perimeter=perimeter,
        base_s=reduce_mod(base_s, perimeter),
        turning=turns,
        area=area,
        gauss_bonnet_residual=residual,
    )


def scipy_brentq(f, a, b, maxiter=100):
    """The oracle of ``geometry.brent_root``: scipy's brentq at its tolerances."""
    from scipy.optimize import brentq

    return brentq(f, a, b, xtol=BRENT_XTOL, rtol=BRENT_RTOL, maxiter=maxiter)


def brent_outcomes(f, a, b, maxiter=100):
    """What ``brent_root`` and the scipy oracle each do on one bracket: the
    root's bits (or the exception type) and the bits of every argument
    ``f`` was called with, in order."""
    outcomes = []
    for solve in (brent_root, lambda g, lo, hi: scipy_brentq(g, lo, hi, maxiter)):
        calls = []

        def counted(x):
            calls.append(float(x).hex())
            return f(x)

        try:
            result = float(solve(counted, a, b)).hex()
        except (ValueError, RuntimeError) as exc:
            result = type(exc)
        outcomes.append((result, calls))
    return outcomes


def qhull_from_least(points):
    """The oracle of ``geometry.convex_hull_2d``: Qhull's hull vertices of
    ``points`` rotated to start at the lexicographically least one, or None
    where Qhull finds no 2-D hull."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        v = ConvexHull(points).vertices
    except QhullError:
        return None
    return np.roll(v, -min(range(len(v)), key=lambda i: tuple(points[v[i]])))


def former_vertex_events(combined):
    """vertex_events as it was before combine carried the merge's rows: it
    merged the pair's vertex positions again and refused a combination
    whose breakpoints differ from that merge."""
    pair, bps = combined.pair, combined.breakpoints
    merged, rows1, rows2 = merged_vertex_positions(pair.F1, pair.F2)
    if not np.array_equal(merged, bps):
        raise ValueError("vertex_events needs a combination on the merged breakpoints")
    m = len(bps)
    case = (np.bincount(rows1, minlength=m) > 0).astype(int) + (np.bincount(rows2, minlength=m) > 0)
    beta1 = math.pi - np.bincount(rows1, weights=pair.F1.exterior_angles, minlength=m)
    beta2 = math.pi - np.bincount(rows2, weights=pair.F2.exterior_angles, minlength=m)
    chords = roll_next(combined.curve) - combined.curve
    dirs = np.arctan2(chords[:, 1], chords[:, 0])
    beta = np.where(case > 0, math.pi - norm_angle_many(dirs - roll_prev(dirs)), math.pi)
    return VertexEvents(bps, case, beta1, beta2, beta)


def former_merge_positions(pos, period, tol):
    """``geometry.merge_positions`` as it was before its runs were merged
    by array operations: one Python step per position that a gap within
    ``tol`` does not keep outright."""
    keep = np.empty(len(pos), dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(pos) > tol
    last = 0
    for i in np.flatnonzero(~keep):
        if keep[i - 1]:
            last = i - 1
        if pos[i] - pos[last] > tol:
            keep[i] = True
            last = i
    out = pos[keep]
    rows = np.cumsum(keep) - 1
    if len(out) > 1 and period - out[-1] <= tol:
        out = out[:-1]
        rows[rows == len(out)] = 0
    return out, rows


def former_combine_aligned(pair):
    """``combination.combine_aligned`` as it was before it built the
    combination from the alignment's rows: align, rebase both curves at
    sigma0, and merge and evaluate the rebased pair again."""
    from isocomb.combination import align, apply_alignment, combine

    result = align(pair)
    combined = combine(apply_alignment(pair, result))
    return result, combined


def former_trial_combination(pair):
    """``combine_aligned``, ``bending_check`` and ``vertex_events`` of a
    planar trial as they were before each curve was located once and the
    combined chords measured once: the gap read piece 0's edge from a
    locate of its middle, ``points_at`` located the rows again, and the
    certificate (after the deduplication), the residual and beta each
    measured the combined chords.  Returns the alignment result, the
    combination's curve, bending samples, positions and vertex rows, its
    certificate, the bending residual and the vertex events."""
    from types import SimpleNamespace

    from isocomb.combination import AlignmentResult, apply_alignment
    from isocomb.errors import AlignmentNotFound
    from isocomb.geometry import (
        RigidMotion2, Vec2, alignment_margins, apply_motion, apply_motion_many, compose, unwrap_turns,
    )
    from isocomb.planar import FAILED_CERTIFICATE, _dedup_closed, convexity_certificate
    from isocomb.tolerances import MARGIN_EPS, MARGIN_TIE_TOL

    F1, F2 = pair.F1, pair.F2
    bps, rows1, rows2 = merged_vertex_positions(F1, F2)
    m = len(bps)

    def directions(poly, rows, offset):
        row_turns = np.bincount(rows, weights=poly.exterior_angles, minlength=m)
        (i,), _ = poly.locate([0.5 * bps[1]])
        return unwrap_turns(norm_angle(float(poly.edge_dirs[i])) + offset, row_turns)

    g = directions(F1, rows1, 0.0) - directions(F2, rows2, pair.motion.rotation)
    margins = alignment_margins(g)
    j = int(np.argmax(margins >= margins.max() - MARGIN_TIE_TOL))
    margin = float(margins[j])
    if margin <= MARGIN_EPS:
        raise AlignmentNotFound(f"best margin {margin:.3e} rad at sigma0={bps[j]!r} is not positive")
    first = 0 if j == 0 or not (rows1.all() and rows2.all()) else 1
    at = bps.take(np.concatenate([np.arange(j, m), np.arange(first, j)]))
    rows1, rows2 = (np.where(r >= j, r - j, r + (m - j - first)) for r in (rows1, rows2))
    pts1, pts2 = F1.points_at(at), F2.points_at(at)
    sigma0 = float(at[0])
    rho = norm_angle(float(g[j]))
    q = apply_motion(pair.motion, pts2[0])
    c, s = math.cos(rho), math.sin(rho)
    t = Vec2(float(pts1[0][0]) - (c * q.x - s * q.y), float(pts1[0][1]) - (s * q.x + c * q.y))
    motion = compose(RigidMotion2(rho, t), pair.motion)
    result = AlignmentResult(sigma0, motion, margin)
    positions = at - sigma0
    positions[positions < 0.0] += F1.perimeter
    pts2 = apply_motion_many(apply_alignment(pair, result).motion, pts2)
    curve, tau = pts1 + pts2, pts1 - pts2

    certificate = FAILED_CERTIFICATE
    pts = _dedup_closed(curve)
    if len(pts) >= 3:
        try:
            certificate = convexity_certificate(pts)
        except DegenerateEdge:
            pass
    residual = former_bending_check(SimpleNamespace(curve=curve, tau_segments=tau))
    n = len(at)
    case = (np.bincount(rows1, minlength=n) > 0).astype(int) + (np.bincount(rows2, minlength=n) > 0)
    beta1 = math.pi - np.bincount(rows1, weights=F1.exterior_angles, minlength=n)
    beta2 = math.pi - np.bincount(rows2, weights=F2.exterior_angles, minlength=n)
    chords = roll_next(curve) - curve
    dirs = np.arctan2(chords[:, 1], chords[:, 0])
    beta = np.where(case > 0, math.pi - norm_angle_many(dirs - roll_prev(dirs)), math.pi)
    events = VertexEvents(positions, case, beta1, beta2, beta)
    return result, curve, tau, positions, (rows1, rows2), certificate, residual, events


def former_combined_cone(r1, r2, at):
    """``cones._combined_cone`` as it was before it built the combined link
    in one pass: every event, the base event 0 included, goes to the
    builder, which merges a collinear base event away in a pass of its own."""
    from isocomb.cones import ConvexCone3
    from isocomb.errors import AntipodalCorrespondence
    from isocomb.geometry import dot3
    from isocomb.tolerances import ANTIPODAL_EPS, IMAGE_COLLINEAR_EPS

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


def former_dilate_to_perimeter(poly, target, center):
    """``planar.dilate_to_perimeter`` as it was before it carried the
    directions over: the dilated vertices rebuilt from scratch."""
    if target <= 0.0:
        raise ValueError("target perimeter must be positive")
    ratio = target / poly.perimeter
    c = np.asarray(center, dtype=float)
    return build_polygon(c + ratio * (poly.vertices - c), base_s=poly.base_s * ratio)


def former_random_convex_link(rng, target_length, n_points=24):
    """``random_convex_link`` on the former kernel: same draws, same search,
    Qhull's hull rotated to start at its lexicographically least vertex."""
    from scipy.optimize import brentq

    if not 0.0 < target_length < TAU:
        raise ValueError("target link length must lie in (0, 2*pi)")
    for _ in range(LINK_MAX_ATTEMPTS):
        pts = _cap_samples(rng, n_points, LINK_CAP_ANGLE)
        w = gnomonic(pts)
        hull = qhull_from_least(w)
        if hull is None:
            continue
        wh = w[hull]
        if len(wh) < 3:
            continue

        def perim(lam):
            return float(np.sum(former_edge_lengths(former_gnomonic_inverse(lam * wh))))

        if perim(1.0) <= target_length * 1.0000001:
            continue
        lam = brentq(lambda t: perim(t) - target_length, 1e-9, 1.0, xtol=1e-15, rtol=8.9e-16)
        verts = former_gnomonic_inverse(lam * wh)
        try:
            poly = former_build_spherical_polygon(verts)
        except (NotConvexSpherical, DegenerateEdge, AntipodalEdge):
            continue
        if abs(poly.perimeter - target_length) > 1e-10:
            continue
        return poly.with_base(rng.uniform(0.0, poly.perimeter))
    raise RuntimeError("could not generate a convex link")


def former_sph_points_at(poly, ss):
    idx, u = poly.locate(ss)
    a = poly.vertices[idx]
    b = poly.vertices[(idx + 1) % poly.n_vertices]
    theta = (poly.edge_ends() - poly.cum_lengths)[idx]
    st = np.sin(theta)
    out = (np.sin(theta - u)[:, None] * a + np.sin(u)[:, None] * b) / st[:, None]
    exact = u == 0.0
    out[exact] = a[exact]
    return out


# -- the arc and alignment kernels before they worked once per edge ----------------
# References for the rewritten kernels: the former bodies with only the names changed.

def former_points_at(poly, ss):
    idx, u = poly.locate(ss)
    base = poly.vertices[idx]
    d = poly.edge_dirs[idx]
    return base + u[:, None] * np.stack([np.cos(d), np.sin(d)], axis=1)


def former_image_directions(samples):
    """The search image's unwrapped chord directions before the plane's rule:
    ``np.unwrap``, which the package's hand copy equalled bit for bit."""
    d = roll_next(samples) - samples
    return np.unwrap(np.arctan2(d[:, 1], d[:, 0]))


def former_bending_check(combined):
    dr = roll_next(combined.curve) - combined.curve
    dtau = roll_next(combined.tau_segments) - combined.tau_segments
    len_r = np.hypot(dr[:, 0], dr[:, 1])
    floor_eps = RELATIVE_TAU_FLOOR * float(np.max(len_r)) ** 2 + BENDING_DENOM_FLOOR
    num = np.abs(np.sum(dr * dtau, axis=1))
    den = len_r * np.hypot(dtau[:, 0], dtau[:, 1]) + floor_eps
    return float(np.max(num / den))


def former_position_and_combine(K1, K2, max_step=math.inf):
    """``cones.position_and_combine`` before it evaluated each link once: the
    search image came from ``transform_link_pair``, and each candidate built
    the rotated first cone and passed it to ``combine_cones``, which merged
    and evaluated both links again."""
    from dataclasses import replace

    from isocomb import cones
    from isocomb.errors import AntipodalCorrespondence, PositioningNotFound
    from isocomb.geometry import (
        alignment_margins,
        chain_chords,
        rotate_about_x0_many,
        turns,
        unwrap_turns,
    )
    from isocomb.spherical import unit_rows
    from isocomb.tolerances import MARGIN_EPS

    C1 = cones.normalize_cone(K1)
    C2 = cones.normalize_cone(K2)
    image = cones.transform_link_pair(C1.link, C2.link, max_step=max_step)
    m = len(image.events)
    if m < 3:
        raise PositioningNotFound(f"only {m} correspondence breakpoints survive the merge")
    p1, p2 = chain_chords(image.image1)[2], chain_chords(image.image2)[2]
    th1, th2 = unwrap_turns(p1[0], turns(p1)), unwrap_turns(p2[0], turns(p2))
    g = th1 - th2
    margins = alignment_margins(g)

    tried = 0
    for j in np.nonzero(margins > MARGIN_EPS)[0]:
        tried += 1
        psi = norm_angle(float(th2[j] - th1[j]))
        turned = unit_rows(rotate_about_x0_many(psi, C1.link.vertices))
        rotated = cones.ConvexCone3(replace(C1.link, vertices=turned))
        try:
            combined = cones.combine_cones(rotated, C2)
        except (NotConvexSpherical, AntipodalCorrespondence, DegenerateEdge, AntipodalEdge):
            continue
        return cones.PositioningReport(
            psi=psi,
            sigma0=float(image.positions[j]),
            margin=float(margins[j]),
            combined=combined,
            cone1=rotated,
            cone2=C2,
            candidates_tried=tried,
        )
    raise PositioningNotFound(
        f"no certified candidate among {tried} with margin > {MARGIN_EPS} "
        f"(best margin {margins.max():.3e})"
    )


# -- the turn reduction the shared one replaced ------------------------------------

def former_exterior_angles(dirs):
    """Exterior angle at vertex i: turn from edge i-1 to edge i, in (-pi, pi]."""
    turns = dirs - roll_prev(dirs)
    turns = np.mod(turns, TAU)
    turns[turns > math.pi] -= TAU
    return turns


# -- the digon ladder's distance: the matrix route it replaced, and its oracle ------

def former_link_hausdorff(a, b, n=1024):
    """``cones.link_hausdorff`` before it measured to edges: the arccos of
    every pair of the two links' n samples, an (n, n) matrix."""
    sa = a.points_at(np.arange(n) * (a.perimeter / n))
    sb = b.points_at(np.arange(n) * (b.perimeter / n))
    dots = np.clip(sa @ sb.T, -1.0, 1.0)
    dist = np.arccos(dots)
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def edge_distance_hausdorff(a, b, n):
    """The edge distance of ``cones.link_hausdorff`` written out from its
    definition, one edge at a time: the foot of the perpendicular
    q = p - h nrm is on the edge (v, w) when (v x q) . nrm >= 0 and
    (q x w) . nrm >= 0, and the distance is then atan2(|h|, |q|); otherwise
    it is the distance to the nearer end."""
    far = 0.0
    for src, dst in ((a, b), (b, a)):
        p = np.concatenate([src.points_at(np.arange(n) * (src.perimeter / n)), src.vertices])
        dist = np.full(len(p), np.inf)
        for v, w in zip(dst.vertices, np.roll(dst.vertices, -1, axis=0)):
            nrm = np.cross(v, w)
            nrm /= np.linalg.norm(nrm)
            h = p @ nrm
            q = p - h[:, None] * nrm
            on = (np.cross(v, q) @ nrm >= 0.0) & (np.cross(q, w) @ nrm >= 0.0)
            ends = [np.arctan2(np.linalg.norm(np.cross(p, e), axis=1), p @ e) for e in (v, w)]
            to_foot = np.arctan2(np.abs(h), np.linalg.norm(q, axis=1))
            dist = np.minimum(dist, np.where(on, to_foot, np.minimum(*ends)))
        far = max(far, float(dist.max()))
    return far


# -- the row kernels before they wrote into arrays they own -------------------------
# References for the in-place rewrites: the former expression forms, each a
# new array per operation, with only the names changed.

def former_planar_points_on_edges(poly, idx, u):
    d = poly.edge_dirs
    step = np.stack([np.cos(d), np.sin(d)], axis=1).take(idx, axis=0)
    v = poly.vertices.take(idx, axis=0)
    out = v + u[:, None] * step
    if (poly.vertices == 0.0).any():
        np.copyto(out, v, where=(u == 0.0)[:, None])
    return out


def former_sph_points_on_edges(poly, idx, u):
    vt = poly.vertices.T
    a = vt.take(idx, axis=1)
    b = vt.take(idx + 1, axis=1, mode="wrap")
    theta = np.append(poly.cum_lengths[1:], poly.perimeter) - poly.cum_lengths
    st = np.sin(theta).take(idx)
    theta = theta.take(idx)
    out = (np.sin(theta - u) * a + np.sin(u) * b) / st
    np.copyto(out, a, where=u == 0.0)
    return out.T


def former_refine(positions, period, max_step):
    if max_step == math.inf:
        return positions, np.arange(len(positions))
    gaps = np.append(positions[1:], period) - positions
    counts = np.maximum(1.0, np.ceil(gaps / max_step)).astype(np.int64)
    firsts = np.cumsum(counts) - counts
    k = np.repeat(counts, counts)
    j = np.arange(len(k)) - np.repeat(firsts, counts)
    return np.repeat(positions, counts) + np.repeat(gaps, counts) * j / k, firsts


def former_bending_rows(combined):
    """``combination.bending_check`` on the combination's own chords, as it
    was before it wrote into its difference rows."""
    dr, len_r = combined.chords, combined.chord_lengths
    dtau = roll_next(combined.tau_segments) - combined.tau_segments
    floor_eps = RELATIVE_TAU_FLOOR * float(np.max(len_r)) ** 2 + BENDING_DENOM_FLOOR
    p = dr * dtau
    num = np.abs(0.0 + p[:, 0] + p[:, 1])
    den = len_r * np.hypot(dtau[:, 0], dtau[:, 1]) + floor_eps
    return float(np.max(num / den))


SPHERICAL_POLYGON_FIELDS = ("vertices", "cum_lengths", "perimeter", "base_s")


def assert_same_bits(a, b, what=""):
    """Equal shape, dtype and bytes: bit for bit, signed zeros and NaNs included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, what
    assert a.tobytes() == b.tobytes(), what


def former_turning_rounding(poly):
    """Bound on |turning - former turning| at each vertex of ``poly``.

    The former kernel read each turning from unit tangents unit(w - (v.w) v):
    a difference of unit-size terms whose result has length sin(l), so its
    direction rounds by about eps / sin(l), and its normalization by eps.
    The builder reads edge normals v x (w - v), accurate to a few eps of
    themselves at any length.  A turning is the angle between the arriving
    and the departing direction at a vertex, so it moves by the sum of their
    direction errors: 4 eps per vector of length sin(l), on the edges in and
    out.  As 1/sin(l) >= 1, that covers the normals' few eps and atan2's
    rounding too.  On the 200 kernel inputs that build, the worst move is
    0.82 eps (1/sin(l_in) + 1/sin(l_out)).
    """
    sines = np.sin(poly.edge_ends() - poly.cum_lengths)
    return 4.0 * np.finfo(float).eps * (1.0 / np.roll(sines, 1) + 1.0 / sines)


def assert_same_spherical_polygon(got, want):
    """The former kernel's fields bit for bit, and its turnings within
    ``former_turning_rounding``; the area is the fan area of the vertices,
    and the residual is |sum of turnings + area - 2*pi|."""
    for name in SPHERICAL_POLYGON_FIELDS:
        assert_same_bits(getattr(got, name), getattr(want, name), name)
    assert np.all(np.abs(got.turning - want.turning) <= former_turning_rounding(want)), "turning"
    assert_same_gauss_bonnet(got)


def assert_same_gauss_bonnet(poly):
    assert_same_bits(poly.area, former_fan_area(poly.vertices), "area")
    residual = abs(float(np.sum(poly.turning)) + poly.area - TAU)
    assert_same_bits(poly.gauss_bonnet_residual, residual, "gauss_bonnet_residual")


@pytest.fixture
def unit_square():
    return build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@pytest.fixture
def octant():
    return build_spherical_polygon([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
