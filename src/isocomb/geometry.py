"""Elementary 2D/3D vector algebra, angles, the 2-D convex hull, planar
rigid motions and 3-D rotations, the arc-length core shared by planar
and spherical polygons, and the 1-D root solver of the perimeter equations.

Conventions used throughout the package:

* all reals are 64-bit floats;
* direction angles and turns (:func:`turns`; a reversal reads +pi) lie in
  (-pi, pi]; cumulative turnings unwrap by :func:`unwrap_turns`; every
  remainder and unwrap is taken in this module;
* 3-vectors are ordered (x0, x1, x2) and the distinguished axis e0 is
  the first coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import PerimeterMismatch
from .tolerances import (
    BREAKPOINT_MERGE_RTOL,
    BRENT_RTOL,
    BRENT_XTOL,
    PARALLEL_EPS,
    PERIMETER_RTOL,
    REVERSAL_EPS,
    SNAP_FACTOR,
)

TAU = 2.0 * math.pi

E0 = np.array([1.0, 0.0, 0.0])


class Vec2(NamedTuple):
    x: float
    y: float


# An angle in radians.  Direction angles live in (-pi, pi]; unwrapped
# turnings are unrestricted.
Angle = float


def norm_angle(theta: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    t = math.fmod(theta, TAU)
    if t <= -math.pi:
        t += TAU
    elif t > math.pi:
        t -= TAU
    return t


def norm_angle_many(theta: np.ndarray) -> np.ndarray:
    """Vectorized :func:`norm_angle`, equal to it bit for bit."""
    t = np.fmod(theta, TAU)
    np.add(t, TAU, out=t, where=t <= -math.pi)
    return np.subtract(t, TAU, out=t, where=t > math.pi)


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (n, 3) or (3,) arrays in column arithmetic.

    Each component is the difference of the same two products that
    ``np.cross`` forms, in the same order, so the result equals
    ``np.cross(a, b)`` bit for bit without its axis handling.
    """
    out = np.empty(a.shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (n, 3) or (3,) arrays in column arithmetic.

    Equal bit for bit to ``np.sum(a * b, axis=-1)``, and its square root
    on ``(a, a)`` to ``np.linalg.norm(a, axis=-1)``: numpy adds the three
    products in order onto its identity 0.0, which the leading ``0.0 +``
    repeats (it turns a sum of three -0.0 products into +0.0).
    """
    p = a * b
    return 0.0 + p[..., 0] + p[..., 1] + p[..., 2]


def roll_next(a: np.ndarray) -> np.ndarray:
    """``np.roll(a, -1, axis=0)``: row i holds row i + 1, cyclically."""
    return np.concatenate([a[1:], a[:1]])


def roll_prev(a: np.ndarray) -> np.ndarray:
    """``np.roll(a, 1, axis=0)``: row i holds row i - 1, cyclically."""
    return np.concatenate([a[-1:], a[:-1]])


def turns(dirs: np.ndarray) -> np.ndarray:
    """Turn from edge i - 1 to edge i of a closed chain with edge directions
    ``dirs``, in (-pi, pi] by :func:`norm_angle_many` (a reversal reads +pi)."""
    return norm_angle_many(dirs - roll_prev(dirs))


def unwrap_turns(first: float, steps: np.ndarray) -> np.ndarray:
    """Unwrapped direction over each piece of a closed chain: ``first`` over
    piece 0 plus the running sum of the turns ``steps`` at rows 1..r
    (``steps[0]``, the turn into piece 0, is not read)."""
    return first + np.cumsum(np.concatenate([[0.0], steps[1:]]))


def chord_directions(points: np.ndarray) -> np.ndarray:
    """Direction angle of each chord of a closed point chain, points[i] -> points[i + 1]."""
    d = roll_next(points) - points
    return np.arctan2(d[:, 1], d[:, 0])


# the eight axis and diagonal directions, counterclockwise from -y
OCTAGON_DIRECTIONS = np.array([[0.0, -1.0], [1.0, -1.0], [1.0, 0.0], [1.0, 1.0],
                               [0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0]])


def convex_hull_2d(points) -> np.ndarray:
    """Indices of the convex hull vertices of 2-D ``points``, counterclockwise
    from the lexicographic minimum (least x, then least y).

    Points strictly inside the octagon of the eight axis and diagonal
    extremes are no vertices and are dropped first (Akl-Toussaint); Andrew's
    monotone chain runs on the rest in Python floats and keeps strict left
    turns only, so collinear points drop out, a repeated point keeps its
    first index, and a set with no interior gives fewer than 3 indices.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    keep = np.arange(len(p))
    if len(p):
        a = p[np.argmax(OCTAGON_DIRECTIONS @ p.T, axis=1)]
        e = roll_next(a) - a
        edge = (e != 0.0).any(axis=1)
        inside = e[edge, :1] * (p[:, 1] - a[edge, 1:]) > e[edge, 1:] * (p[:, 0] - a[edge, :1])
        keep = np.flatnonzero(~inside.all(axis=0))
    keep = keep[np.lexsort((p[keep, 1], p[keep, 0]))]
    px, py = p[keep, 0].tolist(), p[keep, 1].tolist()

    def chain(ks):
        out = []
        for k in ks:
            while len(out) >= 2:
                i, j = out[-2], out[-1]
                if (px[j] - px[i]) * (py[k] - py[i]) - (py[j] - py[i]) * (px[k] - px[i]) > 0.0:
                    break
                out.pop()
            out.append(k)
        return out[:-1]

    ks = [k for k in range(len(keep)) if k == 0 or (px[k], py[k]) != (px[k - 1], py[k - 1])]
    return keep[chain(ks) + chain(ks[::-1])]


# scipy's iteration cap of Brent's method
BRENT_MAXITER = 100


def _brent_value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brent_root(f, a: float, b: float) -> float:
    """Root of ``f`` in the bracket ``[a, b]`` by Brent's method.

    A line-for-line port of scipy's ``brentq.c`` (same branches, same
    expression order), so it equals ``scipy.optimize.brentq(f, a, b,
    xtol=BRENT_XTOL, rtol=BRENT_RTOL)`` bit for bit, in the root and in
    the calls of ``f``.  A division by zero in the interpolation step,
    where C gets an inf or a NaN that fails the step test, bisects.

    Raises:
        ValueError: ``f(a)`` and ``f(b)`` have the same sign, or a value
            of ``f`` is NaN.
        RuntimeError: no convergence within ``BRENT_MAXITER`` iterations.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _brent_value(f, xpre), _brent_value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.nan
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _brent_value(f, xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations, value is {xcur}")


def reduce_mod(t: float, period: float) -> float:
    """Reduce ``t`` into [0, period), exact for t already in range; ValueError if not finite."""
    if 0.0 <= t < period:
        return t
    if not math.isfinite(t):
        raise ValueError(f"base_s must be finite; got {t!r}")
    t = math.fmod(t, period)
    if t < 0.0:
        t += period
    if t >= period:
        t = 0.0
    return t


def common_perimeter(a, b) -> float:
    """Perimeter of ``a``; PerimeterMismatch unless ``b``'s agrees to ``PERIMETER_RTOL``."""
    p = a.perimeter
    if abs(p - b.perimeter) > PERIMETER_RTOL * p:
        raise PerimeterMismatch(f"perimeters {p!r} and {b.perimeter!r} differ beyond tolerance")
    return p


class ArcPolygon:
    """Arc-length core shared by planar and spherical polygons.

    Subclasses are frozen dataclasses with ``vertices`` (one row per
    vertex), ``cum_lengths`` (arc length at each vertex, ``[0] = 0``),
    ``perimeter`` and ``base_s`` (the marked point, in [0, perimeter)).
    A query position ``s`` is measured from the marked point: ``base_s +
    s`` is reduced modulo the perimeter, its edge is found, and a position
    within ``SNAP_FACTOR * perimeter`` of a vertex is that vertex.
    """

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def vertex_positions(self) -> np.ndarray:
        """Arc positions of the vertices measured from the base point."""
        pos = self.cum_lengths - self.base_s
        return np.where(pos < 0.0, pos + self.perimeter, pos)

    def with_base(self, base_s: float):
        """Same polygon, base point moved to arc position ``base_s``."""
        return replace(self, base_s=reduce_mod(base_s, self.perimeter))

    def edge_ends(self) -> np.ndarray:
        """Arc length at the end of each edge; the last one ends at the perimeter."""
        return np.append(self.cum_lengths[1:], self.perimeter)

    def locate(self, ss) -> tuple[np.ndarray, np.ndarray]:
        """Edge index and offset along it for each arc position from the base.

        A position snapped to a vertex gets that vertex's outgoing edge and
        offset exactly 0.0.
        """
        # [p, 2p) reduces by one exact subtraction, 5x cheaper than np.mod;
        # np.mod may round up to p, which snaps to vertex 0 on the last edge
        y = self.base_s + np.asarray(ss, dtype=float)
        x = np.where(y < self.perimeter, y, y - self.perimeter)
        far = (x < 0.0) | (x >= self.perimeter)
        if far.any():
            x[far] = np.mod(y[far], self.perimeter)
        idx = np.searchsorted(self.cum_lengths, x, side="right") - 1
        snap = SNAP_FACTOR * self.perimeter
        bump = self.edge_ends().take(idx) - x <= snap
        idx += bump
        idx[idx == self.n_vertices] = 0
        u = x - self.cum_lengths.take(idx)
        u[bump | (u <= snap)] = 0.0
        return idx, u


def merge_collinear(turns, lengths, base_s: float, eps: float, error, reflex: str):
    """One collinear-merge step of a polygon builder: the mask of vertices
    turning by more than ``eps`` and the base shifted onto the first kept
    one, or ``(None, base_s)`` when every vertex is kept.

    Raises:
        error: a turn below ``-eps`` (message ``reflex``), a reversal, or
            fewer than 3 kept vertices.
    """
    if (turns < -eps).any():
        raise error(f"{reflex} {turns.min():.3e}")
    if (turns >= math.pi - REVERSAL_EPS).any():
        raise error("degenerate reversal at a vertex")
    keep = np.abs(turns) > eps
    if keep.all():
        return None, base_s
    if keep.sum() < 3:
        raise error("fewer than 3 corners after collinear merge")
    first_kept = int(np.argmax(keep))
    return keep, base_s - float(lengths[:first_kept].sum())


def alignment_margins(g) -> np.ndarray:
    """Margin of each candidate ``g[j]`` against the real gaps ``g - g[j]``.

    The values are one period of the periodic unwrapped tangent gap, so
    they are every gap a candidate sees, and the candidate is valid only
    while each lies strictly inside (-pi, pi); measured modulo 2*pi, a gap
    could swing through pi unseen.  With ``reach = max(max(g) - g[j], g[j]
    - min(g))`` below pi the margin is pi minus the largest circular
    distance ``pi - |((g[k] - g[j]) mod 2*pi) - pi|``, attained at an
    extreme because it grows with the absolute difference below pi, so it
    equals the dense m x m scan bit for bit; otherwise the margin is ``pi -
    reach <= 0``.  Two reductions: O(m) time and memory.

    Raises:
        ValueError: if a value is not finite.
    """
    g = np.asarray(g, dtype=float)
    hi, lo = g.max(), g.min()
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("alignment values must be finite")
    up = hi - g
    reach = np.maximum(up, g - lo)
    # read only where reach < pi: there numpy's remainder mod 2*pi is up
    # itself, and lo - g + 2*pi below 0 (its +0.0 at 0 gives the same distance)
    near = np.maximum(math.pi - np.abs(up - math.pi), math.pi - np.abs(lo - g + TAU - math.pi))
    return np.where(reach < math.pi, math.pi - near, math.pi - reach)


def merge_positions(pos: np.ndarray, period: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedily merge sorted arc positions that lie within ``tol``.

    A position is kept when it lies more than ``tol`` past the last kept
    one, starting from ``pos[0]``; a last kept position within ``tol`` of
    ``period`` duplicates ``pos[0]`` and is dropped.  A gap wider than
    ``tol`` always keeps its right end, so only runs of narrower gaps walk
    back to the last kept position.  Returns the kept positions and, for
    each input position, the row it merged into (a dropped last row's
    members go to row 0).
    """
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


def merged_vertex_positions(a: ArcPolygon, b: ArcPolygon) -> tuple[np.ndarray, ...]:
    """Sorted union of both polygons' vertex arc positions plus the base
    point 0, merged by :func:`merge_positions` at ``BREAKPOINT_MERGE_RTOL``
    times the first perimeter, and the row each vertex of ``a`` and ``b`` merged into."""
    p = a.perimeter
    pos = np.concatenate([[0.0], a.vertex_positions(), b.vertex_positions()])
    order = np.argsort(pos, kind="stable")
    out, sorted_rows = merge_positions(pos[order], p, BREAKPOINT_MERGE_RTOL * p)
    rows = np.empty_like(sorted_rows)
    rows[order] = sorted_rows
    return out, rows[1:1 + a.n_vertices], rows[1 + a.n_vertices:]


@dataclass(frozen=True)
class RigidMotion2:
    """Orientation-preserving isometry of the plane: rotate, then translate."""

    rotation: Angle = 0.0
    translation: Vec2 = Vec2(0.0, 0.0)

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        return np.array([[c, -s], [s, c]])


IDENTITY_MOTION = RigidMotion2()


def apply_motion(m: RigidMotion2, p) -> Vec2:
    """Rotate ``p`` about the origin by ``m.rotation``, then translate."""
    x, y = float(p[0]), float(p[1])
    c, s = math.cos(m.rotation), math.sin(m.rotation)
    return Vec2(c * x - s * y + m.translation[0], s * x + c * y + m.translation[1])


def apply_motion_many(m: RigidMotion2, pts: np.ndarray) -> np.ndarray:
    """Apply a rigid motion to an (n, 2) array of points."""
    pts = np.asarray(pts, dtype=float)
    out = pts @ m.matrix().T
    out[:, 0] += m.translation[0]
    out[:, 1] += m.translation[1]
    return out


def compose(m1: RigidMotion2, m2: RigidMotion2) -> RigidMotion2:
    """Motion equal to applying ``m2`` first, then ``m1``."""
    t = apply_motion(m1, m2.translation)
    return RigidMotion2(norm_angle(m1.rotation + m2.rotation), Vec2(t.x, t.y))


def rotate_about_x0_many(psi: Angle, pts: np.ndarray) -> np.ndarray:
    """Rotate an (n, 3) array about the x0-axis."""
    pts = np.asarray(pts, dtype=float)
    c, s = math.cos(psi), math.sin(psi)
    out = np.empty_like(pts)
    out[:, 0] = pts[:, 0]
    out[:, 1] = c * pts[:, 1] - s * pts[:, 2]
    out[:, 2] = s * pts[:, 1] + c * pts[:, 2]
    return out


def rotation_matrix_from_to(a, b) -> np.ndarray:
    """3x3 rotation taking unit vector ``a`` to unit vector ``b``.

    Uses the Rodrigues formula about ``a x b``; for (anti)parallel inputs
    it falls back to the identity or a half-turn about any orthogonal axis.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    axis = cross3(a, b)
    s = float(np.linalg.norm(axis))
    c = float(np.dot(a, b))
    if s < PARALLEL_EPS:
        if c > 0.0:
            return np.eye(3)
        # half turn about an axis orthogonal to a
        helper = np.array([1.0, 0.0, 0.0])
        if abs(a[0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        axis = cross3(a, helper)
        axis /= np.linalg.norm(axis)
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    axis /= s
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)

