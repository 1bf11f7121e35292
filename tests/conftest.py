import math

import numpy as np
import pytest

from isocomb.geometry import SNAP_FACTOR, circ_dist_many, reduce_mod
from isocomb.planar import build_polygon
from isocomb.spherical import build_spherical_polygon, gnomonic_inverse


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


def spherical_locate(poly, ss):
    """Reference for the shared arc-length locator: the locate block that
    ``spherical.sph_points_at`` carried before it used the shared one."""
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


@pytest.fixture
def unit_square():
    return build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@pytest.fixture
def octant():
    return build_spherical_polygon([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
