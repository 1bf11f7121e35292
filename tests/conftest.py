import math

import numpy as np
import pytest

from isocomb.geometry import circ_dist_many
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


@pytest.fixture
def unit_square():
    return build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@pytest.fixture
def octant():
    return build_spherical_polygon([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
