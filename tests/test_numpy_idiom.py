"""The row kernels that write into arrays they own, against their former
expression forms, at suite sizes and at 4k rows; and the guard that keeps
suite trials off numpy's Python-level wrapper functions.

Each rewrite runs the same ufuncs on the same operands in the same order,
so every value must be equal, and every zero of the same sign.
"""

import math
import os
import sys

import numpy as np
import pytest

from conftest import (
    former_bending_rows,
    former_planar_points_on_edges,
    former_refine,
    former_sph_points_on_edges,
    support_polygon,
)
from isocomb.cones import _refine, _sample_links
from isocomb.combination import bending_check, combine_aligned, make_pair
from isocomb.geometry import merged_vertex_positions
from isocomb.planar import build_polygon, dilate_to_perimeter
from isocomb.spherical import build_spherical_polygon, random_convex_link
from isocomb.suite import random_convex_polygon, trial_rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import numpy_frames  # noqa: E402


def assert_same_rows(got, want, what=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), what


def _planar_pairs():
    """Suite-sized pairs (trials of seed 5) and one pair of 2000-vertex
    support curves, whose merge gives about 4k rows."""
    pairs = []
    for i in range(6):
        rng = trial_rng(5, i)
        f1 = random_convex_polygon(rng, 3, 30)
        f2 = dilate_to_perimeter(random_convex_polygon(rng, 3, 30), f1.perimeter, (0.0, 0.0))
        pairs.append(make_pair(f1, f2))
    f1 = support_polygon(2000, 1.0, {2: (0.1, 0.05), 3: (0.02, 0.0)})
    f2 = support_polygon(2007, 1.0, {3: (0.05, 0.03), 5: (0.01, 0.0)}, base_frac=0.3)
    pairs.append(make_pair(f1, dilate_to_perimeter(f2, f1.perimeter, (0.0, 0.0))))
    return pairs


PLANAR_PAIRS = _planar_pairs()
# vertices with +0.0 and -0.0 coordinates: the line step's masked copy keeps their signs
SIGNED_ZERO_POLYGONS = [
    build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], base_s=0.3),
    build_polygon([(-0.0, -1.0), (1.0, -0.0), (0.0, 1.0), (-1.0, 0.0)], base_s=1.1),
]


def _links():
    """Suite-sized link pairs, and links with +0.0 and -0.0 coordinates."""
    pairs = []
    for i in range(4):
        rng = trial_rng(9, i)
        target = rng.uniform(0.5, 5.5)
        pairs.append((random_convex_link(rng, target), random_convex_link(rng, target)))
    octant = build_spherical_polygon([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)], base_s=0.4)
    signed = build_spherical_polygon([(1.0, -0.0, 0.0), (-0.0, 1.0, 0.0), (0.0, -0.0, 1.0)], base_s=2.0)
    return pairs, [octant, signed]


LINK_PAIRS, SIGNED_ZERO_LINKS = _links()


def _planar_rows():
    """(polygon, positions) at suite sizes and about 4k rows: the merged
    breakpoints, which land on vertices (offset 0.0), then random positions."""
    rng = np.random.default_rng(17)
    cases = []
    for pair in PLANAR_PAIRS:
        bps = merged_vertex_positions(pair.F1, pair.F2)[0]
        for poly in (pair.F1, pair.F2):
            cases.append((poly, np.concatenate([bps, rng.uniform(0.0, poly.perimeter, 50)])))
    for poly in SIGNED_ZERO_POLYGONS:
        cases.append((poly, np.concatenate([poly.vertex_positions(), rng.uniform(0.0, 4.0, 50)])))
    return cases


def _link_rows():
    """(link, positions): suite-sized links at their merged events, and at
    the events refined to 4096 steps as ``dense-pairs`` samples them."""
    rng = np.random.default_rng(19)
    cases = []
    for l1, l2 in LINK_PAIRS:
        events = merged_vertex_positions(l1, l2)[0]
        dense = _sample_links(l1, l2, l1.perimeter / 4096, midpoints=True)[1]
        for link in (l1, l2):
            cases.append((link, events))
            cases.append((link, dense))
    for link in SIGNED_ZERO_LINKS:
        cases.append((link, np.concatenate([link.vertex_positions(), rng.uniform(0.0, 5.0, 50)])))
    return cases


def test_the_rows_cover_vertices_and_4k_rows():
    # the kernels below are compared on rows at a vertex (offset 0.0) and off
    # one, and on evaluations of 4k rows at least, as dense-pairs runs them
    for cases in (_planar_rows(), _link_rows()):
        offsets = np.concatenate([poly.locate(ss)[1] for poly, ss in cases])
        assert (offsets == 0.0).any() and (offsets > 0.0).any()
        assert max(len(ss) for _, ss in cases) >= 4000


def test_planar_line_step_equals_the_former_expression():
    for poly, ss in _planar_rows():
        idx, u = poly.locate(ss)
        assert_same_rows(poly.points_on_edges(idx, u), former_planar_points_on_edges(poly, idx, u))


def test_slerp_equals_the_former_expression():
    for link, ss in _link_rows():
        idx, u = link.locate(ss)
        got, want = link.points_on_edges(idx, u), former_sph_points_on_edges(link, idx, u)
        assert_same_rows(got, want)
        assert got.flags.f_contiguous        # the (3, n) columns' transpose, as before


def test_refine_equals_the_former_expression():
    for l1, l2 in LINK_PAIRS:
        events, p = merged_vertex_positions(l1, l2)[0], l1.perimeter
        for step in (math.inf, p, p / 7, p / 4096):
            for got, want in zip(_refine(events, p, step), former_refine(events, p, step)):
                assert_same_rows(got, want, step)
    # a base alone, as resolution studies refine it
    for got, want in zip(_refine(np.zeros(1), 3.0, 3.0 / 4096), former_refine(np.zeros(1), 3.0, 3.0 / 4096)):
        assert_same_rows(got, want)


def test_bending_check_equals_the_former_expression():
    for pair in PLANAR_PAIRS:
        combined = combine_aligned(pair)[1]
        assert_same_rows(bending_check(combined), former_bending_rows(combined))


# numpy's Python-level wrapper modules, by basename in numpy 1.x and 2.x:
# each function there runs in front of one C call an array method or a
# ufunc makes directly
NUMPY_WRAPPER_MODULES = {
    "fromnumeric.py",
    "function_base.py", "_function_base_impl.py",
    "shape_base.py", "_shape_base_impl.py",
    "numeric.py",
    "linalg.py", "_linalg.py",
}


@pytest.mark.parametrize("kind", ["planar", "cone"])
def test_a_suite_trial_runs_no_numpy_wrapper_frame(kind):
    # deterministic: one trial at a fixed seed, every Python-level call counted
    frames = numpy_frames.trial_frames(kind, seed=3, trials=1)
    assert frames, "the profile saw no numpy frame"
    wrappers = {module: n for module, n in frames.items()
                if os.path.basename(module) in NUMPY_WRAPPER_MODULES}
    assert wrappers == {}
