import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isocomb import geometry
from isocomb.geometry import (
    IDENTITY_MOTION,
    TAU,
    RigidMotion2,
    Vec2,
    alignment_margins,
    apply_motion,
    apply_motion_many,
    brent_root,
    compose,
    convex_hull_2d,
    cross3,
    dot3,
    merge_positions,
    norm_angle,
    norm_angle_many,
    roll_next,
    roll_prev,
    rotate_about_x0_many,
)

from isocomb.combination import combine_at, make_pair
from isocomb.planar import build_polygon, point_at
from isocomb.spherical import (
    LINK_CAP_ANGLE,
    _cap_samples,
    gnomonic,
    random_convex_link,
)
from isocomb.suite import random_convex_polygon, trial_rng

from conftest import (
    arc_queries,
    assert_same_bits,
    brent_outcomes,
    circ_dist_many,
    circular_alignment_margins,
    dense_alignment_margins,
    former_alignment_margins,
    former_merge_positions,
    former_points_at,
    former_sph_points_at,
    qhull_from_least,
    scalar_locate,
    spherical_locate,
    support_link,
    support_polygon,
)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_apply_motion_identity():
    assert apply_motion(IDENTITY_MOTION, (1.0, 2.0)) == Vec2(1.0, 2.0)


def test_apply_motion_quarter_turn():
    m = RigidMotion2(math.pi / 2, Vec2(0.0, 0.0))
    p = apply_motion(m, (1.0, 0.0))
    assert p.x == pytest.approx(0.0, abs=1e-15)
    assert p.y == pytest.approx(1.0, abs=1e-15)


def test_apply_motion_half_turn_with_shift():
    m = RigidMotion2(math.pi, Vec2(1.0, 1.0))
    p = apply_motion(m, (1.0, 0.0))
    assert p.x == pytest.approx(0.0, abs=1e-15)
    assert p.y == pytest.approx(1.0, abs=1e-15)


def test_compose_identity():
    m = RigidMotion2(0.7, Vec2(0.3, -0.4))
    c = compose(IDENTITY_MOTION, m)
    assert c.rotation == pytest.approx(m.rotation)
    assert c.translation == pytest.approx(m.translation)


def test_compose_inverse_pair():
    c = compose(RigidMotion2(0.9), RigidMotion2(-0.9))
    assert c.rotation == pytest.approx(0.0)
    assert c.translation == pytest.approx((0.0, 0.0))


def test_compose_rotations_add():
    c = compose(RigidMotion2(math.pi / 2), RigidMotion2(math.pi / 2))
    assert c.rotation == pytest.approx(math.pi)


@given(
    r1=angles, r2=angles,
    tx1=angles, ty1=angles, tx2=angles, ty2=angles,
    px=angles, py=angles,
)
def test_compose_matches_sequential_application(r1, r2, tx1, ty1, tx2, ty2, px, py):
    m1 = RigidMotion2(r1, Vec2(tx1, ty1))
    m2 = RigidMotion2(r2, Vec2(tx2, ty2))
    combined = apply_motion(compose(m1, m2), (px, py))
    sequential = apply_motion(m1, apply_motion(m2, (px, py)))
    assert combined.x == pytest.approx(sequential.x, abs=1e-9)
    assert combined.y == pytest.approx(sequential.y, abs=1e-9)


def test_motion_preserves_distances_bulk():
    rng = np.random.default_rng(0)
    m = RigidMotion2(rng.uniform(-3, 3), Vec2(*rng.uniform(-5, 5, size=2)))
    p = rng.uniform(-10, 10, size=(10_000, 2))
    q = rng.uniform(-10, 10, size=(10_000, 2))
    before = np.linalg.norm(p - q, axis=1)
    after = np.linalg.norm(apply_motion_many(m, p) - apply_motion_many(m, q), axis=1)
    assert np.max(np.abs(after - before) / before) < 1e-12


def test_circ_dist_examples():
    assert circ_dist_many(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
    assert circ_dist_many(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)
    assert circ_dist_many(0.0, math.pi) == pytest.approx(math.pi)


@given(a=angles, b=angles, c=angles)
def test_circ_dist_properties(a, b, c):
    assert circ_dist_many(a, b) == pytest.approx(circ_dist_many(b, a), abs=1e-12)
    assert circ_dist_many(a, a) == 0.0
    assert 0.0 <= circ_dist_many(a, b) <= math.pi + 1e-12
    assert circ_dist_many(a, c) <= circ_dist_many(a, b) + circ_dist_many(b, c) + 1e-9


def test_rotate_about_x0_examples():
    assert rotate_about_x0_many(0.37, [(1.0, 0.0, 0.0)])[0] == pytest.approx((1.0, 0.0, 0.0))
    p = rotate_about_x0_many(math.pi / 2, [(0.0, 1.0, 0.0)])[0]
    assert p == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    c, s = 0.8, 0.6
    q = rotate_about_x0_many(math.pi, [(c, s, 0.0)])[0]
    assert q == pytest.approx((c, -s, 0.0), abs=1e-15)


def test_rotate_about_x0_preserves_norm_and_height():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = rng.normal(size=3)
        psi = rng.uniform(-7, 7)
        q = rotate_about_x0_many(psi, [p])[0]
        assert q[0] == p[0]
        assert np.linalg.norm(q) == pytest.approx(np.linalg.norm(p), rel=1e-15)


def test_norm_angle_range():
    assert norm_angle(math.pi) == pytest.approx(math.pi)
    assert norm_angle(-math.pi) == pytest.approx(math.pi)
    assert norm_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)


def test_norm_angle_many_equals_norm_angle_bit_for_bit():
    # turns are differences of directions, in [-2*pi, 2*pi]; wider angles,
    # both ends of the range, their float neighbours and signed zeros too
    rng = np.random.default_rng(65)
    edges = [math.pi, TAU, 3 * math.pi, 0.0]
    edges += [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    theta = np.concatenate([rng.uniform(-TAU, TAU, 2000), rng.uniform(-50.0, 50.0, 2000), edges, np.negative(edges)])
    want = np.array([norm_angle(float(x)) for x in theta])
    assert norm_angle_many(theta).tobytes() == want.tobytes()


# -- alignment kernel and breakpoint merging --------------------------------------

def _kernel_arrays(kind, rng):
    m = int(rng.integers(1, 80))
    if kind == "random":
        return rng.uniform(-20.0, 20.0, m)
    if kind == "ties":
        # a few exact values, repeated, shifted by whole turns and by 1e-16
        vals = rng.choice(np.arange(-8, 9) * (math.pi / 4), m)
        return vals + rng.integers(-2, 3, m) * TAU + rng.choice([0.0, 1e-16, -1e-16], m)
    if kind == "narrow":
        # one window at most pi wide, placed across the points where x mod 2pi wraps
        shift = rng.choice([0.0, 1e-16, rng.uniform(-1.0, 1.0)])
        lo = rng.integers(-6, 7) * (math.pi / 2) + shift
        width = rng.choice([rng.uniform(0.0, math.pi), np.nextafter(math.pi, 0.0), math.pi])
        return lo + width * np.where(rng.random(m) < 0.2, rng.integers(0, 2, m), rng.random(m))
    if kind == "pi-apart":
        # two values exactly pi apart where lo + pi is exact, one rounding otherwise
        lo = rng.choice([0.0, -0.0, -math.pi, math.pi / 2, -TAU, rng.uniform(-20.0, 20.0)])
        return np.where(rng.random(m) < 0.5, lo, lo + math.pi)
    if kind == "huge":
        # magnitudes near 1e300, where distinct values are far more than pi apart
        vals = np.array([1e300, -1e300, 1.5e300, -1.7e300])
        vals = np.concatenate([vals, np.nextafter(vals, np.inf), np.nextafter(vals, -np.inf)])
        return rng.choice(vals, m) if rng.random() < 0.7 else np.full(m, rng.choice(vals))
    special = np.array([0.0, -0.0, math.pi, -math.pi, TAU, -TAU, 2 * TAU, -2 * TAU,
                        3 * math.pi, -3 * math.pi, 1e-16, -1e-16, 1e-300, -1e-300])
    special = np.concatenate([special, np.nextafter(special, np.inf), np.nextafter(special, -np.inf)])
    return rng.choice(special, m)


KERNEL_KINDS = ["random", "ties", "wraparound", "narrow", "pi-apart", "huge"]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_alignment_margins_bitwise_equal_dense_oracle(kind):
    rng = np.random.default_rng(2024)
    for _ in range(400):
        g = _kernel_arrays(kind, rng)
        fast = alignment_margins(g)
        dense = dense_alignment_margins(g, g)
        assert np.array_equal(fast.view(np.uint64), dense.view(np.uint64)), g
        # where no real gap reaches pi, wrapping changes nothing
        valid = np.abs(g[None, :] - g[:, None]).max(axis=1) < math.pi
        circular = circular_alignment_margins(g, g)
        assert np.array_equal(fast[valid].view(np.uint64), circular[valid].view(np.uint64)), g


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_alignment_margins_equal_the_former_modulo_route(kind):
    # the circular distances are read without np.mod where reach < pi
    rng = np.random.default_rng(2025)
    for _ in range(400):
        g = _kernel_arrays(kind, rng)
        assert_same_bits(alignment_margins(g), former_alignment_margins(g, g), g)


def test_alignment_margins_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            alignment_margins(np.array([0.0, bad]))


def _greedy_merge_loop(pos, period, tol):
    """The per-element merge loop that merge_positions replaced, and the
    row each position joined (a dropped last row joins row 0)."""
    keep = np.empty(len(pos), dtype=bool)
    rows = np.empty(len(pos), dtype=int)
    keep[0] = True
    rows[0] = 0
    last = pos[0]
    for i in range(1, len(pos)):
        keep[i] = pos[i] - last > tol
        rows[i] = rows[i - 1] + keep[i]
        if keep[i]:
            last = pos[i]
    out = pos[keep]
    if len(out) > 1 and period - out[-1] <= tol:
        out = out[:-1]
        rows[rows == len(out)] = 0
    return out, rows


def test_merge_positions_matches_greedy_loop():
    rng = np.random.default_rng(31)
    tol = 1e-3
    wrapped = 0
    for _ in range(2000):
        n = int(rng.integers(0, 40))
        # clustered gaps straddle tol, so runs of sub-tolerance gaps are common
        gaps = rng.choice([0.0, 0.3 * tol, 0.6 * tol, tol, 1.5 * tol, 0.1], n)
        pos = np.concatenate([[0.0], np.cumsum(gaps)])
        period = pos[-1] + rng.choice([0.0, 0.5 * tol, tol, 2 * tol, 0.2])
        out, rows = merge_positions(pos, period, tol)
        loop_out, loop_rows = _greedy_merge_loop(pos, period, tol)
        assert np.array_equal(out, loop_out)
        assert np.array_equal(rows, loop_rows)
        wrapped += len(out) > 1 and rows[-1] == 0
    assert wrapped > 100


def _merge_inputs(kind, rng, tol):
    """Sorted positions and a period: random gaps around ``tol``; chained
    runs of gaps under ``tol`` spanning more than it, where the greedy merge
    keeps positions inside the run and so depends on where it starts; or
    every position doubled, exactly or a hair apart, as in a self-pair."""
    n = int(rng.integers(1, 60))
    offset = rng.choice([0.0, 1.0, 3.7])     # positions past 0 round at this magnitude
    if kind == "random":
        gaps = rng.choice([0.0, 0.3 * tol, 0.6 * tol, tol, 1.5 * tol, 0.1], n)
    elif kind == "chained":
        gaps = rng.choice([0.45 * tol, 0.5 * tol, 0.55 * tol, 0.9 * tol, np.nextafter(tol, 0.0), 2 * tol], n)
    else:
        once = np.cumsum(rng.choice([0.5 * tol, 2 * tol, 0.05], n))
        twice = np.sort(np.concatenate([once, once + rng.choice([0.0, 1e-18, 0.5 * tol], n)]))
        gaps = np.diff(twice, prepend=0.0)
    pos = np.concatenate([[0.0], offset + np.cumsum(gaps)])
    return pos, pos[-1] + rng.choice([0.0, 0.5 * tol, tol, 2 * tol, 0.2])


def test_merge_positions_equals_the_former_loop_bit_for_bit():
    rng = np.random.default_rng(32)
    tol = 1e-3
    walked = 0
    for kind in ("random", "chained", "doubled"):
        for _ in range(2000):
            pos, period = _merge_inputs(kind, rng, tol)
            out, rows = merge_positions(pos, period, tol)
            want_out, want_rows = former_merge_positions(pos, period, tol)
            assert_same_bits(out, want_out, kind)
            assert_same_bits(rows, want_rows, kind)
            # each position lies within tol past its row's, or (row 0) before period
            d = pos - out[rows]
            assert np.all((d >= 0.0) & (d <= tol) | (rows == 0) & (period - d <= tol)), kind
            narrow = np.diff(pos) <= tol
            start = np.flatnonzero(np.diff(np.concatenate([[0], narrow.astype(int)])) == 1)
            stop = np.flatnonzero(np.diff(np.concatenate([narrow.astype(int), [0]])) == -1) + 1
            walked += bool(np.any(pos[stop] - pos[start] > tol))
    # arrays with a run that the greedy walk crossed, not only its head
    # kept: 5,154 of the 6,000
    assert walked >= 5000, walked
    # a walk from below zero, where pos + tol rounds to 0 and a threshold
    # stepped float by float from there would crawl through the subnormals
    for pos, tol in ((np.array([-0.5, -0.2, 0.1, 0.3]), 0.5), (np.array([-1.0, -0.6, -0.2, 0.0, 0.4]), 1.0)):
        for got, want in zip(merge_positions(pos, 1.0, tol), former_merge_positions(pos, 1.0, tol)):
            assert_same_bits(got, want)
    # 64k positions past 1.0: one run of gaps at 0.6 tol, whose walk keeps
    # every other position, and two clusters drawn within 1e4 and 100 tol
    n = 1 << 16
    for pos in (1.0 + np.arange(n) * (0.6 * tol), 1.0 + np.sort(rng.uniform(0.0, 1e4 * tol, n)),
                1.0 + np.sort(rng.uniform(0.0, 100 * tol, n))):
        period = pos[-1] + 0.2
        for got, want in zip(merge_positions(pos, period, tol), former_merge_positions(pos, period, tol)):
            assert_same_bits(got, want)


# -- shared arc-length locator -------------------------------------------------------

def test_locate_refuses_non_finite_positions(unit_square):
    # a position that is not finite lies on no edge: locate raises before a
    # point is evaluated, planar, spherical and in a combination, and no
    # NaN point or remainder warning comes out
    link = random_convex_link(np.random.default_rng(61), 3.0, n_points=12)
    pair = make_pair(unit_square, unit_square.with_base(0.5))
    for bad in (math.nan, math.inf, -math.inf):
        for query in (lambda: point_at(unit_square, bad),
                      lambda: unit_square.points_at([bad, 0.5]),
                      lambda: link.points_at([0.5, bad]),
                      lambda: combine_at(pair, [0.0, 1.0, bad, 3.0])):
            with pytest.raises(ValueError, match="finite"):
                query()


def _rebased(poly):
    """The polygon with its base at 0, -0.0, mid-edge, the perimeter's last
    ulp, and exactly at and one ulp either side of every vertex."""
    cum = poly.cum_lengths
    bases = np.concatenate([
        [0.0, -0.0, 0.5 * (cum[0] + cum[1]), np.nextafter(poly.perimeter, 0.0)],
        cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf),
    ])
    return [poly.with_base(float(b)) for b in bases]


def _planar_polygons():
    rng = trial_rng(4, 0)
    hulls = [random_convex_polygon(rng, k, k) for k in (3, 3, 4, 5, 8, 13)]
    square = build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    return hulls + [square, support_polygon(40, 1.0, {2: (0.1, 0.05)}, base_frac=0.3)]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_locate_equals_scalar_oracle_bit_for_bit():
    rng = np.random.default_rng(57)
    queries = 0
    for poly in (q for p in _planar_polygons() for q in _rebased(p)):
        ss = arc_queries(poly, rng, n_random=20)
        idx, u = poly.locate(ss)
        ref = [scalar_locate(poly, float(s)) for s in ss]
        assert idx.tolist() == [i for i, _ in ref]
        assert _bits(u) == _bits([v for _, v in ref])
        for k in range(0, len(ss), 7):        # one-element queries, as scalar callers make
            (i,), (v,) = poly.locate([ss[k]])
            assert (int(i), _bits(v)) == (ref[k][0], _bits(ref[k][1]))
        queries += len(ss)
    assert queries > 20000


def test_scalar_queries_follow_the_oracle_edge(unit_square):
    # point_at and points_at alike return a vertex with its own bits, a -0.0
    # coordinate included (adding a 0.0 step along its edge gives +0.0)
    rng = np.random.default_rng(58)
    signed = build_polygon([(-0.0, -0.0), (1.0, -0.0), (1.0, 1.0), (-0.0, 1.0)])
    assert _bits(signed.points_at([0.0])) == _bits([(-0.0, -0.0)])
    for poly in _rebased(unit_square) + _rebased(signed):
        for s in arc_queries(poly, rng, n_random=10):
            i, u = scalar_locate(poly, float(s))
            v, d = poly.vertices[i], poly.edge_dirs[i]
            want = (v[0], v[1]) if u == 0.0 else (v[0] + u * math.cos(d), v[1] + u * math.sin(d))
            assert _bits(point_at(poly, s)) == _bits(want)
            assert _bits(poly.points_at([s])) == _bits([want])


def test_points_at_equal_the_former_per_position_kernels_bit_for_bit():
    # each edge's direction (planar) or length and sine (spherical) is taken
    # once and gathered; the former kernels took them at every position
    rng = np.random.default_rng(60)
    links = [random_convex_link(rng, t, n_points=n) for t, n in ((1.0, 6), (3.0, 12), (5.5, 24))]
    links.append(support_link(60, 0.6, {3: (0.05, 0.02)}))
    cases = [(p, former_points_at) for p in _planar_polygons()]
    cases += [(link, former_sph_points_at) for link in links]
    for poly, former in cases:
        for q in _rebased(poly):
            ss = arc_queries(q, rng, n_random=40)
            assert_same_bits(q.points_at(ss), former(q, ss))
        grid = np.arange(4096) * (poly.perimeter / 4096)
        assert_same_bits(poly.points_at(grid), former(poly, grid))


def test_spherical_locate_equals_former_block_bit_for_bit():
    rng = np.random.default_rng(59)
    links = [random_convex_link(rng, t, n_points=n) for t, n in ((1.0, 6), (3.0, 12), (5.5, 24))]
    links.append(support_link(60, 0.6, {3: (0.05, 0.02)}))
    for poly in (q for link in links for q in _rebased(link)):
        ss = arc_queries(poly, rng, n_random=40)
        idx, u = poly.locate(ss)
        ref_idx, ref_u = spherical_locate(poly, ss)
        assert np.array_equal(idx, ref_idx)
        assert _bits(u) == _bits(ref_u)
        # the slerp the points come from, with the former edge-length table
        theta = np.concatenate([np.diff(poly.cum_lengths), [poly.perimeter - poly.cum_lengths[-1]]])
        a = poly.vertices[ref_idx]
        b = poly.vertices[(ref_idx + 1) % poly.n_vertices]
        t = theta[ref_idx]
        want = (np.sin(t - ref_u)[:, None] * a + np.sin(ref_u)[:, None] * b) / np.sin(t)[:, None]
        want[ref_u == 0.0] = a[ref_u == 0.0]
        assert _bits(poly.points_at(ss)) == _bits(want)


@pytest.mark.parametrize("kind", ["normal", "wide", "signed_zeros", "small_integers"])
def test_column_primitives_equal_numpy_bit_for_bit(kind):
    # cross3 / dot3 / roll_next / roll_prev against np.cross, np.sum,
    # np.linalg.norm and np.roll, signed zeros, 1-D and bool arrays included
    rng = np.random.default_rng(["normal", "wide", "signed_zeros", "small_integers"].index(kind))
    for n in (1, 2, 3, 7, 8, 9, 31, 300):
        a = rng.standard_normal((n, 3))
        b = rng.standard_normal((n, 3))
        if kind == "wide":
            a *= 10.0 ** rng.integers(-150, 150, size=(n, 3))
        elif kind == "signed_zeros":
            a[rng.random((n, 3)) < 0.5] = -0.0
            b[rng.random((n, 3)) < 0.5] = 0.0
            b *= np.where(rng.random((n, 3)) < 0.5, -1.0, 1.0)
        elif kind == "small_integers":
            a = rng.integers(-2, 3, size=(n, 3)) * np.where(rng.random((n, 3)) < 0.5, -0.5, 0.5)
            b = rng.integers(-2, 3, size=(n, 3)).astype(float)
        assert_same_bits(cross3(a, b), np.cross(a, b))
        assert_same_bits(cross3(a[0], b[0]), np.cross(a[0], b[0]))
        assert_same_bits(dot3(a, b), np.sum(a * b, axis=1))
        assert_same_bits(dot3(a[0], b[0]), np.sum(a[0] * b[0]))
        assert_same_bits(np.sqrt(dot3(a, a)), np.linalg.norm(a, axis=1))
        assert_same_bits(dot3(a.T.copy().T, b), np.sum(a * b, axis=1))
        assert_same_bits(roll_next(a), np.roll(a, -1, axis=0))
        assert_same_bits(roll_prev(a), np.roll(a, 1, axis=0))
        assert_same_bits(roll_next(a[:, 0]), np.roll(a[:, 0], -1))
        assert_same_bits(roll_prev(a[:, :2]), np.roll(a[:, :2], 1, axis=0))
        assert_same_bits(roll_prev(a[:, 0] > 0), np.roll(a[:, 0] > 0, 1))


def test_brent_root_equals_scipy_brentq_on_random_cubics():
    # the root and every argument f is called with, bit for bit, on 10,000
    # brackets of cubics spanning ten decades, either orientation; a
    # same-sign bracket must raise ValueError in both
    rng = np.random.default_rng(2024)
    solved = 0
    for i in range(10_000):
        c = rng.standard_normal(4) * 10.0 ** rng.integers(-5, 6, size=4)
        a, b = rng.uniform(-10.0, 10.0, size=2)

        def f(x, c=c):
            return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]

        ours, theirs = brent_outcomes(f, a, b)
        assert ours == theirs, i
        solved += isinstance(ours[0], str)
    assert solved >= 3_000


def test_brent_root_fails_like_scipy(monkeypatch):
    def cubic(x):
        return x ** 3 - 2.0

    def nan_above_half(x):
        return math.nan if x > 0.5 else x - 0.3

    def tiny(x):
        return 1e-200  # f(a) * f(b) underflows to 0: the signs decide

    for f, a, b in ((cubic, 3.0, 4.0), (nan_above_half, 0.0, 1.0), (nan_above_half, 0.0, 0.2), (tiny, 0.0, 1.0)):
        ours, theirs = brent_outcomes(f, a, b)
        assert ours == theirs and ours[0] is ValueError
    ours, theirs = brent_outcomes(cubic, 0.0, 10.0)
    assert ours == theirs and isinstance(ours[0], str)
    monkeypatch.setattr(geometry, "BRENT_MAXITER", 3)
    ours, theirs = brent_outcomes(cubic, 0.0, 10.0, maxiter=3)
    assert ours == theirs and ours[0] is RuntimeError
    assert len(ours[1]) == 2 + 3


def test_brent_root_given_its_bracket_values_skips_only_those_calls():
    # the values at a and b, passed in, stand for the first two calls of f:
    # the root or error is the same, and f is called at the same points after
    rng = np.random.default_rng(2025)
    for i in range(2_000):
        c = rng.standard_normal(4) * 10.0 ** rng.integers(-5, 6, size=4)
        a, b = rng.uniform(-10.0, 10.0, size=2)

        def f(x, c=c):
            return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]

        (want, want_calls), _ = brent_outcomes(f, a, b)
        calls = []

        def counted(x):
            calls.append(float(x).hex())
            return f(x)

        try:
            got = float(brent_root(counted, a, b, f(a), f(b))).hex()
        except ValueError as exc:
            got = type(exc)
        assert (got, calls) == (want, want_calls[2:]), i
    # a NaN passed in fails as a NaN value of f does
    for fa, fb in ((math.nan, 1.0), (-1.0, math.nan)):
        with pytest.raises(ValueError, match="NaN"):
            brent_root(lambda x: x, 0.0, 1.0, fa, fb)


def _disk_points(rng, k):
    r = np.sqrt(rng.uniform(0.0, 1.0, size=k))
    phi = rng.uniform(0.0, TAU, size=k)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def test_convex_hull_2d_equals_qhull_on_disk_and_cap_sets():
    # the draws of random_convex_polygon and of random_convex_link's
    # gnomonic cap points: the same cyclic index sequence as Qhull's
    rng = np.random.default_rng(2024)
    sets = [_disk_points(rng, int(rng.integers(3, 201))) for _ in range(2000)]
    sets += [gnomonic(_cap_samples(rng, int(rng.integers(12, 31)), LINK_CAP_ANGLE)) for _ in range(500)]
    for p in sets:
        hull = convex_hull_2d(p)
        assert hull.tolist() == qhull_from_least(p).tolist()
        assert tuple(p[hull[0]]) == min(map(tuple, p))


def _degenerate_sets(rng):
    """Point sets with collinear points, repeated points, or no interior."""
    for _ in range(100):
        k = int(rng.integers(1, 12))
        # exactly collinear: integer steps along an integer direction
        d, c = rng.integers(-3, 4, size=2), rng.integers(-5, 6, size=2)
        yield c + rng.integers(-9, 10, size=(k, 1)) * d
        # an axis-parallel line of random floats
        line = np.column_stack([rng.uniform(-1.0, 1.0, k), np.full(k, rng.uniform())])
        yield line[:, ::-1] if rng.random() < 0.5 else line
        # a random subset of an integer grid, whose boundary has collinear points
        grid = np.array([[x, y] for x in range(5) for y in range(4)], dtype=float)
        yield grid[rng.permutation(len(grid))[: int(rng.integers(3, len(grid) + 1))]]
        # repeated points, some on the hull, in random order
        p = _disk_points(rng, int(rng.integers(3, 30)))
        p = np.vstack([p, p[rng.integers(0, len(p), size=int(rng.integers(1, 10)))]])
        yield p[rng.permutation(len(p))]
        yield np.repeat(rng.uniform(-1.0, 1.0, size=(1, 2)), k, axis=0)


def test_convex_hull_2d_on_degenerate_sets_agrees_with_qhull():
    # where Qhull finds no 2-D hull there are fewer than 3 indices; else the
    # same points in the same cyclic order (Qhull reports a repeated point
    # by either index, convex_hull_2d by the first)
    rng = np.random.default_rng(99)
    for p in _degenerate_sets(rng):
        p = np.asarray(p, dtype=float)
        hull, want = convex_hull_2d(p), qhull_from_least(p)
        if want is None:
            assert len(hull) < 3, p
            continue
        assert p[hull].tolist() == p[want].tolist(), p
        for i in hull:
            assert i == np.flatnonzero((p == p[i]).all(axis=1))[0]
        if len(np.unique(p, axis=0)) == len(p):
            assert hull.tolist() == want.tolist()


def test_convex_hull_2d_small_cases():
    assert convex_hull_2d(np.zeros((0, 2))).tolist() == []
    assert convex_hull_2d([[1.0, 2.0]]).tolist() == []
    assert convex_hull_2d([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]]).tolist() == [0, 1]
    square = [[1.0, 1.0], [0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.0, 0.0], [1.0, 0.5]]
    assert convex_hull_2d(square).tolist() == [4, 3, 0, 1]
