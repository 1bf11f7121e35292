import math
import warnings

import numpy as np
import pytest

from isocomb.errors import AntipodalEdge, DegenerateEdge, NotConvexSpherical, NotOnSphere
from isocomb.geometry import TAU, brent_root, convex_hull_2d, cross3, dot3, roll_next, roll_prev
from isocomb.tolerances import ANTIPODAL_DOT_EPS, BRENT_RTOL, BRENT_XTOL, COLLINEAR_EPS, LINK_SCALE_FLOOR
from isocomb import geometry, spherical
from isocomb.spherical import (
    LINK_CAP_ANGLE,
    LINK_TARGET_CEILING,
    _cap_samples,
    _scaled_hull_perimeter,
    build_spherical_polygon,
    centroid_direction,
    edge_frame,
    fan_area,
    gnomonic,
    gnomonic_inverse,
    random_convex_link,
    rotate_polygon,
    unit_rows,
)
from isocomb.suite import trial_rng

from conftest import (
    SPHERICAL_POLYGON_FIELDS,
    assert_same_bits,
    assert_same_gauss_bonnet,
    brent_outcomes,
    assert_same_spherical_polygon,
    ellipse_link_vertices,
    former_build_spherical_polygon,
    former_centroid_direction,
    former_edge_lengths,
    former_fan_area,
    former_gnomonic_inverse,
    former_random_convex_link,
    former_signed_turns,
    former_sph_points_at,
    former_turning_rounding,
    former_unit_rows,
    geodesic_length,
    random_rotation,
    ring_vertices,
)

EPS = np.finfo(float).eps


def test_octant_triangle(octant):
    assert octant.perimeter == pytest.approx(3 * math.pi / 2)
    assert np.allclose(octant.turning, math.pi / 2)
    assert octant.area == pytest.approx(math.pi / 2)
    assert octant.gauss_bonnet_residual == pytest.approx(0.0, abs=1e-12)


def _fan_area(verts):
    """fan_area on the edge frame that build_spherical_polygon passes it."""
    nxt = roll_next(verts)
    return fan_area(verts, nxt, cross3(verts, nxt), dot3(verts, nxt))


def test_octant_fan_area_independent(octant):
    assert _fan_area(octant.vertices) == pytest.approx(math.pi / 2, abs=1e-12)


def test_small_circle_polygon_turning_vs_area():
    n, rho = 64, 0.3
    phi = np.arange(n) * (TAU / n)
    ring = np.column_stack(
        [np.full(n, math.cos(rho)), math.sin(rho) * np.cos(phi), math.sin(rho) * np.sin(phi)]
    )
    poly = build_spherical_polygon(ring)
    assert np.sum(poly.turning) == pytest.approx(TAU - poly.area, abs=1e-9)
    assert poly.perimeter == pytest.approx(TAU * math.sin(rho), rel=1e-3)
    assert poly.area == pytest.approx(TAU * (1 - math.cos(rho)), rel=5e-3)


def test_rejects_non_unit_vertices():
    with pytest.raises(NotOnSphere):
        build_spherical_polygon([(1, 0, 0), (0, 2, 0), (0, 0, 1)])


def test_rejects_antipodal_edge():
    with pytest.raises(AntipodalEdge):
        build_spherical_polygon([(1, 0, 0), (-1, 0, 0), (0, 0, 1)])


def test_the_dot_test_refuses_every_edge_the_former_length_test_did():
    # the dot test refuses every edge within ~1.4e-6 of pi, so every edge
    # longer than pi - 1e-9, which a length test once refused too.  Pairs
    # at pi - 10**u, u in [-18, -5], in the builder's edge frame (rows
    # normalized, then cross3 and dot3 row by row), and every 25th refused
    # pair through the builder, as a triangle whose third vertex is a
    # quarter turn from both
    rng = np.random.default_rng(71)
    n = 250_000
    a = unit_rows(rng.normal(size=(n, 3)))
    p = unit_rows(cross3(a, rng.normal(size=(n, 3))))
    theta = math.pi - 10.0 ** rng.uniform(-18.0, -5.0, n)
    b = np.cos(theta)[:, None] * a + np.sin(theta)[:, None] * p
    ua, ub = unit_rows(a), unit_rows(b)
    cross, dots = cross3(ua, ub), dot3(ua, ub)
    former = np.arctan2(np.sqrt(dot3(cross, cross)), dots) > math.pi - 1e-9
    refused = dots <= -1.0 + ANTIPODAL_DOT_EPS
    assert former.sum() > 150_000 and (refused & ~former).sum() > 50_000
    assert not (former & ~refused).any()
    for k in np.flatnonzero(former)[::25].tolist():
        with pytest.raises(AntipodalEdge):
            build_spherical_polygon([a[k], b[k], p[k]])


def test_rejects_nonconvex_spherical():
    # quadrilateral with one vertex pushed inside the triangle hull
    c = 1 / math.sqrt(3)
    verts = [
        (1, 0, 0),
        (0, 1, 0),
        (c, c, c),  # reflex dent
        (0, 0, 1),
    ]
    with pytest.raises(NotConvexSpherical):
        build_spherical_polygon(verts)


def test_rejects_perimeter_at_least_two_pi():
    # near-equatorial ring has perimeter close to 2*pi from below; push a
    # vertex chain around a great circle exactly: use equator points
    verts = [(0, 1, 0), (0, 0, 1), (0, -1, 0), (0, 0, -1)]
    with pytest.raises(NotConvexSpherical):
        build_spherical_polygon(verts)


def test_sph_point_at_examples(octant):
    assert octant.points_at([0.0])[0] == pytest.approx((1, 0, 0))
    mid = octant.points_at([math.pi / 4])[0]
    assert mid == pytest.approx((math.sqrt(2) / 2, math.sqrt(2) / 2, 0.0))
    assert octant.points_at([octant.perimeter])[0] == pytest.approx((1, 0, 0), abs=1e-12)


def test_sph_points_at_unit_norm(octant):
    ss = np.linspace(0, octant.perimeter, 100)
    pts = octant.points_at(ss)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_base_inside_edge(octant):
    shifted = octant.with_base(0.2)
    p = shifted.points_at([0.0])[0]
    assert geodesic_length(p, np.array([1.0, 0, 0])) == pytest.approx(0.2, abs=1e-12)


def test_centroid_octant(octant):
    c = centroid_direction(octant)
    assert c == pytest.approx(np.full(3, 1 / math.sqrt(3)))


def test_random_convex_link_hits_target_length():
    rng = np.random.default_rng(21)
    for target in (0.8, 2.5, 4.0, 5.5):
        link = random_convex_link(rng, target)
        assert abs(link.perimeter - target) <= 1e-10
        assert link.min_turning() > 0
        assert link.gauss_bonnet_residual <= 1e-10
        assert 0.0 <= link.base_s < link.perimeter


def test_rotate_polygon_carries_what_a_rebuild_recomputes():
    # rotate_polygon keeps a link's data and normalizes the rotated rows as
    # the builder does; a rebuild of the same rows recomputes the data.
    # Each rotated row is within 4 eps of the exact rotation (three-term
    # products, a matrix orthogonal to rounding, one normalization).  Edge
    # lengths and fan-area terms then move by at most 16 eps (their endpoints
    # and one rounding per route), and a running sum of n of them adds n
    # roundings of a partial sum below 2*pi.  Moving an end of an edge of
    # length l by d turns the edge by up to d / sin(l), so a turning moves by
    # 16 eps / sin(l) per edge at the vertex, plus its own rounding.
    eps = np.finfo(float).eps
    for i in range(500):
        rng = trial_rng(31, i)
        link = random_convex_link(rng, rng.uniform(0.5, TAU - 0.5), n_points=int(rng.integers(3, 61)))
        rot = random_rotation(rng)
        carried = rotate_polygon(link, rot)
        rebuilt = build_spherical_polygon(link.vertices @ rot.T, base_s=link.base_s)
        n = link.n_vertices
        assert rebuilt.n_vertices == n and carried.vertices.tobytes() == rebuilt.vertices.tobytes(), i
        assert carried.base_s == rebuilt.base_s, i
        sums = n * (16 + TAU) * eps
        assert np.max(np.abs(carried.cum_lengths - rebuilt.cum_lengths)) <= sums, i
        assert abs(carried.perimeter - rebuilt.perimeter) <= sums, i
        assert abs(carried.area - rebuilt.area) <= sums, i
        sines = np.sin(link.edge_ends() - link.cum_lengths)
        turning = 16 * eps * (1 / sines + 1 / np.roll(sines, 1)) + 4 * eps
        assert np.all(np.abs(carried.turning - rebuilt.turning) <= turning), i
        residual = abs(carried.gauss_bonnet_residual - rebuilt.gauss_bonnet_residual)
        assert residual <= np.sum(turning) + sums, i


def test_random_convex_link_rejects_bad_target():
    rng = np.random.default_rng(3)
    for target in (0.0, TAU + 0.1, LINK_TARGET_CEILING, 6.25):
        with pytest.raises(ValueError):
            random_convex_link(rng, target)


# -- the column-arithmetic kernel against the former numpy-call kernel -----------

def _digon_corners(angle, eps):
    half = angle / 2.0
    north = np.array([0.0, 0.0, 1.0])
    ea = np.array([math.cos(half), math.sin(half), 0.0])
    eb = np.array([math.cos(half), -math.sin(half), 0.0])
    ce, se = math.cos(eps), math.sin(eps)
    return np.stack([-ce * north + se * ea, ce * north + se * ea, ce * north + se * eb, -ce * north + se * eb])


def _with_edge_midpoints(verts, every):
    """Insert the geodesic midpoint of every ``every``-th edge: collinear vertices."""
    rows = []
    for i, v in enumerate(verts):
        rows.append(v)
        if i % every == 0:
            m = v + verts[(i + 1) % len(verts)]
            rows.append(m / np.linalg.norm(m))
    return np.array(rows)


def _kernel_inputs():
    """(vertices, base_s) cases: random links (also rotated and with
    midpoints to merge), rings, digon quadrilaterals, the octant."""
    rng = np.random.default_rng(2024)
    cases = [(np.eye(3), 0.0), (np.eye(3), 0.3), (np.eye(3)[::-1], 0.0)]
    for k in range(30):
        link = random_convex_link(rng, rng.uniform(0.3, TAU - 0.3), n_points=int(rng.integers(5, 60)))
        v = link.vertices
        cases.append((v, link.base_s))
        cases.append((v @ random_rotation(rng).T, rng.uniform(0.0, link.perimeter)))
        cases.append((_with_edge_midpoints(v, 1 + k % 3), link.base_s))
        cases.append((_with_edge_midpoints(v, 2), rng.uniform(-1.0, 8.0)))
    for n, rho in ((3, 0.2), (4, 1.0), (16, 0.6), (64, 0.3), (300, 1.2), (12, math.pi / 2 - 1e-3)):
        cases.append((ring_vertices(n, rho), 0.0))
        cases.append((ring_vertices(n, rho, 0.37), 0.5))
        cases.append((_with_edge_midpoints(ring_vertices(n, rho), 1), 0.1))
    for angle in (1e-3, 0.3, math.pi / 3, math.pi / 2, 2.9, math.pi - 1e-3):
        for eps in (1e-6, 1e-3, 0.1, 0.7, math.pi / 2 - 1e-3):
            cases.append((_digon_corners(angle, eps), 0.0))
            cases.append((_digon_corners(angle, eps) @ random_rotation(rng).T, 0.2))
    return cases


def _outcome(build, verts, base_s):
    try:
        return build(verts, base_s=base_s)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


def test_build_spherical_polygon_equals_former_kernel_bit_for_bit():
    built = 0
    for verts, base_s in _kernel_inputs():
        got = _outcome(build_spherical_polygon, verts, base_s)
        want = _outcome(former_build_spherical_polygon, verts, base_s)
        # the rows in column-major memory, as a link's ``points_at`` returns
        # them, build the same polygon bit for bit
        cols = _outcome(build_spherical_polygon, np.asfortranarray(verts), base_s)
        if isinstance(want, type):
            assert got is want and cols is want
            continue
        built += 1
        assert_same_spherical_polygon(got, want)
        for name in (*SPHERICAL_POLYGON_FIELDS, "turning", "area", "gauss_bonnet_residual"):
            assert_same_bits(getattr(cols, name), getattr(got, name), name)
    assert built >= 150


def test_build_spherical_polygon_raises_as_former_kernel():
    c = 1 / math.sqrt(3)
    tiny = 1e-13
    cases = {
        AntipodalEdge: [[(1, 0, 0), (-1, 0, 0), (0, 0, 1)],
                        [(0, 1, 0), (0, -1, 1e-10), (1, 0, 0)]],
        DegenerateEdge: [[(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                         [(1, 0, 0), (math.cos(tiny), math.sin(tiny), 0), (0, 1, 0), (0, 0, 1)]],
        NotConvexSpherical: [[(1, 0, 0), (0, 1, 0), (c, c, c), (0, 0, 1)],
                             [(0, 1, 0), (0, 0, 1), (0, -1, 0), (0, 0, -1)],
                             [(1, 0, 0), (0, 0, 1), (0, 1, 0)],
                             ring_vertices(64, math.pi / 2),
                             ring_vertices(8, 0.4)[::-1]],
        NotOnSphere: [[(1, 0, 0), (0, 2, 0), (0, 0, 1)]],
        ValueError: [[(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, np.nan)],
                     [(1, 0), (0, 1), (1, 1)]],
    }
    for exc, inputs in cases.items():
        for verts in inputs:
            assert _outcome(former_build_spherical_polygon, verts, 0.0) is exc
            assert _outcome(build_spherical_polygon, verts, 0.0) is exc


def test_build_spherical_polygon_of_one_repeated_point_is_degenerate():
    # zero perimeter: refused before any tangent is divided by a zero norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateEdge):
            build_spherical_polygon([(1, 0, 0)] * 3)


def test_spherical_primitives_equal_former_kernel_bit_for_bit():
    rng = np.random.default_rng(77)
    for verts, base_s in _kernel_inputs():
        verts = np.asarray(verts, dtype=float)
        assert_same_bits(edge_frame(verts)[3], former_edge_lengths(verts))
        assert_same_bits(unit_rows(verts), former_unit_rows(verts))
        assert_same_bits(unit_rows(verts[0]), former_unit_rows(verts[0]))
        assert_same_bits(_fan_area(verts), former_fan_area(verts))
        poly = _outcome(build_spherical_polygon, verts, base_s)
        if not isinstance(poly, type):
            turn_bound = former_turning_rounding(poly)
            assert np.all(np.abs(poly.turning - former_signed_turns(poly.vertices)) <= turn_bound)
            assert_same_gauss_bonnet(poly)
            assert_same_bits(centroid_direction(poly), former_centroid_direction(poly))
            ss = rng.uniform(-poly.perimeter, 2 * poly.perimeter, 50)
            assert_same_bits(poly.points_at(ss), former_sph_points_at(poly, ss))
    for n in (1, 3, 40, 500):
        w = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-6, 4, size=(n, 2))
        w[rng.random((n, 2)) < 0.2] = -0.0
        assert_same_bits(gnomonic_inverse(w), former_gnomonic_inverse(w))


def _objective_rounding(wh, lam, perimeter):
    """Bound on |closed form - lifted perimeter| of the hull ``wh`` at ``lam``.

    Each edge angle is atan2(|u x v|, u.v), a well-conditioned angle: both
    forms round it by a few eps of itself.  The lift also rounds each unit
    vector off its exact point by a few eps of its tangential part
    sin(rho), where tan(rho) = lam*|w|, and both edges at the vertex feel
    that.  Allowing 4 eps per form for each gives 8 eps (P + 2 sum sin(rho)).
    """
    r2 = wh[:, 0] ** 2 + wh[:, 1] ** 2
    sin_rho = lam * np.sqrt(r2 / (1.0 + lam * lam * r2))
    return 8.0 * EPS * (perimeter + 2.0 * float(np.sum(sin_rho)))


def test_scaled_hull_perimeter_equals_the_lifted_perimeter():
    # 1,000 seeded hulls of 3-200 cap points, each at ten scales log-spaced
    # over the solve's bracket; the worst seen is 0.9 of the bound's eps term
    # (2.3 eps relative)
    rng = np.random.default_rng(17)
    for k in range(1000):
        w = gnomonic(_cap_samples(rng, 3 + k % 198, LINK_CAP_ANGLE))
        wh = w[convex_hull_2d(w)]
        perimeter = _scaled_hull_perimeter(wh)
        for lam in np.geomspace(LINK_SCALE_FLOOR, 1.0, 10):
            lifted = float(np.sum(edge_frame(gnomonic_inverse(lam * wh))[3]))
            assert abs(perimeter(lam) - lifted) <= _objective_rounding(wh, lam, lifted), (k, lam)


def _spy(monkeypatch, name, record):
    """Replace ``spherical.<name>`` by a pass-through that appends its
    arguments and result to ``record``."""
    inner = getattr(spherical, name)

    def spy(*args):
        out = inner(*args)
        record.append((args, out))
        return out

    monkeypatch.setattr(spherical, name, spy)


@pytest.mark.parametrize("seed", range(36))
def test_random_convex_link_equals_former_kernel_bit_for_bit(seed, monkeypatch):
    # The solve runs on the closed-form perimeter, which rounds differently
    # from the former lifted one.  The same hull is accepted, so the vertex
    # count and the generator's next draw are equal bit for bit; every other
    # field moves by rounding within these bounds:
    # - Each Brent run stops inside a bracket of width XTOL + RTOL*lam about
    #   a sign change of its own objective.  The objectives differ by at
    #   most B (_objective_rounding), which moves a sign change by at most
    #   B / P'(lam).  So dlam <= 2 (XTOL + RTOL*lam) + B / P'.
    # - The vertex over w sits at the polar angle rho, tan(rho) = lam*|w|,
    #   and moves with lam at the speed |w| cos(rho)^2 = sin(2 rho) / (2 lam);
    #   each lift rounds it by 2 eps.  So dv <= dlam max sin(2 rho) / (2 lam) + 4 eps.
    # - An edge length moves by at most 2 dv and the builder's rounding of
    #   4 eps: a cumulative length and the perimeter by n (2 dv + 4 eps), and
    #   base_s = u * perimeter by that and 2 eps of the perimeter.
    # - A turning reads its two edges' directions, and each edge turns by at
    #   most (2 dv + 4 eps) / (its length).
    hulls, solves = [], []
    _spy(monkeypatch, "_scaled_hull_perimeter", hulls)
    _spy(monkeypatch, "brent_root", solves)
    target = 0.3 + (TAU - 0.6) * ((seed * 0.618034) % 1.0)
    n_points = (24, 30, 8, 60)[seed % 4]
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_convex_link(rng_got, target, n_points=n_points)
    want = former_random_convex_link(rng_want, target, n_points=n_points)
    assert got.n_vertices == want.n_vertices
    assert_same_bits(rng_got.random(), rng_want.random(), "next draw")
    assert_same_gauss_bonnet(got)

    (wh,), perimeter = hulls[-1]
    lam = solves[-1][1]
    slope = (perimeter(lam * (1.0 + 1e-6)) - perimeter(lam * (1.0 - 1e-6))) / (2e-6 * lam)
    bound = _objective_rounding(wh, lam, perimeter(lam))
    dlam = 2.0 * (BRENT_XTOL + BRENT_RTOL * lam) + bound / slope
    rho = np.arccos(np.clip(want.vertices[:, 0], -1.0, 1.0))
    dv = dlam * float(np.max(np.sin(2.0 * rho))) / (2.0 * lam) + 4.0 * EPS
    dl = 2.0 * dv + 4.0 * EPS
    lengths = want.edge_ends() - want.cum_lengths
    n = want.n_vertices
    assert np.max(np.abs(got.vertices - want.vertices)) <= dv
    assert np.max(np.abs(got.cum_lengths - want.cum_lengths)) <= n * dl
    assert abs(got.perimeter - want.perimeter) <= n * dl
    assert abs(got.base_s - want.base_s) <= n * dl + 2.0 * EPS * want.perimeter
    turn_bound = dl / roll_prev(lengths) + dl / lengths
    assert np.all(np.abs(got.turning - want.turning) <= turn_bound)


def test_random_convex_link_lifts_each_solved_hull_once(monkeypatch):
    # the objective works on the gnomonic hull alone: the one lift per
    # solve is the accepted scale's, which the builder then validates
    lifts, solves = [], []
    _spy(monkeypatch, "gnomonic_inverse", lifts)
    _spy(monkeypatch, "brent_root", solves)
    rng = np.random.default_rng(3)
    for k in range(60):
        random_convex_link(rng, rng.uniform(0.3, TAU - 0.3), n_points=(8, 24, 200)[k % 3])
    assert len(solves) >= 60
    assert len(lifts) == len(solves)


@pytest.mark.parametrize("target", [1e-8, 1e-10, 1e-12])
def test_a_target_every_hull_overshoots_at_the_scale_floor_is_refused(target, monkeypatch):
    # at lam = LINK_SCALE_FLOOR every hull of 24 cap points is already longer
    # than the target, so none brackets a root: each is skipped before the
    # solve, as a hull too short at lam = 1 is, and the generator's own
    # error names the target
    solves = []
    _spy(monkeypatch, "brent_root", solves)
    with pytest.raises(RuntimeError, match=f"convex link of length {target} after"):
        random_convex_link(np.random.default_rng(0), target)
    assert solves == []


def test_link_perimeter_solves_equal_scipy_brentq(monkeypatch):
    # every perimeter solve of 500 default cone-suite trials (1,000 links)
    # through both solvers, given only f; the generator passes the values
    # at the bracket ends it has already taken, which are f's there, and
    # the solve given them calls f as the solve given only f does, less
    # those two calls
    from isocomb.suite import SuiteConfig, trial_rng

    outcomes = []

    def both(f, a, b, fa, fb):
        outcomes.append(brent_outcomes(f, a, b))
        assert_same_bits(np.array([fa, fb]), np.array([f(a), f(b)]), "bracket values")
        calls = []

        def counted(x):
            calls.append(float(x).hex())
            return f(x)

        root = brent_root(counted, a, b, fa, fb)
        assert (float(root).hex(), calls) == (outcomes[-1][0][0], outcomes[-1][0][1][2:])
        return float.fromhex(outcomes[-1][0][0])

    monkeypatch.setattr(spherical, "brent_root", both)
    config = SuiteConfig(trials=500, seed=7)
    lo, hi = config.target_link_length
    for i in range(config.trials):
        rng = trial_rng(config.seed, i)
        target = rng.uniform(lo, hi)
        for _ in range(2):
            random_convex_link(rng, target, n_points=max(12, config.max_vertices))
    assert len(outcomes) >= 1000
    assert all(ours == theirs for ours, theirs in outcomes)


@pytest.mark.parametrize("n", [1000, 4000, 16000, 64000])
def test_dense_ellipse_links_pass_gauss_bonnet(n):
    # each turning reads edge normals accurate to a few eps of themselves
    # however short the edge, so it rounds by a few eps, and the residual by
    # at most n times that (~1e-11 at 64k), in practice by far less: over 10
    # seeds, as given and rotated, the worst seen is 7.1e-15 at 64k
    for seed in range(2):
        rng = np.random.default_rng(seed)
        verts = ellipse_link_vertices(rng, n, 1.0, 0.6)
        for v in (verts, verts @ random_rotation(rng).T):
            poly = build_spherical_polygon(v)
            assert poly.n_vertices == n
            assert poly.gauss_bonnet_residual <= 1e-13, seed


def _bent_ring(h):
    """A square ring with a midpoint inserted on its first edge and moved
    off the edge's great circle by the angle h: outward (a corner) for
    h > 0, inward (a reflex vertex) for h < 0."""
    ring = ring_vertices(4, 0.5)
    mid = unit_rows(ring[0] + ring[1])
    out = unit_rows(cross3(ring[1], ring[0]))
    return np.insert(ring, 1, math.cos(h) * mid + math.sin(h) * out, axis=0)


def test_collinear_merge_rule_next_to_the_tolerance(monkeypatch):
    # h is swept so the inserted vertex's computed turn crosses +-eps; the
    # turn is resolved to ~4e-16 there, so the sweep reaches the computed
    # values next to each edge.  The rule reads the builder's own first-pass
    # turn and decision, and the finished polygon must agree with it
    eps = COLLINEAR_EPS
    seen, merge = [], geometry.merge_collinear

    def spy(turns, *rest):
        seen.append(turns[1])
        try:
            keep, base_s = merge(turns, *rest)
        except NotConvexSpherical:
            seen.append("reflex")
            raise
        seen.append("kept" if keep is None or keep[1] else "merged")
        return keep, base_s

    monkeypatch.setattr(geometry, "merge_collinear", spy)
    build_spherical_polygon(_bent_ring(1e-6))
    h0 = 1e-6 * eps / seen[0]           # the turn is near linear in h
    turns = []
    for sign in (1, -1):
        for k in range(-100, 101):
            seen.clear()
            try:
                poly = build_spherical_polygon(_bent_ring(sign * h0 * (1.0 + k * 2e-5)))
            except NotConvexSpherical as exc:
                poly = exc
            turn, decision = seen[:2]
            turns.append(turn)
            assert decision == ("reflex" if turn < -eps else "kept" if turn > eps else "merged"), turn
            if decision == "merged":
                assert poly.n_vertices == 4, turn
            elif decision == "reflex":
                assert "negative geodesic turning" in str(poly), turn
            else:
                assert getattr(poly, "n_vertices", None) == 5, turn
    for edge in (eps, -eps):
        assert any(edge - 1e-15 < t <= edge for t in turns), edge
        assert any(edge < t < edge + 1e-15 for t in turns), edge


def test_a_kept_near_collinear_vertex_passes_gauss_bonnet():
    # offsets 3e-13 .. 1e-8 rad turn the inserted vertex by ~1.7e-12 .. ~5.6e-8
    # (5e-13 by 2.8e-12): every one is kept by the merge rule, and the fan
    # area, which shares no cosine with the turn, certifies every link
    for h in [5e-13, *np.geomspace(3e-13, 1e-8, 400)]:
        poly = build_spherical_polygon(_bent_ring(h))
        assert poly.n_vertices == 5, h
        assert poly.gauss_bonnet_residual <= 1e-12, h


def test_a_link_that_winds_twice_fails_gauss_bonnet():
    # six vertices twice round a cap of colatitude 0.3 (a triangle traced
    # twice): every turn is positive, and the turnings sum to 4*pi - 2A
    # while the fan encloses 2A, a residual of 2*pi
    with pytest.raises(NotConvexSpherical, match="Gauss-Bonnet residual 6.283e"):
        build_spherical_polygon(np.tile(ring_vertices(3, 0.3), (2, 1)))
