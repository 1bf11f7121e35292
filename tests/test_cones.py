import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from isocomb import cones, geometry, spherical
from isocomb.cones import (
    MAX_SAMPLES,
    combine_cones,
    combine_dihedral,
    cone_from_link,
    image_polygons,
    link_hausdorff,
    make_digon,
    normalize_cone,
    pogorelov_forward,
    pogorelov_identity_check,
    position_and_combine,
    segment_mismatch,
    transform_link_pair,
    truncate_digons,
)
from isocomb.errors import (
    AntipodalCorrespondence,
    GeometryError,
    NonPositiveHeight,
    NotConvexPlanar,
    NotConvexSpherical,
    PerimeterMismatch,
    PositioningNotFound,
    TruncationTooDeep,
)
from isocomb.geometry import (
    TAU,
    alignment_margins,
    chain_chords,
    merge_collinear,
    merged_vertex_positions,
    roll_next,
    rotate_about_x0_many,
    rotation_matrix_from_to,
    turns,
    unwrap_turns,
)
from isocomb.spherical import (
    SphericalPolygon,
    build_spherical_polygon,
    centroid_direction,
    gnomonic_inverse,
    random_convex_link,
    rotate_polygon,
    unit_rows,
)
from isocomb.suite import trial_rng
from isocomb.tolerances import HEIGHT_EPS, MARGIN_EPS

from conftest import (
    assert_same_bits,
    brent_outcomes,
    dense_alignment_margins,
    edge_distance_hausdorff,
    ellipse_link_vertices,
    former_combined_cone,
    former_image_directions,
    former_link_hausdorff,
    former_position_and_combine,
    loop_refine,
    random_rotation,
    ring_vertices,
    support_link,
)

EPS = np.finfo(float).eps

SQ2 = math.sqrt(2) / 2


def ring_link(n, rho):
    return build_spherical_polygon(ring_vertices(n, rho))


# -- pointwise transform -------------------------------------------------------

def test_forward_pole_maps_to_origin():
    w1, w2 = pogorelov_forward((1, 0, 0), (1, 0, 0))
    assert np.allclose(w1, 0.0) and np.allclose(w2, 0.0)


def test_forward_symmetric_pair():
    w1, w2 = pogorelov_forward((SQ2, SQ2, 0.0), (SQ2, -SQ2, 0.0))
    assert w1 == pytest.approx((0.5, 0.0))
    assert w2 == pytest.approx((-0.5, 0.0))


def test_forward_rejects_low_height():
    # every height must clear the floor, not only their sum
    with pytest.raises(NonPositiveHeight):
        pogorelov_forward((1e-7, 1, 0), (-1e-7, 0, 1))
    with pytest.raises(NonPositiveHeight, match="at or below the height floor"):
        pogorelov_forward((1, 0, 0), (HEIGHT_EPS, 1, 0))
    with pytest.raises(NonPositiveHeight):
        pogorelov_forward((1, 0, 0), (math.nan, 1, 0))


def test_forward_maps_rows_as_single_vectors():
    rng = np.random.default_rng(3)
    r = unit_rows(rng.normal(size=(2, 40, 3)) + np.array([3.0, 0.0, 0.0]))
    w1, w2 = pogorelov_forward(r[0], r[1])
    rows = [pogorelov_forward(a, b) for a, b in zip(r[0], r[1])]
    assert w1.tobytes() == np.array([a for a, _ in rows]).tobytes()
    assert w2.tobytes() == np.array([b for _, b in rows]).tobytes()
    low = r.copy()
    low[1, 17] = (0.0, 1.0, 0.0)
    with pytest.raises(NonPositiveHeight):
        pogorelov_forward(low[0], low[1])


def test_inverse_examples():
    got = gnomonic_inverse(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert got[0] == pytest.approx((1, 0, 0))
    assert got[1] == pytest.approx((SQ2, SQ2, 0.0))


def test_identity_check_trivials():
    assert pogorelov_identity_check((1, 0, 0), (1, 0, 0)) == 0.0
    r1 = np.array([SQ2, SQ2, 0.0])
    r2 = np.array([SQ2, -SQ2, 0.0])
    assert pogorelov_identity_check(r1, r2) <= 1e-15


def test_identity_check_randomized():
    rng = np.random.default_rng(99)
    worst, n = 0.0, 0
    while n < 2000:
        v = rng.normal(size=(2, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        if v[0, 0] < 0.05 or v[1, 0] < 0.05:
            continue
        worst = max(worst, pogorelov_identity_check(v[0], v[1]))
        n += 1
    assert worst <= 1e-12


def _congruent_pairs(rng, n, count, floor=0.05):
    """``count`` point pairs (a1, b1) of S^n and their images (a2, b2) under
    random orthogonal maps of R^(n + 1), every height above ``floor``, as the
    four (count, n + 1) arrays a1, b1, a2, b2.  A map whose first row meets
    both points on its negative side is negated in that row."""
    ab1 = rng.standard_normal((4 * count, 2, n + 1))
    ab1 /= np.linalg.norm(ab1, axis=2, keepdims=True)
    ab1[..., 0] = np.abs(ab1[..., 0])
    ab2 = ab1 @ np.swapaxes(np.linalg.qr(rng.standard_normal((4 * count, n + 1, n + 1)))[0], 1, 2)
    ab2[..., 0] *= np.sign(ab2[:, :1, 0])
    keep = np.flatnonzero(np.minimum(ab1[..., 0], ab2[..., 0]).min(axis=1) > floor)[:count]
    assert len(keep) == count
    return np.concatenate([ab1[keep], ab2[keep]], axis=1).transpose(1, 0, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_forward_keeps_the_chords_of_congruent_pairs_in_any_dimension(n):
    # Pogorelov's identity in S^n: the squared image chords of a1, b1 and of
    # a2, b2 differ by 2 (<a2, b2> - <a1, b1>) / (D_a D_b), with D the height
    # sums, so congruent pairs map to equal chords.  The rotated pair carries
    # the rotation's rounding, ~(n + 1) eps per coordinate, and the map
    # divides by D, so a chord moves by a few (n + 1) eps / D
    a1, b1, a2, b2 = _congruent_pairs(np.random.default_rng(n), n, 2000)
    wa1, wa2 = pogorelov_forward(a1, a2)
    wb1, wb2 = pogorelov_forward(b1, b2)
    gap = np.abs(np.linalg.norm(wa1 - wb1, axis=1) - np.linalg.norm(wa2 - wb2, axis=1))
    heights = np.minimum(a1[:, 0] + a2[:, 0], b1[:, 0] + b2[:, 0])
    assert np.all(gap <= 8 * (n + 1) * EPS / heights)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_identity_check_holds_in_any_dimension(n):
    # the inverse gnomonic route lifts the n-column image sum to S^n; the
    # closed form divides by sqrt(2 (1 + <r1, r2>)) = |r1 + r2|, whose square
    # is rounded by ~(n + 1) eps, so the routes part by ~(n + 1) eps / |r1 + r2|^2
    a1, b1, a2, b2 = _congruent_pairs(np.random.default_rng(10 + n), n, 1000)
    for r1, r2 in zip(np.concatenate([a1, b1]), np.concatenate([a2, b2])):
        s2 = float(np.sum((r1 + r2) ** 2))
        assert pogorelov_identity_check(r1, r2) <= 8 * (n + 1) * EPS / s2


# -- link pair transform ---------------------------------------------------------

def test_transform_identical_links_identical_images():
    link = ring_link(32, 0.4)
    image = transform_link_pair(link, link)
    planar1, planar2 = image_polygons(image)
    assert np.array_equal(image.image1, image.image2)
    assert np.array_equal(planar1.vertices, planar2.vertices)
    assert np.all(image.x0_sums > 0)


def test_transform_perimeter_mismatch():
    with pytest.raises(PerimeterMismatch):
        transform_link_pair(ring_link(32, 0.4), ring_link(32, 0.6))


def test_transform_and_positioning_refuse_a_step_that_is_not_positive():
    # a zero, negative or NaN step once sampled the events alone, after two
    # RuntimeWarnings from casting inf/NaN sample counts to integers
    link = ring_link(32, 0.4)
    for max_step in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="max_step"):
            transform_link_pair(link, link, max_step=max_step)
        with pytest.raises(ValueError, match="max_step"):
            position_and_combine(cone_from_link(link), cone_from_link(link), max_step=max_step)


def test_transform_commutes_with_axis_rotation():
    # rotating the first link about x0 rotates its image by the same angle
    # and leaves the height sums untouched
    m1 = support_link(256, 0.8, {2: (0.04, 0.0), 3: (0.0, 0.02)})
    m2 = support_link(256, 0.8, {2: (0.0, -0.03), 4: (0.01, 0.0)})
    # equalize perimeters by rebuilding the second from scaled gnomonic coordinates
    from scipy.optimize import brentq
    from isocomb.spherical import edge_frame, gnomonic, gnomonic_inverse

    w2 = gnomonic(m2.vertices)

    def perim(lam):
        return float(np.sum(edge_frame(gnomonic_inverse(lam * w2))[3]))

    lam = brentq(lambda t: perim(t) - m1.perimeter, 0.2, 3.0, xtol=1e-15)
    m2 = build_spherical_polygon(gnomonic_inverse(lam * w2))

    psi = 0.83
    base = transform_link_pair(m1, m2)
    rotated = build_spherical_polygon(rotate_about_x0_many(psi, m1.vertices), base_s=m1.base_s)
    moved = transform_link_pair(rotated, m2)
    assert np.max(np.abs(moved.x0_sums - base.x0_sums)) <= 1e-14
    c, s = math.cos(psi), math.sin(psi)
    rot = np.array([[c, -s], [s, c]])
    assert np.max(np.abs(moved.image1 - base.image1 @ rot.T)) <= 1e-14
    assert np.max(np.abs(moved.image2 - base.image2)) <= 1e-14


def test_refine_equals_per_gap_loop_bit_for_bit():
    rng = np.random.default_rng(61)
    for trial in range(3000):
        period = float(rng.choice([1.0, TAU - 0.5, rng.uniform(0.1, 6.2)]))
        n = int(rng.integers(1, 40))
        positions = np.sort(rng.uniform(0.0, period, n))
        positions[0] = 0.0
        if trial % 3 == 0:                  # gaps that are exact multiples of the step
            positions = np.unique(np.floor(positions / period * 8)) * (period / 8)
        max_step = period / float(rng.choice([1, 7, 256, 1024, rng.uniform(1.0, 300.0)]))
        want = loop_refine(positions, period, max_step)
        got, firsts = cones._refine(positions, period, max_step)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got[firsts].tobytes() == positions.tobytes()


def test_transform_exact_discrete_isometry_with_events():
    # with vertex events included in the sample set the image chords of
    # corresponding segments are equal to rounding level, on the events
    # alone and refined to a perimeter/256 grid
    rng = np.random.default_rng(4)
    l1 = random_convex_link(rng, 3.1, n_points=14)
    l2 = random_convex_link(rng, 3.1, n_points=18)
    for max_step in (math.inf, l1.perimeter / 256):
        assert segment_mismatch(transform_link_pair(l1, l2, max_step=max_step)) <= 1e-12


def test_transform_samples_the_merged_events_unless_refined():
    # the default samples are the merged events exactly, and the image
    # carries them; a perimeter/256 grid adds only collinear samples, so
    # both give the same image vertices, or the same refusal
    rng = np.random.default_rng(9)
    for i in range(40):
        target = rng.uniform(0.5, TAU - 0.5)
        l1, l2 = random_convex_link(rng, target), random_convex_link(rng, target)
        image = transform_link_pair(l1, l2)
        events = merged_vertex_positions(l1, l2)[0]
        assert image.positions.tobytes() == events.tobytes(), i
        assert image.events.tobytes() == events.tobytes(), i
        coarse = _outcome(image_polygons, image)
        fine = _outcome(image_polygons, transform_link_pair(l1, l2, max_step=l1.perimeter / 256))
        if isinstance(coarse, type):
            assert coarse is fine, i
            continue
        for a, b in zip(coarse, fine):
            assert a.vertices.tobytes() == b.vertices.tobytes(), i


def test_transform_first_order_isometry_uniform_grids():
    # uniform grids straddle the image corners; the chord mismatch is then
    # first order and halves (at least 1.8x) per resolution halving
    m1 = support_link(2048, 0.9, {2: (0.03, 0.0), 3: (0.0, 0.02), 5: (0.008, 0.0)})
    tilt = rotation_matrix_from_to(
        np.array([1.0, 0, 0]), unit_rows(np.array([1.0, 0.25, -0.35]))
    )
    m2 = rotate_polygon(m1, tilt).with_base(0.37 * m1.perimeter)
    mismatches = [
        segment_mismatch(
            transform_link_pair(m1, m2, max_step=m1.perimeter / n, include_vertices=False)
        )
        for n in (64, 128, 256, 512)
    ]
    for a, b in zip(mismatches, mismatches[1:]):
        assert a / b >= 1.8


def test_transform_nonconvex_image_detected():
    # a generic correspondence can produce a non-convex image pair;
    # image_polygons reports it instead of building a bad polygon
    rng = np.random.default_rng(5)
    l1 = random_convex_link(rng, 3.4, n_points=16)
    tilt = rotation_matrix_from_to(
        np.array([1.0, 0, 0]), unit_rows(np.array([1.0, 0.25, -0.35]))
    )
    l2 = rotate_polygon(l1, tilt).with_base((l1.base_s + 0.41 * l1.perimeter) % l1.perimeter)
    image = transform_link_pair(l1, l2)
    with pytest.raises(NotConvexPlanar):
        image_polygons(image)
    assert segment_mismatch(image) <= 1e-12  # the isometry holds regardless


# -- cone combination --------------------------------------------------------------

def test_combine_identical_cones_vertexwise(octant):
    k = cone_from_link(octant)
    combined = combine_cones(k, k)
    assert np.array_equal(combined.link.vertices, octant.vertices)


def test_combine_cones_perimeter_mismatch(octant):
    with pytest.raises(PerimeterMismatch):
        combine_cones(cone_from_link(octant), cone_from_link(ring_link(16, 0.3)))


def test_combine_cones_antipodal_correspondence():
    # second link is the first rotated by pi about the x2-axis; vertices on
    # the x2 = 0 meridian map to their antipodes
    n, rho = 8, 0.4
    link1 = ring_link(n, rho)  # vertex 0 at azimuth 0 has x2 = 0
    half_turn = np.diag([-1.0, -1.0, 1.0])
    link2 = build_spherical_polygon(link1.vertices @ half_turn.T)
    with pytest.raises(AntipodalCorrespondence):
        combine_cones(cone_from_link(link1), cone_from_link(link2))


def test_combine_rotated_circular_cones_closed_form():
    # a ring link and its rotation about the axis combine to the ring at
    # colatitude atan(cos(alpha/2) tan(rho)), azimuths advanced by alpha/2
    n, rho, alpha = 16, 0.6, 0.8
    link1 = ring_link(n, rho)
    link2 = build_spherical_polygon(rotate_about_x0_many(alpha, link1.vertices))
    combined = combine_cones(cone_from_link(link1), cone_from_link(link2))
    rho2 = math.atan(math.cos(alpha / 2) * math.tan(rho))
    phi = np.arange(n) * (TAU / n) + alpha / 2
    expected = np.column_stack(
        [np.full(n, math.cos(rho2)), math.sin(rho2) * np.cos(phi), math.sin(rho2) * np.sin(phi)]
    )
    assert np.max(np.abs(combined.link.vertices - expected)) <= 1e-12


# -- positioning pipeline ------------------------------------------------------------

def test_position_identical_cones(octant):
    k = cone_from_link(octant)
    report = position_and_combine(k, k)
    assert report.psi == 0.0
    assert report.sigma0 == 0.0


def test_position_recovers_axis_rotation():
    rng = np.random.default_rng(12)
    l1 = random_convex_link(rng, 2.8, n_points=14)
    c1 = normalize_cone(cone_from_link(l1))
    link2 = build_spherical_polygon(
        rotate_about_x0_many(1.1, c1.link.vertices),
        base_s=(c1.link.base_s + 0.3 * c1.link.perimeter) % c1.link.perimeter,
    )
    report = position_and_combine(cone_from_link(c1.link), cone_from_link(link2))
    link = report.combined.link
    assert report.margin > 0
    assert link.min_turning() >= -1e-9
    assert link.gauss_bonnet_residual <= 1e-8


def test_position_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(20):
        target = rng.uniform(0.8, 5.0)
        l1 = random_convex_link(rng, target)
        l2 = random_convex_link(rng, target)
        report = position_and_combine(cone_from_link(l1), cone_from_link(l2))
        assert report.combined.link.gauss_bonnet_residual <= 1e-8
        assert report.combined.link.min_turning() >= -1e-9


def test_position_dense_ellipse_pair():
    # 16k-vertex links of ellipses with crossed axes: the turnings of the
    # links and of their combination read edges of ~2e-4 on average and
    # down to 2.6e-11, whose normals are accurate to eps of themselves
    rng = np.random.default_rng(0)
    l1 = build_spherical_polygon(ellipse_link_vertices(rng, 16000, 1.0, 0.6))
    l2 = build_spherical_polygon(ellipse_link_vertices(rng, 16000, 0.8, 1.0))
    report = position_and_combine(cone_from_link(l1), cone_from_link(l2))
    link = report.combined.link
    assert report.margin > 0
    assert link.min_turning() >= -1e-9
    assert link.gauss_bonnet_residual <= 1e-13


def test_positioned_combination_matches_inverse_transform_route():
    # the combined link direction equals the inverse transform of the sum
    # of the planar images at every sampled position of a perimeter/256 grid
    rng = np.random.default_rng(8)
    l1 = random_convex_link(rng, 3.3)
    l2 = random_convex_link(rng, 3.3)
    report = position_and_combine(cone_from_link(l1), cone_from_link(l2))
    image = transform_link_pair(report.cone1.link, report.cone2.link, max_step=l1.perimeter / 256)
    r1 = report.cone1.link.points_at(image.positions)
    r2 = report.cone2.link.points_at(image.positions)
    direct = (r1 + r2) / np.linalg.norm(r1 + r2, axis=1, keepdims=True)
    via_plane = gnomonic_inverse(image.image1 + image.image2)
    assert np.max(np.abs(direct - via_plane)) <= 1e-12


def _cone_suite_pair(seed, index):
    # the links cone_trial draws at the default suite config
    rng = trial_rng(seed, index)
    target = rng.uniform(0.5, TAU - 0.5)
    l1 = random_convex_link(rng, target, n_points=30)
    l2 = random_convex_link(rng, target, n_points=30)
    return cone_from_link(l1), cone_from_link(l2)


def test_position_matches_dense_oracle_on_acceptance_seed(monkeypatch):
    # the cone acceptance suite's first trials, positioned with the O(m)
    # kernel and again with the m x m gap matrix of real differences
    pairs = [_cone_suite_pair(7, i) for i in range(12)]
    fast = [position_and_combine(k1, k2) for k1, k2 in pairs]
    monkeypatch.setattr(cones, "alignment_margins", lambda g: dense_alignment_margins(g, g))
    for (k1, k2), a in zip(pairs, fast):
        b = position_and_combine(k1, k2)
        assert (a.psi, a.sigma0, a.margin, a.candidates_tried) == (
            b.psi, b.sigma0, b.margin, b.candidates_tried
        )


def unwrapped_chord_directions(samples):
    """The search image's unwrapped chord directions, as positioning takes them."""
    p = chain_chords(samples)[2]
    return unwrap_turns(p[0], turns(p))


def test_image_directions_follow_np_unwrap_to_rounding():
    # Positioning unwraps an image's chord directions p by the plane's rule:
    # p[0] plus the running sum of the turns.  The former route, np.unwrap,
    # added 2*pi corrections to p[k] instead.  Both approximate p[k] + 2*pi w
    # for one wrap count w, except at a reversal, a step d within an ulp or
    # two of +-pi, where the two may take opposite sides: a step of exactly
    # -pi geometry.turns reads as +pi (its (-pi, pi] convention) and
    # np.unwrap keeps, so each later direction is 2*pi above the former one.
    # Bound, first order in u = eps / 2, over k chords with J steps of
    # |d| >= pi: a turn rounds by u |t|, plus 2 pi u at a wrap; the running
    # sum of the turns adds (k - 1) u sum|t| and p[0] + sum adds u (pi +
    # sum|t|).  np.unwrap's correction at a wrap rounds four times (dd + pi,
    # the mod, - pi, - dd), by 8 pi u in all, their running sum by 2 pi u J^2,
    # and p[k] + sum by u (pi + sum|t|).  In all u ((k + 2) sum|t| + 2 pi
    # (J^2 + 5 J + 1)), and 2 k eps (pi + sum|t|) (J + 1)^2 holds it twice
    # over at every k >= 2, which leaves room for the check's own shift and
    # subtraction.  A convex loop wraps once and never reverses, so there the
    # bound is 8 k eps (pi + sum|t|); the worst dense image moves by 2.3e-14.
    rng = np.random.default_rng(62)
    dense = []
    for _ in range(3):
        l1, l2 = random_convex_link(rng, 3.0), random_convex_link(rng, 3.0)
        image = transform_link_pair(l1, l2, max_step=l1.perimeter / 4096)
        dense += [image.image1, image.image2]
    r1, r2 = ring_link(64, 0.5), build_spherical_polygon(ring_vertices(64, 0.5, offset=0.2))
    for max_step in (math.inf, r1.perimeter / 4096):
        image = transform_link_pair(r1, r2.with_base(0.7), max_step=max_step)
        dense += [image.image1, image.image2]
    # loops of chords at exact angles (signed zeros included), many of whose
    # steps are exactly +-pi
    exact = [rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(int(rng.integers(2, 30)), 2)) for _ in range(400)]
    minus_pi = 0
    for samples in dense + exact:
        got, want = unwrapped_chord_directions(samples), former_image_directions(samples)
        p = chain_chords(samples)[2]
        d = np.diff(p)
        t = turns(p)[1:]
        sides = np.round((t - np.diff(want)) / TAU)
        reversal = np.abs(np.abs(d) - math.pi) <= 2 * np.spacing(math.pi)
        assert not np.any(sides[~reversal]) and np.all(sides[d == -math.pi] == 1.0)
        assert np.all(t[d == -math.pi] == math.pi) and not np.any(t == -math.pi)
        wraps = int(np.sum(np.abs(d) >= math.pi))
        bound = 2 * len(p) * EPS * (math.pi + np.abs(t).sum()) * (wraps + 1) ** 2
        shift = np.append(0.0, TAU * np.cumsum(sides))
        assert np.max(np.abs(got - want - shift)) <= bound
        minus_pi += int(np.sum(d == -math.pi))
    assert minus_pi > 50
    for samples in dense:
        d = np.diff(chain_chords(samples)[2])
        assert int(np.sum(np.abs(d) >= math.pi)) == 1 and not np.any(np.abs(np.abs(d) - math.pi) < 1e-3)


def _positive_margins(k1, k2):
    """Number of candidates whose planar margin clears MARGIN_EPS."""
    image = transform_link_pair(normalize_cone(k1).link, normalize_cone(k2).link)
    g = unwrapped_chord_directions(image.image1) - unwrapped_chord_directions(image.image2)
    return int(np.sum(alignment_margins(g) > MARGIN_EPS))


def test_positioning_falls_back_to_the_next_candidate(monkeypatch):
    # no measured positioning rejects its first candidate, so the loop's
    # fallback is reached by failing the first combination on purpose
    k1, k2 = _cone_suite_pair(7, 0)
    first = position_and_combine(k1, k2)
    assert first.candidates_tried == 1
    calls = []

    real = cones._combined_cone

    def fail_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise NotConvexSpherical("rejected on purpose")
        return real(*args)

    monkeypatch.setattr(cones, "_combined_cone", fail_first)
    report = position_and_combine(k1, k2)
    assert report.candidates_tried == 2 and len(calls) == 2
    assert report.sigma0 != first.sigma0
    assert report.margin > 0
    _finite_certified(report.combined.link)


def test_positioning_not_found_names_every_candidate_tried(monkeypatch):
    k1, k2 = _cone_suite_pair(7, 0)
    calls = []

    def fail_all(*args):
        calls.append(args)
        raise NotConvexSpherical("rejected on purpose")

    n = _positive_margins(k1, k2)
    monkeypatch.setattr(cones, "_combined_cone", fail_all)
    with pytest.raises(PositioningNotFound, match=f"among {n} with margin"):
        position_and_combine(k1, k2)
    assert n > 1 and len(calls) == n


def _count_builds(monkeypatch, rejected):
    """Record every spherical link build; the first ``rejected`` raise."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        if len(calls) <= rejected:
            raise NotConvexSpherical("rejected on purpose")
        return build_spherical_polygon(*args, **kwargs)

    monkeypatch.setattr(cones, "build_spherical_polygon", counted)
    monkeypatch.setattr(spherical, "build_spherical_polygon", counted)
    return calls


@pytest.mark.parametrize("rejected", [0, 1, 2])
def test_positioning_builds_one_link_per_candidate_tried(monkeypatch, rejected):
    # a rotation carries a validated link's data, so each candidate's
    # combined link is the only link a positioning builds
    k1, k2 = _cone_suite_pair(7, 0)
    calls = _count_builds(monkeypatch, rejected)
    report = position_and_combine(k1, k2)
    assert report.candidates_tried == rejected + 1 == len(calls)


def test_positioning_that_rejects_every_candidate_builds_each_once(monkeypatch):
    k1, k2 = _cone_suite_pair(7, 0)
    n = _positive_margins(k1, k2)
    calls = _count_builds(monkeypatch, n)
    with pytest.raises(PositioningNotFound, match=f"among {n} with margin"):
        position_and_combine(k1, k2)
    assert len(calls) == n


# -- digons ---------------------------------------------------------------------------

def test_make_digon_validates_angle():
    make_digon(math.pi / 2)
    with pytest.raises(ValueError):
        make_digon(math.pi)
    with pytest.raises(ValueError):
        make_digon(0.0)


def test_digon_perimeter_solves_equal_scipy_brentq(monkeypatch):
    # the second digon's cut depth on the CLI's ladder, for the acceptance
    # pair, the thin digon, and 20 angle pairs drawn as the CLI benchmark
    # draws them, through both solvers given only f; the truncation passes
    # the values at the bracket ends it has already taken, which are f's
    # there, and the solve given them calls f as the solve given only f
    # does, less those two calls
    outcomes = []

    def both(f, a, b, fa, fb):
        outcomes.append(brent_outcomes(f, a, b))
        assert_same_bits(np.array([fa, fb]), np.array([f(a), f(b)]), "bracket values")
        calls = []

        def counted(x):
            calls.append(float(x).hex())
            return f(x)

        root = geometry.brent_root(counted, a, b, fa, fb)
        assert (float(root).hex(), calls) == (outcomes[-1][0][0], outcomes[-1][0][1][2:])
        return float.fromhex(outcomes[-1][0][0])

    monkeypatch.setattr(cones, "brent_root", both)
    rng = np.random.default_rng(0)
    pairs = [(math.pi / 3, math.pi / 2), (math.pi / 2, math.pi / 3), (1e-9, math.pi / 3)]
    pairs += [tuple(rng.uniform(0.6, 2.4, size=2)) for _ in range(20)]
    for angle1, angle2 in pairs:
        for eps in (0.2, 0.1, 0.05, 0.025):
            truncate_digons(make_digon(angle1), make_digon(angle2), eps)
    assert len(outcomes) == 4 * len(pairs)
    assert all(ours == theirs for ours, theirs in outcomes)


def test_truncation_builds_each_bracket_end_once(monkeypatch):
    # a rung builds the first quadrilateral, then the second digon's at both
    # bracket ends, which the solve is given and so never builds again, at
    # each depth the solve tries, and at the root: on the CLI's default
    # ladder, two builds fewer per rung than a solve that takes the ends again
    builds, solves = [], []
    build, solve = cones._digon_quadrilateral, cones.brent_root

    def counted_build(digon, eps):
        builds.append(eps)
        return build(digon, eps)

    def counted_solve(f, *args):
        def counted(x):
            solves.append(x)
            return f(x)
        return solve(counted, *args)

    monkeypatch.setattr(cones, "_digon_quadrilateral", counted_build)
    monkeypatch.setattr(cones, "brent_root", counted_solve)
    d1, d2 = make_digon(math.pi / 3), make_digon(math.pi / 2)
    for eps in (0.2, 0.1, 0.05, 0.025):
        builds.clear()
        solves.clear()
        _, _, e2 = truncate_digons(d1, d2, eps)
        eps1, lo, hi, *tried, root = builds
        assert (eps1, root, tried) == (eps, e2, solves), eps
        assert lo not in solves and hi not in solves, eps


def test_truncate_identical_digons():
    d = make_digon(math.pi / 3)
    q1, q2, _ = truncate_digons(d, d, 0.15)
    assert q1.perimeter == pytest.approx(q2.perimeter, rel=1e-12)
    assert np.allclose(q1.vertices, q2.vertices)
    assert q1.n_vertices == 4


def test_truncate_equalizes_perimeters():
    q1, q2, _ = truncate_digons(make_digon(math.pi / 3), make_digon(math.pi / 2), 0.1)
    assert abs(q1.perimeter - q2.perimeter) <= 1e-12 * q1.perimeter
    assert q1.gauss_bonnet_residual <= 1e-12
    assert q2.gauss_bonnet_residual <= 1e-12


def test_truncate_perimeter_tends_to_digon_length():
    d1, d2 = make_digon(1.0), make_digon(1.2)
    perims = [truncate_digons(d1, d2, eps)[0].perimeter for eps in (0.2, 0.1, 0.05, 0.025)]
    assert all(a < b for a, b in zip(perims, perims[1:]))
    assert perims[-1] == pytest.approx(TAU, abs=0.06)


def test_truncate_rejects_out_of_range_depth():
    with pytest.raises(TruncationTooDeep):
        truncate_digons(make_digon(1.0), make_digon(1.1), 1.0)


def test_truncate_names_the_depth_a_thin_first_digon_cannot_take():
    # the depth-0.005 quadrilateral of a 1e-9 digon has two edges of
    # 2 sin(0.005) sin(5e-10) ~ 5e-12, below LENGTH_EPS_FACTOR times its
    # perimeter (~6.3e-12): the geometry leaves no valid quadrilateral.  The
    # rungs down to 0.025, with edges of ~2.5e-11, are valid
    thin, other = make_digon(1e-9), make_digon(math.pi / 3)
    with pytest.raises(TruncationTooDeep, match="0.005 .*coincide"):
        truncate_digons(thin, other, 0.005)
    for eps in (0.2, 0.1, 0.05, 0.025):
        q1, q2, _ = truncate_digons(thin, other, eps)
        assert abs(q1.perimeter - q2.perimeter) <= 1e-12 * q1.perimeter


def test_combine_dihedral_identical():
    d = make_digon(math.pi / 3)
    report = combine_dihedral(d, d, [0.2, 0.1])
    for lv in report.levels:
        assert lv.gauss_bonnet_residual <= 1e-8
        assert lv.min_turning >= -1e-9
        # combining a cone with itself reproduces the input quadrilateral
        q1, _, _ = truncate_digons(d, d, lv.eps1)
        c1 = normalize_cone(cone_from_link(q1))
        assert link_hausdorff(lv.combined_link, c1.link) <= 1e-7


def test_combine_dihedral_ladder_converges():
    # the 1e-9 digon's depth-0.025 quadrilateral has two edges of ~2.5e-11,
    # so each of its turnings reads the normal of an edge that short
    for angle1, angle2 in ((math.pi / 3, math.pi / 2), (1e-9, math.pi / 3)):
        report = combine_dihedral(make_digon(angle1), make_digon(angle2), [0.2, 0.1, 0.05, 0.025])
        for lv in report.levels:
            assert lv.min_turning >= -1e-9
            assert lv.gauss_bonnet_residual <= 1e-8
        assert len(report.hausdorff) == 3
        assert all(a > b for a, b in zip(report.hausdorff, report.hausdorff[1:])), angle1


def test_combine_dihedral_validates_ladder():
    d = make_digon(1.0)
    with pytest.raises(ValueError):
        combine_dihedral(d, d, [0.1, 0.2])
    with pytest.raises(ValueError):
        combine_dihedral(d, d, [])


def test_link_hausdorff_identity(octant):
    assert link_hausdorff(octant, octant) <= 1e-12


def test_link_hausdorff_refuses_fewer_than_one_sample(octant):
    # n = 0 divided by zero, a negative n scored the vertices alone, and
    # n = 2.5 spaced 3 points P / 2.5 apart, not at equal arc length
    for n in (0, -5, 2.5):
        with pytest.raises(ValueError, match=r"n must be an integer in \[1, MAX_SAMPLES"):
            link_hausdorff(octant, octant, n=n)
    assert link_hausdorff(octant, octant, n=1) <= 1e-12


def test_sampling_refuses_a_step_or_count_past_the_cap(octant):
    # a step of 1e-300 overflowed the int64 sample count to INT64_MIN, which
    # was clamped to one sample per gap after a RuntimeWarning, and 1e-12 on
    # a 3-perimeter link asked for ~3e12 samples; both, and a Hausdorff grid
    # of 1e12 points, are refused before any cast or allocation
    rng = np.random.default_rng(3)
    l1, l2 = random_convex_link(rng, 3.0), random_convex_link(rng, 3.0)
    assert 3.0 / 1e-12 > MAX_SAMPLES
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for step in (1e-300, 1e-12):
            with pytest.raises(ValueError, match="max_step"):
                transform_link_pair(l1, l2, max_step=step)
            with pytest.raises(ValueError, match="max_step"):
                transform_link_pair(l1, l2, max_step=step, include_vertices=False)
            with pytest.raises(ValueError, match="max_step"):
                position_and_combine(cone_from_link(l1), cone_from_link(l2), max_step=step)
        with pytest.raises(ValueError, match=r"n must be an integer in \[1, MAX_SAMPLES"):
            link_hausdorff(octant, octant, n=10**12)


def test_link_hausdorff_concentric_rings():
    a = ring_link(64, 0.3)
    b = ring_link(64, 0.4)
    assert link_hausdorff(a, b) == pytest.approx(0.1, abs=2e-3)


DEFAULT_LADDER = (0.2, 0.1, 0.05, 0.025)
# digon angle pairs drawn as the cli-cold benchmark workload draws its own
_draws = np.random.default_rng(0)
DRAWN_ANGLE_PAIRS = [tuple(float(a) for a in _draws.uniform(0.6, 2.4, size=2)) for _ in range(20)]
# a few ulps of a distance below pi, in two routes' different operation orders
HAUSDORFF_ROUNDING = 1e-14


def _successive_rungs(angles):
    """Successive combined links of the default ladder for a pair of digon
    angles, or the 64-vertex rings of colatitude 0.3 and 0.4 for None."""
    if angles is None:
        return [(ring_link(64, 0.3), ring_link(64, 0.4))]
    report = combine_dihedral(make_digon(angles[0]), make_digon(angles[1]), DEFAULT_LADDER)
    links = [lv.combined_link for lv in report.levels]
    return list(zip(links, links[1:]))


@pytest.mark.parametrize(
    "angles", [(math.pi / 3, math.pi / 2), *DRAWN_ANGLE_PAIRS, None],
    ids=["default", *(f"drawn{i}" for i in range(len(DRAWN_ANGLE_PAIRS))), "rings"],
)
def test_link_hausdorff_is_within_half_a_sample_of_the_edge_oracle(angles):
    # the distance to a fixed link is 1-Lipschitz in arc length, so a supremum
    # over n samples (and the vertices) is at most p/(2n) below the exact one
    # and never above it: the oracle at 16n samples lies within p/(32n) of it
    n = 1024
    for a, b in _successive_rungs(angles):
        new = link_hausdorff(a, b, n)
        half = max(a.perimeter, b.perimeter) / (2 * n)
        # the same samples through the edge distance written from its definition
        assert abs(new - edge_distance_hausdorff(a, b, n)) <= HAUSDORFF_ROUNDING
        dense = edge_distance_hausdorff(a, b, 16 * n)
        assert -half - HAUSDORFF_ROUNDING <= new - dense <= half / 16 + HAUSDORFF_ROUNDING
        # sample to sample, the matrix route measured no nearer than the edges
        # do, but it missed the vertices, each within half a sample of one
        assert former_link_hausdorff(a, b, n) - new >= -half - HAUSDORFF_ROUNDING


@pytest.mark.parametrize("angles", [(math.pi / 3, math.pi / 2), None], ids=["default", "rings"])
def test_link_hausdorff_allocates_no_sample_matrix(angles):
    # the 1024 x 1024 float matrices took 16 MiB; (samples, edges) arrays
    # of the 64-vertex rings take 0.53 MiB each, three at a time
    a, b = _successive_rungs(angles)[0]
    tracemalloc.start()
    try:
        link_hausdorff(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_link_hausdorff_in_blocks_equals_one_block(monkeypatch):
    # each point's least distance is exact, so the largest over blocks of
    # points is the one-block distance bit for bit
    rng = np.random.default_rng(3)
    pairs = [(ring_link(64, 0.3), ring_link(64, 0.4)),
             *_successive_rungs((math.pi / 3, math.pi / 2)),
             (build_spherical_polygon(ellipse_link_vertices(rng, 64, 1.0, 0.6)),
              build_spherical_polygon(ellipse_link_vertices(rng, 70, 0.8, 1.0)))]
    whole = {(i, n): link_hausdorff(a, b, n) for i, (a, b) in enumerate(pairs) for n in (1, 37, 1000, 1024)}
    for cap in (40, 300, 1024):     # down to blocks of one point
        monkeypatch.setattr(cones, "MAX_SAMPLES", cap)
        for (i, n), want in whole.items():
            if n <= cap:
                assert_same_bits(link_hausdorff(*pairs[i], n), want, (i, n, cap))


def test_link_hausdorff_memory_is_bounded_on_dense_links(monkeypatch):
    # the 5,120 points against 4,096 edges in one block would take three
    # 160 MiB arrays; blocks of 256 points take three of 8 MiB
    rng = np.random.default_rng(0)
    a = build_spherical_polygon(ellipse_link_vertices(rng, 4096, 1.0, 0.6))
    b = build_spherical_polygon(ellipse_link_vertices(rng, 4096, 0.8, 1.0))
    tracemalloc.start()
    try:
        got = link_hausdorff(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    monkeypatch.setattr(cones, "MAX_SAMPLES", 2**18)     # blocks of 64 points
    assert_same_bits(link_hausdorff(a, b), got)


# -- adversarial inputs and invariants of the positioning -----------------------------

def _outcome(fn, *args):
    """``fn(*args)``, or the type of the GeometryError it raised; any other
    exception propagates and fails the test."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return type(exc)


def _finite_certified(link):
    fields = (link.vertices, link.turning, link.perimeter, link.area, link.gauss_bonnet_residual)
    assert all(np.all(np.isfinite(f)) for f in fields)
    assert link.min_turning() >= -1e-9 and link.gauss_bonnet_residual <= 1e-8


def _low_vertex_links(h):
    """A ring at height ``h`` around +x0, and a triangle with one vertex at
    height ``h`` and the rest higher (its lowest point is that vertex)."""
    ring = ring_link(12, math.acos(h))
    tri = np.array([[h, math.sqrt(1.0 - h * h), 0.0], [0.6, -0.3, 0.5], [0.6, -0.3, -0.5]])
    tri[1:] = unit_rows(tri[1:])
    return ring, build_spherical_polygon(tri)


@pytest.mark.parametrize("side", [-1, 1])
def test_links_at_the_height_floor_end_typed_or_pass(side):
    # a vertex just below HEIGHT_EPS is refused by the transform; just
    # above it the transform and the positioning run through
    h = HEIGHT_EPS * (1.0 + side * 1e-3)
    for link in _low_vertex_links(h):
        assert np.min(link.vertices[:, 0]) - HEIGHT_EPS == pytest.approx(side * 1e-9, rel=1e-3)
        image = _outcome(transform_link_pair, link, link)
        if side < 0:
            assert image is NonPositiveHeight
        else:
            assert np.all(np.isfinite(image.image1)) and np.all(image.x0_sums > 0)
            image_polygons(image)
        turned = build_spherical_polygon(rotate_about_x0_many(0.3, link.vertices))
        report = _outcome(position_and_combine, cone_from_link(link), cone_from_link(turned))
        if isinstance(report, type):
            assert report is NonPositiveHeight
        else:
            assert math.isfinite(report.margin) and report.margin > 0
            _finite_certified(report.combined.link)


@pytest.mark.parametrize("angle", [1e-9, math.pi - 1e-9])
def test_digons_near_zero_and_pi_end_typed_or_pass(angle):
    # a validated link's edges are >= LENGTH_EPS_FACTOR * p, so every edge
    # normal of link_hausdorff has |v x w| > 0 and no distance is NaN
    digon = make_digon(angle)
    assert digon.angle == angle
    others = (make_digon(angle), make_digon(math.pi / 3))
    pairs = [(digon, other) for other in others] + [(others[1], digon)]
    for (d1, d2), ladder in itertools.product(pairs, (DEFAULT_LADDER[:3], DEFAULT_LADDER)):
        report = _outcome(combine_dihedral, d1, d2, ladder)
        if isinstance(report, type):
            continue
        assert len(report.hausdorff) == len(ladder) - 1
        assert all(math.isfinite(h) and h >= 0.0 for h in report.hausdorff)
        for lv in report.levels:
            assert math.isfinite(lv.psi) and lv.margin > 0
            _finite_certified(lv.combined_link)


def test_thin_digon_ends_in_the_geometry_not_in_the_bracket():
    # the second digon's cut-depth bracket starts deep enough for a valid
    # quadrilateral, so a 1e-9 pair reaches the positioning search; a digon
    # combined with itself is that digon, so the self-pair certifies with
    # no rotation and full margin, and each rung's combined link is its
    # quadrilateral's perimeter and turnings; a 1e-9 digon against pi/3
    # certifies too
    thin = make_digon(1e-9)
    ladder = [0.2, 0.1]
    report = combine_dihedral(thin, thin, ladder)
    for eps, lv in zip(ladder, report.levels):
        quad = truncate_digons(thin, thin, eps)[0]
        assert lv.psi == 0.0 and lv.margin == math.pi, eps
        assert lv.combined_link.perimeter == quad.perimeter, eps
        assert np.sort(lv.combined_link.turning).tobytes() == np.sort(quad.turning).tobytes(), eps
        _finite_certified(lv.combined_link)
    for a, b in ((thin, make_digon(math.pi / 3)), (make_digon(math.pi / 3), thin)):
        report = combine_dihedral(a, b, ladder)
        for lv in report.levels:
            assert lv.margin > 0
            _finite_certified(lv.combined_link)


def test_positioning_stops_before_the_candidates_when_the_merge_collapses(monkeypatch):
    # a merge that leaves fewer than 3 breakpoints does so whatever the
    # rotation, so no candidate is combined; no validated pair at hand
    # collapses at the one merge tolerance, so the merge is made to
    calls = []
    real = cones._combined_cone

    def counted(*args):
        calls.append(args)
        return real(*args)

    def collapsed(a, b):
        positions, rows_a, rows_b = merged_vertex_positions(a, b)
        return positions[:2], np.minimum(rows_a, 1), np.minimum(rows_b, 1)

    monkeypatch.setattr(cones, "_combined_cone", counted)
    monkeypatch.setattr(cones, "merged_vertex_positions", collapsed)
    thin = make_digon(1e-9)
    with pytest.raises(PositioningNotFound, match="breakpoints survive the merge"):
        combine_dihedral(thin, thin, [0.2, 0.1])
    assert calls == []


def test_positioning_merges_once_and_evaluates_each_link_once(monkeypatch):
    # one merge gives the events; each link is evaluated once, at the
    # samples and the midpoints, and the one candidate's combined link is
    # built from those rows: no second merge, no second evaluation
    merges, evaluations = [], []

    def counted_merge(*args):
        merges.append(args)
        return merged_vertex_positions(*args)

    points_at = SphericalPolygon.points_at

    def counted_points(link, ss):
        evaluations.append(ss)
        return points_at(link, ss)

    monkeypatch.setattr(cones, "merged_vertex_positions", counted_merge)
    monkeypatch.setattr(SphericalPolygon, "points_at", counted_points)
    k1, k2 = _cone_suite_pair(7, 0)
    report = position_and_combine(k1, k2)
    assert report.candidates_tried == 1
    assert len(merges) == 1 and len(evaluations) == 2


def _link_outcome(route):
    """Every field of the combined link ``route()`` builds, as bytes, or its
    error's type and message."""
    try:
        link = route().link
    except GeometryError as exc:
        return type(exc), str(exc)
    return tuple(np.asarray(getattr(link, name)).tobytes() for name in (
        "vertices", "cum_lengths", "perimeter", "base_s", "turning", "area", "gauss_bonnet_residual"))


def test_the_combined_link_equals_the_two_pass_build_bit_for_bit(monkeypatch):
    # With no vertex merged into the base event, the builder's first pass
    # merged that event away as collinear; the one-pass build starts past
    # it, at the base that pass gave.  Every combined link the positioning
    # builds, and combine_cones on the pairs as drawn (about 30% of which
    # fail) and on the first cone with itself, against the former build from
    # every event: the suite pairs, the refined pairs and the digon rungs of
    # the differential routes.
    checked, failed = [], 0
    real = cones._combined_cone

    def both(r1, r2, at, base_alone):
        want = _link_outcome(lambda: former_combined_cone(r1, r2, at))
        assert _link_outcome(lambda: real(r1, r2, at, base_alone)) == want
        checked.append(base_alone)
        return real(r1, r2, at, base_alone)

    monkeypatch.setattr(cones, "_combined_cone", both)
    for k1, k2, max_step in _differential_pairs():
        position_and_combine(k1, k2, max_step=max_step)
        for a, b in ((k1, k2), (k1, k1)):
            try:
                combine_cones(a, b)
            except GeometryError:
                failed += 1
    assert len(checked) > 900 and sum(checked) > 900 and failed > 80     # 936, 924 and 93 here
    # three events, the base on the arc between the other two: the two-pass
    # build refuses the two corners left, which the one-pass build would
    # not reach
    v1, v2 = unit_rows(np.array([[1.0, 0.3, 0.0], [1.0, -0.3, 0.0]]))
    r = np.stack([unit_rows(v1 + v2), v1, v2] * 2)
    got = _link_outcome(lambda: real(r, r, np.zeros(6), True))
    assert got == _link_outcome(lambda: former_combined_cone(r, r, np.zeros(6)))
    assert got[0] is NotConvexSpherical


def test_a_cone_trial_merges_its_combined_link_once(monkeypatch):
    # the one candidate's combined link, and combine_cones's, each pass
    # through the builder's collinear merge once
    merges = []

    def counted(*args):
        merges.append(args)
        return merge_collinear(*args)

    k1, k2 = _cone_suite_pair(7, 0)
    monkeypatch.setattr(geometry, "merge_collinear", counted)
    assert position_and_combine(k1, k2).candidates_tried == 1
    assert len(merges) == 1
    combine_cones(*(normalize_cone(k) for k in (k1, k2)))
    assert len(merges) == 2


def _differential_pairs():
    """Cone pairs with their steps: 150 suite pairs at each of seeds 7 and
    42, dense-pairs-style pairs refined to a 4096th of the perimeter, and
    the default digon rungs (pi/3 against pi/2)."""
    for seed in (7, 42):
        for i in range(150):
            yield (*_cone_suite_pair(seed, i), math.inf)
    rng = np.random.default_rng(4096)
    for _ in range(8):
        target = rng.uniform(0.5, TAU - 0.5)
        l1, l2 = random_convex_link(rng, target), random_convex_link(rng, target)
        yield cone_from_link(l1), cone_from_link(l2), l1.perimeter / 4096
    for eps in DEFAULT_LADDER:
        q1, q2, _ = truncate_digons(make_digon(math.pi / 3), make_digon(math.pi / 2), eps)
        yield cone_from_link(q1), cone_from_link(q2), math.inf


def test_positioning_equals_the_former_route():
    # The search image is the former transform's, row for row, so psi,
    # sigma0, margin and the candidates tried are equal bit for bit, and so
    # is the rotated first link.  A combined vertex normalizes r1 turned by
    # psi plus r2: the former route turned the vertices and interpolated, the
    # new one interpolates and turns, each rounding a coordinate by about
    # eps, so the vertices agree within 2 eps.  With every coordinate off by
    # at most d = 2 eps, an edge chord w - v moves by 2 sqrt(3) d and its
    # direction by 2 sqrt(3) d / l, for l the shortest edge; an edge normal
    # v x (w - v) moves in direction by sqrt(3) d plus that, and a turning,
    # the angle between two normals, by 2 sqrt(3) d (1 + 2 / l).  Each build
    # also rounds the short chord w - v of its own normals by eps / l, which
    # adds 4 eps / l: 8 eps + 32 eps / l covers both.  The worst measured
    # was 1.3 eps / l.
    moved = 0
    for k1, k2, max_step in _differential_pairs():
        a = position_and_combine(k1, k2, max_step=max_step)
        b = former_position_and_combine(k1, k2, max_step=max_step)
        assert (a.psi, a.sigma0, a.margin, a.candidates_tried) == (
            b.psi, b.sigma0, b.margin, b.candidates_tried
        )
        assert a.cone1.link.vertices.tobytes() == b.cone1.link.vertices.tobytes()
        la, lb = a.combined.link, b.combined.link
        assert la.n_vertices == lb.n_vertices
        assert np.max(np.abs(la.vertices - lb.vertices)) <= 2 * EPS
        l_min = float(np.min(la.edge_ends() - la.cum_lengths))
        assert np.max(np.abs(la.turning - lb.turning)) <= EPS * (8 + 32 / l_min)
        moved += la.vertices.tobytes() != lb.vertices.tobytes()
    assert moved > 0


def test_positioning_raises_in_the_former_order(monkeypatch):
    # the step is refused first, then a sample below the height floor, then
    # too few events: a ring of vertices just below the floor, whose merge
    # is made to collapse to its base point and first vertex
    ring, _ = _low_vertex_links(HEIGHT_EPS * (1.0 - 1e-3))
    k = cone_from_link(ring)

    def collapsed(a, b):
        positions, rows_a, rows_b = merged_vertex_positions(a, b)
        return positions[:2], np.minimum(rows_a, 1), np.minimum(rows_b, 1)

    monkeypatch.setattr(cones, "merged_vertex_positions", collapsed)
    for route in (position_and_combine, former_position_and_combine):
        with pytest.raises(ValueError, match="max_step"):
            route(k, k, max_step=0.0)
        with pytest.raises(NonPositiveHeight):
            route(k, k)
        with pytest.raises(PositioningNotFound, match="only 2 correspondence"):
            route(*_cone_suite_pair(7, 0))


@pytest.mark.parametrize("seed", range(12))
def test_positioning_invariant_under_common_rotation(seed):
    # centroid normalization takes a commonly rotated pair to the same pair
    # up to one rotation about x0 per cone; the tangent gap then shifts by
    # a constant, which moves neither the margins nor the combined link
    rng = np.random.default_rng(1000 + seed)
    target = rng.uniform(0.5, TAU - 0.5)
    l1, l2 = random_convex_link(rng, target), random_convex_link(rng, target)
    rot = random_rotation(rng)
    a = position_and_combine(cone_from_link(l1), cone_from_link(l2))
    b = position_and_combine(cone_from_link(rotate_polygon(l1, rot)), cone_from_link(rotate_polygon(l2, rot)))
    la, lb = a.combined.link, b.combined.link
    assert abs(a.margin - b.margin) <= 1e-9
    assert abs(la.perimeter - lb.perimeter) <= 1e-12
    assert la.n_vertices == lb.n_vertices
    assert np.max(np.abs(np.sort(la.turning) - np.sort(lb.turning))) <= 1e-9
    _finite_certified(la)
    _finite_certified(lb)


def test_positioning_invariant_under_independent_rotations():
    # Centroid normalization takes each independently rotated link to the
    # same link up to a rotation about x0; the tangent gap then shifts by a
    # constant, so the verdict, the vertex count, the margin, the combined
    # perimeter and the sorted turnings stay, up to rounding:
    # - Each normalized vertex moves by at most dv = 8 kappa eps.  The
    #   Rodrigues rotation to +x0 rounds by eps (1 + tan(theta / 2)) for a
    #   centroid at the angle theta from +x0, so kappa is the largest
    #   1 + tan(theta / 2) of the four normalizations; 8 covers that, the
    #   rotation and the row renormalizations.
    # - An image point rbar / H then moves by at most
    #   d_image = dv (1 + 2 |image|) / H, and a chord's direction by
    #   2 d_image / (its length).  The margin reads four chord directions;
    #   psi reads the two at the matched sample j.
    # - A combined vertex, the normalized sum of r1 turned by psi and r2
    #   (|r1 + r2| >= H), moves by at most dc = 2 (2 dv + d_psi) / H.  An
    #   edge then moves by 2 dc, the perimeter by 2 n dc, and a turning,
    #   which reads two edge directions, by 4 dc / l_min.
    for seed in range(300):
        rng = np.random.default_rng(5000 + seed)
        target = rng.uniform(0.5, TAU - 0.5)
        l1, l2 = random_convex_link(rng, target), random_convex_link(rng, target)
        m1, m2 = rotate_polygon(l1, random_rotation(rng)), rotate_polygon(l2, random_rotation(rng))
        a = _outcome(position_and_combine, cone_from_link(l1), cone_from_link(l2))
        b = _outcome(position_and_combine, cone_from_link(m1), cone_from_link(m2))
        if isinstance(a, type) or isinstance(b, type):
            assert a is b, seed
            continue
        cos = np.array([centroid_direction(link)[0] for link in (l1, l2, m1, m2)])
        dv = 8.0 * EPS * (1.0 + float(np.max(np.sqrt((1.0 - cos) / (1.0 + cos)))))
        image = transform_link_pair(a.cone1.link, a.cone2.link)
        samples = (image.image1, image.image2)
        h = float(np.min(image.x0_sums))
        d_image = dv * (1.0 + 2.0 * max(float(np.max(np.hypot(*w.T))) for w in samples)) / h
        chords = np.minimum(*(np.hypot(*(roll_next(w) - w).T) for w in samples))
        assert abs(a.margin - b.margin) <= 8.0 * d_image / float(np.min(chords)), seed
        assert a.sigma0 == b.sigma0, seed
        j = int(np.flatnonzero(image.positions == a.sigma0)[0])
        d_psi = 4.0 * d_image / chords[j]
        dc = 2.0 * (2.0 * dv + d_psi) / h
        la, lb = a.combined.link, b.combined.link
        assert la.n_vertices == lb.n_vertices, seed
        assert abs(la.perimeter - lb.perimeter) <= 2 * la.n_vertices * dc, seed
        l_min = float(np.min(la.edge_ends() - la.cum_lengths))
        assert np.max(np.abs(np.sort(la.turning) - np.sort(lb.turning))) <= 4 * dc / l_min, seed
