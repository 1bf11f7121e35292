import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isocomb import combination
from isocomb.combination import (
    align,
    apply_alignment,
    bending_check,
    combine,
    combine_aligned,
    combine_at,
    make_pair,
    merged_breakpoints,
    semitangent_condition,
    uniform_positions,
    vertex_events,
    _dedup_closed,
    _scanned_gap,
    _unwrapped_direction_values,
)
from isocomb.errors import AlignmentNotFound, PerimeterMismatch
from isocomb.geometry import (
    TAU,
    RigidMotion2,
    Vec2,
    alignment_margins,
    apply_motion_many,
    norm_angle,
    roll_next,
)
from isocomb.planar import (
    build_polygon,
    convexity_certificate,
    dilate_to_perimeter,
    points_at,
)
from isocomb.suite import random_convex_polygon, trial_rng
from isocomb.tolerances import BREAKPOINT_MERGE_RTOL, MARGIN_TIE_TOL, VERTEX_ANGLE_TOL

from conftest import (
    assert_same_bits,
    circular_alignment_margins,
    dense_alignment_margins,
    support_polygon,
    turning_function_directions,
)

EPS = np.finfo(float).eps


def rect_0p5_by_1p5(base_s=0.0):
    return build_polygon([(0, 0), (0.5, 0), (0.5, 1.5), (0, 1.5)], base_s=base_s)


def test_make_pair_identical(unit_square):
    pair = make_pair(unit_square, unit_square)
    assert pair.motion.rotation == 0.0


def test_make_pair_square_rectangle(unit_square):
    make_pair(unit_square, rect_0p5_by_1p5())


def test_make_pair_perimeter_mismatch(unit_square):
    big = dilate_to_perimeter(unit_square, 8.0, (0, 0))
    with pytest.raises(PerimeterMismatch):
        make_pair(unit_square, big)


def test_semitangent_condition_identical(unit_square):
    pair = make_pair(unit_square, unit_square)
    assert semitangent_condition(pair) == pytest.approx(math.pi)


def test_semitangent_condition_half_turn(unit_square):
    rotated = build_polygon(
        apply_motion_many(RigidMotion2(math.pi, Vec2(1.0, 1.0)), unit_square.vertices)
    ).with_base(unit_square.base_s)
    pair = make_pair(unit_square, rotated)
    assert semitangent_condition(pair) == pytest.approx(0.0, abs=1e-12)


def test_combine_doubles_square(unit_square):
    pair = make_pair(unit_square, unit_square)
    combined = combine(pair)
    assert np.array_equal(combined.curve, 2.0 * unit_square.vertices)
    assert combined.certificate.is_convex
    assert np.allclose(combined.certificate.interior_angles, math.pi / 2)
    assert np.array_equal(combined.tau_segments, np.zeros_like(combined.curve))


def test_combine_with_itself_doubles_every_vertex():
    # with the base on vertex k the breakpoints are the vertices from k on,
    # each located exactly, so the sum is twice the rolled vertex array
    for i in range(30):
        f = random_convex_polygon(trial_rng(99, i), 3, 60)
        k = i % f.n_vertices
        g = f.with_base(f.cum_lengths[k])
        combined = combine(make_pair(g, g))
        assert np.array_equal(combined.curve, 2.0 * np.roll(f.vertices, -k, axis=0)), i
        assert not combined.tau_segments.any(), i


def test_combine_hypothesis_violated_reports_without_raising(unit_square):
    rotated = build_polygon(
        apply_motion_many(RigidMotion2(math.pi, Vec2(0.0, 0.0)), unit_square.vertices)
    ).with_base(unit_square.base_s)
    pair = make_pair(unit_square, rotated)
    combined = combine(pair)  # must not raise
    assert combined.certificate is not None


def test_vertex_events_identical_squares(unit_square):
    pair = make_pair(unit_square, unit_square)
    events = vertex_events(combine(pair))
    assert len(events.s) == 4
    assert events.case.tolist() == [2, 2, 2, 2]
    assert np.allclose(events.beta1, math.pi / 2)
    assert np.allclose(events.beta2, math.pi / 2)
    assert np.allclose(events.beta, math.pi / 2, rtol=0.0, atol=1e-12)
    # a vertex the merge folds into a row is at that row, also when it lies
    # beyond the snap distance of locate
    for shift in (1e-15, 1e-13, 3e-12):
        events = vertex_events(combine(make_pair(unit_square, unit_square.with_base(4.0 - shift))))
        assert events.case.tolist() == [2, 2, 2, 2], shift
        assert events.law_error() <= 1e-15, shift


def test_vertex_events_counts_each_vertex_at_one_row(unit_square):
    # the square against itself based 5e-12 and 1e-11 before a vertex, past
    # the merge tolerance: eight rows, each at one vertex of one curve, and
    # the curve with no vertex there reads pi
    for d in (5e-12, 1e-11):
        events = vertex_events(combine(make_pair(unit_square, unit_square.with_base(4.0 - d))))
        assert len(events.s) == 8, d
        assert events.case.tolist() == [1] * 8, d
        assert events.beta1[1::2].tolist() == [math.pi] * 4, d
        assert events.beta2[::2].tolist() == [math.pi] * 4, d
        assert np.all(events.beta1[::2] < math.pi) and np.all(events.beta2[1::2] < math.pi), d


def test_vertex_events_refuses_rows_off_the_merged_breakpoints(unit_square):
    pair = make_pair(unit_square, rect_0p5_by_1p5(base_s=0.25))
    for positions in (uniform_positions(pair, 16), merged_breakpoints(pair)[:-1]):
        with pytest.raises(ValueError, match="merged breakpoints"):
            vertex_events(combine_at(pair, positions))


def test_self_pairs_based_at_vertices_and_their_float_neighbours(unit_square):
    # a base point on a vertex, or one float away on either side of it,
    # must not split the vertex into two rows or lose the alignment
    hull = random_convex_polygon(trial_rng(5, 0), 3, 30)
    for poly in (unit_square, hull):
        p = poly.perimeter
        for s in poly.cum_lengths:
            for base in (s, np.nextafter(s if s > 0.0 else p, 0.0), np.nextafter(s, p)):
                result, combined = combine_aligned(make_pair(poly, poly.with_base(float(base))))
                assert result.margin > 0.0, base
                assert combined.certificate.is_convex, base
                assert vertex_events(combined).law_error() <= VERTEX_ANGLE_TOL, base


def test_vertex_events_square_vs_offset_rectangle(unit_square):
    pair = make_pair(unit_square, rect_0p5_by_1p5(base_s=0.25))
    result = align(pair)
    aligned = apply_alignment(pair, result)
    events = vertex_events(combine(aligned))
    one, vertex = events.case == 1, events.case > 0
    assert one.any()
    # exactly one side is a corner; the other angle is pi
    b1, b2 = events.beta1[one], events.beta2[one]
    assert np.all((b1 == math.pi) != (b2 == math.pi))
    assert np.all(np.minimum(b1, b2) < math.pi)
    assert events.law_error() <= 1e-9
    assert np.all(events.beta[vertex] < math.pi)
    assert np.all(events.beta[~vertex] == math.pi)


def test_vertex_events_law_on_random_aligned_pairs():
    worst = 0.0
    for i in range(25):
        rng = trial_rng(1234, i)
        f1 = random_convex_polygon(rng, 3, 30)
        f2 = dilate_to_perimeter(random_convex_polygon(rng, 3, 30), f1.perimeter, (0, 0))
        pair = make_pair(f1, f2)
        _, combined = combine_aligned(pair)
        events = vertex_events(combined)
        worst = max(worst, events.law_error())
        assert np.all(events.beta[events.case > 0] < math.pi)
    assert worst <= 1e-9


def _vertex_events_loop(pair):
    """The per-breakpoint loop that the array version of vertex_events
    replaced, one (s, case, beta1, beta2, beta) row per breakpoint.  Rows
    come from walking the greedy merge over the sorted base point and
    vertex positions: a position more than the merge tolerance past the
    last row starts a row, any other joins it, and a last row within the
    tolerance of the perimeter joins row 0.  A row sits at a vertex of a
    curve when one of that curve's vertices joined it."""
    p = pair.F1.perimeter
    tol = BREAKPOINT_MERGE_RTOL * p
    tagged = [(0.0, None, math.pi)]
    for c, poly in enumerate((pair.F1, pair.F2)):
        interior = math.pi - poly.exterior_angles()
        tagged += [(float(s), c, float(b)) for s, b in zip(poly.vertex_positions(), interior)]
    rows = []   # [s, interior angle of each curve's vertex at the row, or None]
    for s, c, b in sorted(tagged, key=lambda t: t[0]):
        if not rows or s - rows[-1][0] > tol:
            rows.append([s, None, None])
        if c is not None:
            rows[-1][1 + c] = b
    if len(rows) > 1 and p - rows[-1][0] <= tol:
        _, b1, b2 = rows.pop()
        rows[0][1] = rows[0][1] if b1 is None else b1
        rows[0][2] = rows[0][2] if b2 is None else b2

    bps = np.array([row[0] for row in rows])
    curve = points_at(pair.F1, bps) + apply_motion_many(pair.motion, points_at(pair.F2, bps))
    chords = np.roll(curve, -1, axis=0) - curve
    dirs = np.arctan2(chords[:, 1], chords[:, 0])
    out = []
    for k, (s, b1, b2) in enumerate(rows):
        if b1 is None and b2 is None:
            out.append((s, 0, math.pi, math.pi, math.pi))
            continue
        beta = math.pi - norm_angle(float(dirs[k] - dirs[(k - 1) % len(bps)]))
        out.append((
            s, (b1 is not None) + (b2 is not None),
            math.pi if b1 is None else b1, math.pi if b2 is None else b2, beta,
        ))
    return out


def _assert_events_equal_loop(events, rows):
    cols = list(zip(*rows))
    assert events.case.tolist() == list(cols[1])
    for name, col in zip(("s", "beta1", "beta2", "beta"), cols[:1] + cols[2:]):
        assert_same_bits(getattr(events, name), np.array(col), name)


def test_vertex_events_equal_loop_oracle(unit_square):
    # hulls of 3..200 points, aligned (base on a vertex) and as drawn (base anywhere)
    pairs = [make_pair(unit_square, rect_0p5_by_1p5(base_s=b)) for b in (0.0, 0.25, 0.5, 1.9)]
    # the square against itself based just before or after a vertex: one row
    # per vertex pair (d < 4e-12, wrapping to row 0 when after) or two
    pairs += [make_pair(unit_square, unit_square.with_base(base))
              for d in (1e-15, 1e-13, 3e-12, 5e-12, 1e-11) for base in (4.0 - d, d)]
    for k in range(3, 201, 3):
        rng = trial_rng(4321, k)
        f1 = random_convex_polygon(rng, k, k)
        f2 = dilate_to_perimeter(random_convex_polygon(rng, k, k), f1.perimeter, (0, 0))
        pair = make_pair(f1, f2)
        pairs += [pair, apply_alignment(pair, align(pair))]
    for pair in pairs:
        _assert_events_equal_loop(vertex_events(combine(pair)), _vertex_events_loop(pair))


def test_vertex_events_equal_loop_oracle_on_dense_pairs():
    for n, base_frac in ((1000, 0.37), (2000, 0.81)):
        f1 = support_polygon(n, 1.0, {2: (0.1, 0.05), 3: (0.02, 0.0)})
        f2 = support_polygon(n + 7, 1.0, {3: (0.05, 0.03), 5: (0.01, 0.0)}, base_frac=base_frac)
        pair = make_pair(f1, dilate_to_perimeter(f2, f1.perimeter, (0.0, 0.0)))
        for p in (pair, apply_alignment(pair, align(pair))):
            _assert_events_equal_loop(vertex_events(combine(p)), _vertex_events_loop(p))


def test_positive_margin_implies_convex_combination():
    # small hulls are where a gap measured modulo 2*pi used to hide a swing through pi
    for i in range(600):
        rng = trial_rng(2025, i)
        k = 3 + i % 6
        f1 = random_convex_polygon(rng, 3, k)
        f2 = dilate_to_perimeter(random_convex_polygon(rng, 3, k), f1.perimeter, (0, 0))
        pair = make_pair(f1, f2)
        try:
            result, combined = combine_aligned(pair)
        except AlignmentNotFound:
            continue
        cert = combined.certificate
        assert result.margin > 0 and cert.is_convex, i
        assert abs(cert.exterior_sum - TAU) <= 1e-8, i
        assert vertex_events(combined).law_error() <= 1e-9, i


# trial 96 of the triangle suite (seed 7000003, 3 points) as drawn when
# Qhull chose each hull's start vertex: (vertices, base_s) of F1 and of F2,
# F2 already dilated to F1's perimeter
TRIAL_96_TRIANGLES = [
    (
        [["0x1.fa626f65de775p-4", "0x1.66ea15d18b2eap-1"],
         ["-0x1.0dbac7b8ce514p-1", "0x1.ecedf92d8d8a5p-2"],
         ["-0x1.02c8bc0911389p-1", "-0x1.02ed8a28158d7p-4"]],
        "0x1.121e593b87defp+1",
    ),
    (
        [["-0x1.08d1aa4ce3cd1p-2", "0x1.2efb7342ae622p-3"],
         ["0x1.5ce3d0222211ep-3", "-0x1.0bbb17f2bb381p-1"],
         ["-0x1.2a6b25dca3a68p-3", "0x1.f7ccdd1f476c8p-2"]],
        "0x1.7ec3cab245143p-1",
    ),
]


def test_semitangent_condition_rejects_gap_swinging_through_pi(monkeypatch):
    # the gap measured modulo 2*pi chose an alignment whose combination is
    # not convex
    f1, f2 = (
        build_polygon([[float.fromhex(c) for c in v] for v in verts], base_s=float.fromhex(base))
        for verts, base in TRIAL_96_TRIANGLES
    )
    pair = make_pair(f1, f2)
    monkeypatch.setattr(combination, "alignment_margins", circular_alignment_margins)
    wrapped = apply_alignment(pair, align(pair))
    assert not combine(wrapped).certificate.is_convex
    assert semitangent_condition(wrapped) <= 0.0


def test_align_identical_squares(unit_square):
    pair = make_pair(unit_square, unit_square)
    result = align(pair)
    assert result.sigma0 == 0.0
    assert result.margin == pytest.approx(math.pi)
    assert result.motion.rotation == pytest.approx(0.0)
    assert result.motion.translation == pytest.approx((0.0, 0.0))


def test_align_recovers_constructed_misalignment(unit_square):
    motion = RigidMotion2(2.2, Vec2(0.7, -1.3))
    f2 = build_polygon(apply_motion_many(motion, unit_square.vertices)).with_base(
        (unit_square.base_s + 1.25) % unit_square.perimeter
    )
    pair = make_pair(unit_square, f2)
    result = align(pair)
    aligned = apply_alignment(pair, result)
    assert result.margin > 0
    assert semitangent_condition(aligned) == pytest.approx(result.margin, abs=1e-12)


def test_align_margin_matches_posthoc_condition():
    for i in range(10):
        rng = trial_rng(555, i)
        f1 = random_convex_polygon(rng, 3, 25)
        f2 = dilate_to_perimeter(random_convex_polygon(rng, 3, 25), f1.perimeter, (0, 0))
        pair = make_pair(f1, f2)
        result = align(pair)
        aligned = apply_alignment(pair, result)
        assert semitangent_condition(aligned) == pytest.approx(result.margin, abs=1e-12)


def test_align_matches_dense_oracle_on_acceptance_seed(monkeypatch):
    # the planar acceptance suite's first trials, aligned with the O(m)
    # kernel and again with the m x m gap matrix of real differences
    pairs = []
    for i in range(60):
        rng = trial_rng(42, i)
        f1 = random_convex_polygon(rng, 3, 200)
        f2 = dilate_to_perimeter(random_convex_polygon(rng, 3, 200), f1.perimeter, (0.0, 0.0))
        pairs.append(make_pair(f1, f2))
    fast = [align(pair) for pair in pairs]
    monkeypatch.setattr(combination, "alignment_margins", dense_alignment_margins)
    for pair, a in zip(pairs, fast):
        b = align(pair)
        assert (a.sigma0, a.margin, a.motion) == (b.sigma0, b.margin, b.motion)


def test_combine_aligned_dense_pair_is_near_linear():
    # 4000-vertex support-function pairs: the dense gap matrix needed ~3 GB
    f1 = support_polygon(4000, 1.0, {2: (0.1, 0.05), 3: (0.02, 0.0)})
    f2 = support_polygon(4000, 1.0, {3: (0.05, 0.03), 5: (0.01, 0.0)}, base_frac=0.37)
    pair = make_pair(f1, dilate_to_perimeter(f2, f1.perimeter, (0.0, 0.0)))
    tracemalloc.start()
    try:
        _, combined = combine_aligned(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert combined.certificate.is_convex
    assert peak < 50e6
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        combine_aligned(pair)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.1


def test_align_invariant_under_premotions():
    for i in range(20):
        rng = trial_rng(777, i)
        f1 = random_convex_polygon(rng, 3, 30)
        f2 = dilate_to_perimeter(random_convex_polygon(rng, 3, 30), f1.perimeter, (0, 0))
        m = RigidMotion2(rng.uniform(-3, 3), Vec2(*rng.uniform(-1, 1, size=2)))
        f2_moved = build_polygon(apply_motion_many(m, f2.vertices)).with_base(f2.base_s)
        r1, c1 = combine_aligned(make_pair(f1, f2))
        r2, c2 = combine_aligned(make_pair(f1, f2_moved))
        assert abs(r1.margin - r2.margin) <= 1e-12
        assert c1.certificate.is_convex and c2.certificate.is_convex
        a = _dedup_closed(c1.curve)
        b = _dedup_closed(c2.curve)
        assert len(a) == len(b)
        assert np.max(np.abs(a - b)) <= 1e-9


def test_align_invariant_under_common_base_shift_and_scaling():
    # a tie between equal margins goes to the smallest sigma0, which is
    # measured from the base, so a common base shift may pick another point
    # of a tied plateau: the shifted pair compares the margin and the
    # certificate's verdict and turning sum, not the curve.  Margins are
    # angles, so a scaled pair ties alike: it also compares sigma0 / lam and
    # the curve scaled back.
    for i in range(20):
        rng = trial_rng(2718, i)
        f1 = random_convex_polygon(rng, 3, 60)
        f2 = dilate_to_perimeter(random_convex_polygon(rng, 3, 60), f1.perimeter, (0, 0))
        r0, c0 = combine_aligned(make_pair(f1, f2))
        t = rng.uniform(0.0, f1.perimeter)
        pairs = [(None, make_pair(f1.with_base(f1.base_s + t), f2.with_base(f2.base_s + t)))]
        for lam in (1e-8, 1e8):
            pairs.append((lam, make_pair(
                build_polygon(lam * f1.vertices, base_s=lam * f1.base_s),
                build_polygon(lam * f2.vertices, base_s=lam * f2.base_s),
            )))
        for lam, pair in pairs:
            r, c = combine_aligned(pair)
            assert abs(r.margin - r0.margin) <= 1e-12, i
            assert c.certificate.is_convex and c0.certificate.is_convex, i
            assert abs(c.certificate.exterior_sum - c0.certificate.exterior_sum) <= 1e-12, i
            if lam is not None:
                assert abs(r.sigma0 / lam - r0.sigma0) <= 1e-12 * f1.perimeter, i
                a, b = _dedup_closed(c.curve / lam), _dedup_closed(c0.curve)
                assert len(a) == len(b), i
                assert np.max(np.abs(a - b)) <= 1e-9, i


# -- the alignment under the plane's similarities (derandomized properties) -----
# Each pair is two trial polygons of 3-60 hull points, the second dilated to
# the first's perimeter.  A transformation may not flip the verdict; the
# margins agree within a bound of eps times a stated conditioning, and
# sigma0 agrees, after the transformation, within another, unless a near-tie
# picked another candidate, whose margin must then tie.

PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)
indices = st.integers(0, 2**32 - 1)
point_counts = st.integers(3, 60)


def _trial_pair(index, max_points):
    rng = trial_rng(99, index)
    f1 = random_convex_polygon(rng, 3, max_points)
    return f1, dilate_to_perimeter(random_convex_polygon(rng, 3, max_points), f1.perimeter, (0, 0))


def _alignment(f1, f2):
    try:
        return align(make_pair(f1, f2))
    except AlignmentNotFound:
        return None


def _shortest_edge(*polys):
    return min(float(np.min(p.edge_ends() - p.cum_lengths)) for p in polys)


def _assert_same_alignment(pair, a, b, back, margin_bound, sigma0_bound):
    """``a`` aligns ``pair`` and ``b`` its transform; ``back`` maps an arc
    position of the transform to ``pair``'s."""
    assert (a is None) == (b is None)
    if a is None:
        return
    assert abs(a.margin - b.margin) <= margin_bound, (a.margin, b.margin)
    p = pair.F1.perimeter
    sigma0_b = back(b.sigma0)
    apart = (sigma0_b - a.sigma0) % p
    if min(apart, p - apart) <= sigma0_bound:
        return
    # g is constant between merged breakpoints, so the candidate at sigma0_b
    # has the margin of the last breakpoint at or before it
    bps, g_scan = _scanned_gap(pair)
    margins = alignment_margins(g_scan, g_scan[: len(bps)])
    j = np.searchsorted(bps, (sigma0_b + sigma0_bound) % p, side="right") - 1
    assert margins[j] >= a.margin - MARGIN_TIE_TOL - 2 * margin_bound


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(index=indices, max_points=point_counts)
def test_align_invariant_under_swapping_the_curves(index, max_points):
    # swapping F1 and F2 negates every tangent gap g, so the verdict, each
    # margin and the chosen sigma0 stay, and the combination is the old one
    # moved by the inverse motion.  The margins are the same differences of
    # angles below 4*pi, so they agree to a few roundings of such an angle,
    # 4*pi*eps.  Each combined point is a point of one curve plus a moved
    # point of the other, off by at most 4*eps*R per coordinate for R the
    # largest coordinate; a chord of length l then turns by 8*eps*R/l, and
    # an interior angle between two chords by 16*eps*R/l_min.
    f1, f2 = _trial_pair(index, max_points)
    outcomes = []
    for pair in (make_pair(f1, f2), make_pair(f2, f1)):
        try:
            outcomes.append(combine_aligned(pair))
        except AlignmentNotFound:
            outcomes.append(None)
    a, b = outcomes
    assert (a is None) == (b is None)
    if a is None:
        return
    (ra, ca), (rb, cb) = a, b
    assert abs(ra.margin - rb.margin) <= 4 * math.pi * EPS
    if ra.sigma0 != rb.sigma0:
        # a near-tie may pick another tied candidate: its margin must tie
        bps, g_scan = _scanned_gap(make_pair(f1, f2))
        margins = alignment_margins(g_scan, g_scan[: len(bps)])
        assert margins[np.searchsorted(bps, rb.sigma0)] >= ra.margin - MARGIN_TIE_TOL
    scale = max(np.max(np.abs(ca.curve)), np.max(np.abs(cb.curve)))
    chords = [roll_next(q) - q for q in (_dedup_closed(ca.curve), _dedup_closed(cb.curve))]
    shortest = min(np.min(np.hypot(d[:, 0], d[:, 1])) for d in chords)
    ia, ib = np.sort(ca.certificate.interior_angles), np.sort(cb.certificate.interior_angles)
    assert len(ia) == len(ib)
    assert np.max(np.abs(ia - ib)) <= 16 * EPS * scale / shortest


@PROPERTY_SETTINGS
@given(index=indices, max_points=point_counts, theta=st.floats(0.0, TAU),
       shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
def test_align_invariant_under_a_rigid_motion_of_the_second_curve(index, max_points, theta, shift):
    # Each moved coordinate c x - s y + t rounds by at most 4 eps R, for R the
    # largest coordinate of F2 before or after the motion, so an edge vector
    # moves by 8 eps R per coordinate and its direction by 12 eps R / l, l
    # the shortest edge.  An unwrapped direction is the base edge's plus a
    # running sum of exterior angles, which telescopes: it moves by two
    # directions and the n roundings (pi eps each) of both running sums.  A
    # margin reads two gaps, each with one direction of F2 (F1 keeps its
    # bits): 48 eps R / l + 8 pi n eps.  A vertex position sums n edge
    # lengths, each off by 12 eps R + eps l, with one rounding per sum of
    # at most eps p: sigma0 moves by n eps (12 R + 2 p).  Over 1,000 pairs
    # the worst moves were 0.03 and 0.04 of these bounds.
    f1, f2 = _trial_pair(index, max_points)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = build_polygon(f2.vertices @ rot.T + np.array(shift), base_s=f2.base_s)
    big = max(float(np.max(np.abs(f2.vertices))), float(np.max(np.abs(moved.vertices))), *map(abs, shift))
    n = f2.n_vertices
    margin_bound = EPS * (48 * big / _shortest_edge(f2, moved) + 8 * math.pi * n)
    b = _alignment(f1, moved)
    sigma0_bound = n * EPS * (12 * big + 2 * f1.perimeter)
    a = _alignment(f1, f2)
    _assert_same_alignment(make_pair(f1, f2), a, b, lambda s: s, margin_bound, sigma0_bound)


@PROPERTY_SETTINGS
@given(index=indices, max_points=point_counts, share=st.floats(0.0, 1.0))
def test_align_invariant_under_a_common_base_shift(index, max_points, share):
    # Both curves keep their bits: only the running sums of exterior angles
    # start at another base edge, and the base positions round modulo p.  An
    # unwrapped direction moves by the n roundings (pi eps each) of both
    # sums and by its base edge's reduction; a margin reads four of them:
    # 8 pi (n + 1) eps.  A vertex position cum - base moves by the two bases'
    # reductions, 8 eps p.  Over 1,000 pairs the worst moves were 0.04 and
    # 0.3 of these bounds, and 180 picked another point of a tied plateau.
    f1, f2 = _trial_pair(index, max_points)
    p = f1.perimeter
    delta = share * p
    a = _alignment(f1, f2)
    b = _alignment(f1.with_base(f1.base_s + delta), f2.with_base(f2.base_s + delta))
    margin_bound = 8 * math.pi * (f1.n_vertices + f2.n_vertices + 1) * EPS
    _assert_same_alignment(make_pair(f1, f2), a, b, lambda s: s + delta, margin_bound, 8 * EPS * p)


@PROPERTY_SETTINGS
@given(index=indices, max_points=point_counts, exponent=st.floats(-3.0, 3.0))
def test_align_invariant_under_a_uniform_scaling(index, max_points, exponent):
    # lam v rounds each coordinate by eps lam R, R the largest coordinate, so
    # an edge vector moves by 2 eps lam R per coordinate and its direction by
    # 3 eps R / l, l the shortest edge, whatever lam: a margin reads four
    # unwrapped directions, each moved by two directions and the n roundings
    # of both running sums, 24 eps R / l + 8 pi n eps.  A vertex position
    # sums edge lengths off by eps lam (3 R + l), with one rounding per sum,
    # and sigma0, the base and the way back are scaled once more: sigma0
    # moves by n eps (3 R + 2 p) + 3 eps p.  Over 1,000 pairs the worst moves
    # were 0.03 and 0.07 of these bounds.
    f1, f2 = _trial_pair(index, max_points)
    lam = 10.0 ** exponent
    a = _alignment(f1, f2)
    b = _alignment(*(build_polygon(lam * f.vertices, base_s=lam * f.base_s) for f in (f1, f2)))
    big = max(float(np.max(np.abs(f.vertices))) for f in (f1, f2))
    n = f1.n_vertices + f2.n_vertices
    p = f1.perimeter
    margin_bound = EPS * (24 * big / _shortest_edge(f1, f2) + 8 * math.pi * n)
    sigma0_bound = EPS * (n * (3 * big + 2 * p) + 3 * p)
    _assert_same_alignment(make_pair(f1, f2), a, b, lambda s: s / lam, margin_bound, sigma0_bound)


def test_g_periodicity():
    # past the last vertex the unwrapped direction has turned once round
    for i in range(10):
        rng = trial_rng(404, i)
        poly = random_convex_polygon(rng, 3, 50)
        end = 0.5 * (poly.vertex_positions().max() + poly.perimeter)
        first, last = _unwrapped_direction_values(poly, np.array([0.0, end]), 0.0)
        assert last - first == pytest.approx(TAU, abs=1e-9)


def test_combine_aligned_square_rectangle(unit_square):
    pair = make_pair(unit_square, rect_0p5_by_1p5(base_s=0.7))
    result, combined = combine_aligned(pair)
    assert result.margin > 0
    assert combined.certificate.is_convex
    assert combined.certificate.exterior_sum == pytest.approx(TAU, abs=1e-8)


def test_combine_aligned_random_suite():
    for i in range(100):
        rng = trial_rng(31415, i)
        f1 = random_convex_polygon(rng, 3, 60)
        f2 = dilate_to_perimeter(random_convex_polygon(rng, 3, 60), f1.perimeter, (0, 0))
        result, combined = combine_aligned(make_pair(f1, f2))
        cert = combined.certificate
        assert result.margin > 0
        assert cert.is_convex
        assert cert.min_exterior >= -1e-9
        assert abs(cert.exterior_sum - TAU) <= 1e-8


def test_exterior_sum_of_merged_breakpoint_count(unit_square):
    pair = make_pair(unit_square, rect_0p5_by_1p5(base_s=0.2))
    bps = merged_breakpoints(pair)
    assert bps[0] == 0.0
    # 4 + 4 vertices + base; the square's base sits at its own vertex
    assert len(bps) == 8
    assert np.all(np.diff(bps) > 0)


def test_bending_zero_for_identical(unit_square):
    pair = make_pair(unit_square, unit_square)
    combined = combine(pair)
    assert bending_check(combined) == 0.0


def test_bending_near_zero_for_congruent_pairs():
    for i in range(10):
        rng = trial_rng(808, i)
        f1 = random_convex_polygon(rng, 4, 20)
        m = RigidMotion2(rng.uniform(-3, 3), Vec2(*rng.uniform(-1, 1, size=2)))
        f2 = build_polygon(apply_motion_many(m, f1.vertices)).with_base(f1.base_s)
        _, combined = combine_aligned(make_pair(f1, f2))
        assert bending_check(combined) <= 1e-12


def test_bending_near_zero_on_merged_breakpoints(unit_square):
    # between merged breakpoints both curves are straight, so corresponding
    # chords are exactly equal and the residual is rounding-level
    pair = make_pair(unit_square, rect_0p5_by_1p5(base_s=0.35))
    _, combined = combine_aligned(pair)
    assert bending_check(combined) <= 1e-9


def test_bending_refinement_decreases_for_smooth_pair():
    f1 = support_polygon(1024, 1.0, {2: (0.05, 0.0), 3: (0.0, 0.03)})
    f2 = support_polygon(1024, 1.0, {2: (-0.03, 0.02), 5: (0.004, 0.0)}, base_frac=0.21)
    f2 = dilate_to_perimeter(f2, f1.perimeter, (0, 0))
    pair = make_pair(f1, f2)
    result = align(pair)
    aligned = apply_alignment(pair, result)
    residuals = [
        bending_check(combine_at(aligned, uniform_positions(aligned, n)))
        for n in (32, 64, 128, 256)
    ]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_combine_matches_bruteforce_summation_oracle(unit_square):
    # oracle: scalar point-by-point summation at the breakpoints, plus an
    # independent convexity recheck on a dense uniform sampling of the sum
    from isocomb.geometry import apply_motion
    from isocomb.planar import convexity_certificate, point_at

    pair = make_pair(unit_square, rect_0p5_by_1p5(base_s=0.7))
    result, combined = combine_aligned(pair)
    aligned = apply_alignment(pair, result)
    expected = np.array(
        [
            np.add(
                point_at(aligned.F1, s),
                apply_motion(aligned.motion, point_at(aligned.F2, s)),
            )
            for s in combined.breakpoints
        ]
    )
    assert np.allclose(combined.curve, expected, atol=1e-14)
    dense = combine_at(aligned, uniform_positions(aligned, 4096))
    cert = convexity_certificate(_dedup_closed(dense.curve))
    assert cert.is_convex


def test_combined_curve_breakpoints_match_curve_rows(unit_square):
    pair = make_pair(unit_square, rect_0p5_by_1p5(base_s=0.1))
    combined = combine(pair)
    assert len(combined.curve) == len(combined.breakpoints)
    assert len(combined.tau_segments) == len(combined.breakpoints)


def test_array_holding_results_compare_by_identity_and_hash():
    # dataclasses over numpy fields compare by identity: a field-wise ==
    # would ask numpy arrays for a truth value and raise
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    a, b = build_polygon(square), build_polygon(square)
    objects = [
        (a, b),
        (vertex_events(combine(make_pair(a, a))), vertex_events(combine(make_pair(b, b)))),
        (convexity_certificate(a.vertices), convexity_certificate(b.vertices)),
        (align(make_pair(a, a)), align(make_pair(b, b))),
    ]
    for x, y in objects:
        assert x == x and not (x == y) and x != y
        assert hash(x) == hash(x)
        assert x in {x} and y not in {x}


def _scan_pairs():
    """Pairs for the gap oracle: hulls of 3..200 points as drawn and
    aligned, and dense support-function pairs of 1,000 and 2,000 vertices."""
    pairs = []
    for i in range(150):
        rng = trial_rng(606, i)
        k = 3 + (i * 197) // 149
        f1 = random_convex_polygon(rng, 3, k)
        f2 = dilate_to_perimeter(random_convex_polygon(rng, 3, k), f1.perimeter, (0, 0))
        pair = make_pair(f1, f2)
        pairs += [pair, apply_alignment(pair, align(pair))]
    for n, base_frac in ((1000, 0.37), (2000, 0.81)):
        f1 = support_polygon(n, 1.0, {2: (0.1, 0.05), 3: (0.02, 0.0)})
        f2 = support_polygon(n, 1.0, {3: (0.05, 0.03), 5: (0.01, 0.0)}, base_frac=base_frac)
        pair = make_pair(f1, dilate_to_perimeter(f2, f1.perimeter, (0.0, 0.0)))
        pairs += [pair, apply_alignment(pair, align(pair))]
    return pairs


def test_gap_equals_turning_function_oracle_on_scan_positions():
    pairs = _scan_pairs()
    assert len(pairs) >= 300
    for pair in pairs:
        bps, g_scan = _scanned_gap(pair)
        ends = np.concatenate([bps[1:], [pair.F1.perimeter]])
        scan = np.concatenate([bps, 0.5 * (bps + ends)])
        want = turning_function_directions(pair.F1, scan, 0.0) - turning_function_directions(
            pair.F2, scan, pair.motion.rotation
        )
        assert_same_bits(g_scan, want)


def test_gap_follows_locate_in_the_snap_window_before_a_vertex(unit_square):
    # a position a rounding error before a vertex is that vertex, on its
    # outgoing edge, for the gap as for every other arc query; the former
    # turning function counted the vertex's turn only from its position on
    s = np.array([0.0, np.nextafter(1.0, 0.0)])
    (_, edge), (_, u) = unit_square.locate(s)
    assert (edge, u) == (1, 0.0)
    got = _unwrapped_direction_values(unit_square, s, 0.0)
    assert got[1] == pytest.approx(math.pi / 2)
    assert got[1] == norm_angle(float(unit_square.edge_dirs[edge]))
    assert turning_function_directions(unit_square, s, 0.0)[1] == 0.0
