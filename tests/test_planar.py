import math

import numpy as np
import pytest

from isocomb.combination import _row_directions
from isocomb.errors import (
    DegenerateEdge,
    NotConvex,
    NotSimple,
    WrongOrientation,
)
from isocomb.geometry import merged_vertex_positions, norm_angle, turns
from isocomb.planar import (
    MAX_COORDINATE,
    PlanarPolygon,
    _edge_angles,
    build_polygon,
    convexity_certificate,
    dilate_to_perimeter,
    point_at,
    points_at,
)
from isocomb.tolerances import COLLINEAR_EPS

from conftest import former_exterior_angles

TAU = 2 * math.pi


def right_semitangent(poly, s):
    """Direction of the edge ``locate`` puts ``s`` on: the outgoing one at a vertex."""
    (i,), _ = poly.locate([s])
    return norm_angle(float(poly.edge_dirs[i]))


def left_semitangent(poly, s):
    """Direction of the incoming edge at a vertex, else of the located edge."""
    (i,), (u,) = poly.locate([s])
    return norm_angle(float(poly.edge_dirs[i - (u == 0.0)]))


def turning(poly):
    """The vertex positions merged with the base point, and the cumulative
    turning over the piece from each: the unwrapped direction of the
    alignment gap, less its value over the first piece."""
    bps, rows, _ = merged_vertex_positions(poly, poly)
    d = _row_directions(poly, bps, rows, 0.0)
    return bps, d - d[0]


def test_build_unit_square(unit_square):
    assert unit_square.perimeter == 4.0
    assert np.allclose(unit_square.exterior_angles, math.pi / 2)
    assert unit_square.n_vertices == 4


def test_planar_polygon_requires_its_edge_directions(unit_square):
    # every curve query reads edge_dirs, so a polygon cannot be made without it
    sq = unit_square
    with pytest.raises(TypeError, match="edge_dirs"):
        PlanarPolygon(vertices=sq.vertices, cum_lengths=sq.cum_lengths, perimeter=sq.perimeter, base_s=0.0)


def test_build_rejects_clockwise():
    with pytest.raises(WrongOrientation):
        build_polygon([(0, 0), (0, 1), (1, 1), (1, 0)])


def test_build_rejects_reflex():
    with pytest.raises(NotConvex):
        build_polygon([(0, 0), (2, 0), (1, 0.4), (0, 1)])


def test_build_rejects_duplicate_vertex():
    with pytest.raises(DegenerateEdge):
        build_polygon([(0, 0), (1, 0), (1, 0), (0, 1)])


def test_build_rejects_double_winding():
    # pentagram order: locally convex but winds twice
    t = np.arange(5) * (4 * math.pi / 5)
    with pytest.raises(NotSimple):
        build_polygon(np.column_stack([np.cos(t), np.sin(t)]))


def test_build_requires_three_vertices():
    with pytest.raises(ValueError):
        build_polygon([(0, 0), (1, 0)])


def test_collinear_vertices_merged():
    poly = build_polygon([(0, 0), (0.5, 0.0), (1, 0), (1, 1), (0, 1)])
    assert poly.n_vertices == 4
    assert poly.perimeter == pytest.approx(4.0)


def test_collinear_merge_rule_at_the_float_neighbours_of_the_tolerance():
    # the bottom edge's middle vertex sits h below the chord (a corner, turn
    # 2h exactly) or above it (a reflex turn 2h < 0, exact too: geometry.turns
    # keeps a difference of directions in (-pi, 0) as it is), h stepping by
    # the spacing of 2*pi; the rule reads the builder's own computed turn
    eps, step = COLLINEAR_EPS, np.spacing(TAU)
    hs = [np.nextafter(eps, 0.0) / 2, eps / 2, np.nextafter(eps, 1.0) / 2]
    hs += [-(eps + k * step) / 2 for k in (-2, -1, 0, 1, 2)]
    seen = []
    for h in hs:
        verts = np.array([(0.0, 0.0), (1.0, -h), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)])
        turn = turns(_edge_angles(verts)[1])[1]
        seen.append(turn)
        if turn < -eps:
            with pytest.raises(NotConvex):
                build_polygon(verts)
        else:
            assert build_polygon(verts).n_vertices == (5 if turn > eps else 4), turn
    assert {np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0)} <= set(seen)
    assert any(-eps - step <= t < -eps for t in seen)
    assert any(-eps <= t < -eps + step for t in seen)


def test_collinear_merge_shifts_base_consistently():
    # first input vertex is collinear and merged away; the marked point at
    # arc 0.25 from it must stay at the same geometric location
    poly = build_polygon([(0.5, 0.0), (1, 0), (1, 1), (0, 1), (0, 0)], base_s=0.25)
    p = point_at(poly, 0.0)
    assert p == pytest.approx((0.75, 0.0))


def test_stored_exterior_angles_are_the_turns_of_the_edge_directions():
    # the builder keeps the turns of its last merge pass
    rng = np.random.default_rng(63)
    hexagon = [(math.cos(t), math.sin(t)) for t in np.arange(6) * (TAU / 6)]
    polys = [
        build_polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0.5, 1), (0, 1)]),    # collinear merges
        build_polygon(hexagon, base_s=0.3),
        build_polygon(np.array(hexagon) + rng.normal(scale=1e-3, size=(6, 2))),
    ]
    assert polys[0].n_vertices == 4
    for poly in polys:
        for q in (poly, poly.with_base(1.7), dilate_to_perimeter(poly, 3.7, (0.3, -0.2))):
            assert len(q.exterior_angles) == q.n_vertices
            assert q.exterior_angles.tobytes() == turns(q.edge_dirs).tobytes()


def test_turns_equal_the_former_mod_reduction_but_below_zero():
    # The former reduction took np.mod(d, 2*pi) of each raw difference d of
    # edge directions and subtracted 2*pi above pi.  For d in (-pi, 0) that
    # is d + 2*pi - 2*pi: the add rounds by half a spacing of 2*pi at most
    # and the subtraction is exact (Sterbenz), where geometry.turns keeps d
    # as it is.  Elsewhere both take the same one step (d, d - 2*pi or
    # d + 2*pi, each exact or rounded alike), so the bits agree, except that
    # a zero turn from d = -0.0 or -2*pi keeps fmod's -0.0 where np.mod gave
    # +0.0.
    rng = np.random.default_rng(64)
    chains = [rng.uniform(-math.pi, math.pi, size=4000)]
    chains += [np.arctan2(*rng.normal(size=(2, int(rng.integers(3, 40))))) for _ in range(200)]
    chains += [rng.choice([-math.pi, -0.5 * math.pi, -0.0, 0.0, 0.5 * math.pi, math.pi], size=30)
               for _ in range(200)]
    chains += [build_polygon(verts).edge_dirs for verts in (
        [(math.cos(t), math.sin(t)) for t in np.sort(rng.uniform(0.0, TAU, 500))],
        [(0, 0), (1, 0), (1, 1), (0, 1)],
    )]
    inside = moved = 0
    for dirs in chains:
        raw = dirs - np.roll(dirs, 1)
        small = (raw > -math.pi) & (raw < 0.0)
        got, want = turns(dirs), former_exterior_angles(dirs)
        assert np.all(np.abs(got[small] - want[small]) <= np.spacing(TAU))
        assert np.array_equal(got[~small], want[~small])
        nonzero = ~small & (raw != 0.0) & (np.abs(raw) != TAU)
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
        inside += int(small.sum())
        moved += int(np.sum(got[small] != want[small]))
    assert inside > 1000 and moved > 100


def test_point_at_examples(unit_square):
    assert point_at(unit_square, 0.0) == (0.0, 0.0)
    assert point_at(unit_square, 1.5) == pytest.approx((1.0, 0.5))
    assert point_at(unit_square, 4.0) == (0.0, 0.0)
    assert point_at(unit_square, -1.0) == pytest.approx((0.0, 1.0))


def test_point_at_periodicity_exact(unit_square):
    for s in np.arange(0.0, 4.0, 1 / 64):
        assert point_at(unit_square, s) == point_at(unit_square, s + 4.0)


def test_points_at_matches_scalar(unit_square):
    ss = np.linspace(-3.0, 9.0, 57)
    bulk = points_at(unit_square, ss)
    single = np.array([point_at(unit_square, s) for s in ss])
    assert np.allclose(bulk, single, atol=1e-14)


def test_right_semitangent_examples(unit_square):
    assert right_semitangent(unit_square, 0.0) == 0.0
    assert right_semitangent(unit_square, 1.0) == pytest.approx(math.pi / 2)
    assert right_semitangent(unit_square, 0.5) == 0.0


def test_left_semitangent_examples(unit_square):
    assert left_semitangent(unit_square, 1.0) == 0.0
    assert left_semitangent(unit_square, 0.5) == 0.0
    assert left_semitangent(unit_square, 0.0) == pytest.approx(-math.pi / 2)


def test_semitangents_agree_on_edge_interiors(unit_square):
    for s in (0.25, 1.75, 2.5, 3.9):
        assert right_semitangent(unit_square, s) == left_semitangent(unit_square, s)


def test_turning_function_mid_edge_base():
    sq = build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)], base_s=0.5)
    # 0 over the piece before the first vertex at 0.5, one jump at each, and
    # the last piece, back on the base edge, has turned once round
    bps, got = turning(sq)
    q = math.pi / 2
    assert bps.tolist() == [0.0, 0.5, 1.5, 2.5, 3.5]
    assert np.allclose(got, [0.0, q, 2 * q, 3 * q, TAU], rtol=0.0, atol=1e-12)


def test_turning_function_vertex_base(unit_square):
    # the vertex at the base is row 0, whose piece starts past it: its jump
    # closes the round only at the period end
    bps, got = turning(unit_square)
    q = math.pi / 2
    assert bps.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert np.allclose(got, [0.0, q, 2 * q, 3 * q], rtol=0.0, atol=1e-12)
    assert got[-1] + unit_square.exterior_angles[0] == pytest.approx(TAU, abs=1e-12)


@pytest.mark.parametrize("base", [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
def test_turning_function_agrees_with_snapped_semitangent(unit_square, base):
    # a base a rounding error either side of a vertex is that vertex: the
    # merge folds it into row 0, whose piece runs along the outgoing edge,
    # so that vertex's turn must not be counted a second time
    sq = unit_square.with_base(base)
    bps, got = turning(sq)
    assert len(bps) == 4 and bps[0] == 0.0
    # no turn over the first edge, a quarter turn at each later vertex, and
    # the snapped vertex's turn, the last quarter, only at the period end
    assert got[0] == 0.0 and got[1:] == pytest.approx([math.pi / 2, math.pi, 3 * math.pi / 2])
    assert right_semitangent(sq, 0.0) == pytest.approx(math.pi / 2)
    assert _row_directions(sq, *merged_vertex_positions(sq, sq)[:2], 0.0)[0] == right_semitangent(sq, 0.0)


def test_turning_function_hexagon():
    t = np.arange(6) * (TAU / 6)
    hexagon = build_polygon(np.column_stack([np.cos(t), np.sin(t)]), base_s=0.1)
    bps, got = turning(hexagon)
    assert len(bps) == 7
    assert np.allclose(np.diff(got), math.pi / 3)


def test_build_rejects_coordinates_beyond_the_bound():
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    assert build_polygon(MAX_COORDINATE * square).perimeter == pytest.approx(4 * MAX_COORDINATE)
    with pytest.raises(ValueError, match="MAX_COORDINATE"):
        build_polygon(np.nextafter(MAX_COORDINATE, math.inf) * square)


def test_certificate_square(unit_square):
    cert = convexity_certificate(unit_square.vertices)
    assert cert.is_convex
    assert cert.exterior_sum == pytest.approx(TAU)
    assert cert.min_exterior == pytest.approx(math.pi / 2)
    assert np.allclose(cert.interior_angles, math.pi / 2)


def test_certificate_reflex_chevron():
    cert = convexity_certificate([(0, 0), (2, 0), (1, 0.4), (0, 1)])
    assert not cert.is_convex
    assert cert.min_exterior < 0


def test_certificate_never_raises_on_clockwise():
    cert = convexity_certificate([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert not cert.is_convex


def test_dilate_square(unit_square):
    big = dilate_to_perimeter(unit_square, 8.0, (0.0, 0.0))
    assert big.perimeter == pytest.approx(8.0, rel=1e-12)
    assert big.vertices[1] == pytest.approx((2.0, 0.0))


def test_dilate_identity(unit_square):
    same = dilate_to_perimeter(unit_square, unit_square.perimeter, (0.3, 0.3))
    assert np.allclose(same.vertices, unit_square.vertices, atol=1e-15)


def test_dilate_roundtrip():
    t = np.arange(7) * (TAU / 7)
    poly = build_polygon(np.column_stack([1.3 * np.cos(t), np.sin(t) + 0.2]), base_s=0.4)
    there = dilate_to_perimeter(poly, 1.0, (0.1, -0.2))
    assert there.perimeter == pytest.approx(1.0, rel=1e-12)
    back = dilate_to_perimeter(there, poly.perimeter, (0.1, -0.2))
    assert np.allclose(back.vertices, poly.vertices, atol=1e-12)
    assert back.base_s == pytest.approx(poly.base_s, rel=1e-12)
