import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isocomb.geometry import (
    IDENTITY_MOTION,
    TAU,
    RigidMotion2,
    Vec2,
    alignment_margins,
    angle_between,
    apply_motion,
    apply_motion_many,
    circ_dist,
    compose,
    invert,
    merge_positions,
    norm_angle,
    rotate_about_x0,
)

from conftest import circular_alignment_margins, dense_alignment_margins

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


def test_invert_roundtrip():
    m = RigidMotion2(1.1, Vec2(2.0, -3.0))
    p = apply_motion(invert(m), apply_motion(m, (0.5, 0.25)))
    assert p.x == pytest.approx(0.5, abs=1e-14)
    assert p.y == pytest.approx(0.25, abs=1e-14)


def test_motion_preserves_distances_bulk():
    rng = np.random.default_rng(0)
    m = RigidMotion2(rng.uniform(-3, 3), Vec2(*rng.uniform(-5, 5, size=2)))
    p = rng.uniform(-10, 10, size=(10_000, 2))
    q = rng.uniform(-10, 10, size=(10_000, 2))
    before = np.linalg.norm(p - q, axis=1)
    after = np.linalg.norm(apply_motion_many(m, p) - apply_motion_many(m, q), axis=1)
    assert np.max(np.abs(after - before) / before) < 1e-12


def test_angle_between_examples():
    assert angle_between((1, 0), (1, 0)) == 0.0
    assert angle_between((1, 0), (0, 1)) == pytest.approx(math.pi / 2)
    assert angle_between((1, 0), (-1, 0)) == pytest.approx(math.pi)
    assert angle_between((1, 0, 0), (0, 0, 2)) == pytest.approx(math.pi / 2)


def test_angle_between_zero_vector_rejected():
    with pytest.raises(ValueError):
        angle_between((0.0, 0.0), (1.0, 0.0))


def test_circ_dist_examples():
    assert circ_dist(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
    assert circ_dist(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)
    assert circ_dist(0.0, math.pi) == pytest.approx(math.pi)


@given(a=angles, b=angles, c=angles)
def test_circ_dist_properties(a, b, c):
    assert circ_dist(a, b) == pytest.approx(circ_dist(b, a), abs=1e-12)
    assert circ_dist(a, a) == 0.0
    assert 0.0 <= circ_dist(a, b) <= math.pi + 1e-12
    assert circ_dist(a, c) <= circ_dist(a, b) + circ_dist(b, c) + 1e-9


def test_rotate_about_x0_examples():
    assert rotate_about_x0(0.37, (1.0, 0.0, 0.0)) == pytest.approx((1.0, 0.0, 0.0))
    p = rotate_about_x0(math.pi / 2, (0.0, 1.0, 0.0))
    assert p == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    c, s = 0.8, 0.6
    q = rotate_about_x0(math.pi, (c, s, 0.0))
    assert q == pytest.approx((c, -s, 0.0), abs=1e-15)


def test_rotate_about_x0_preserves_norm_and_height():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = rng.normal(size=3)
        psi = rng.uniform(-7, 7)
        q = np.array(rotate_about_x0(psi, p))
        assert q[0] == p[0]
        assert np.linalg.norm(q) == pytest.approx(np.linalg.norm(p), rel=1e-15)


def test_norm_angle_range():
    assert norm_angle(math.pi) == pytest.approx(math.pi)
    assert norm_angle(-math.pi) == pytest.approx(math.pi)
    assert norm_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)


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
    special = np.array([0.0, -0.0, math.pi, -math.pi, TAU, -TAU, 2 * TAU, -2 * TAU,
                        3 * math.pi, -3 * math.pi, 1e-16, -1e-16, 1e-300, -1e-300])
    special = np.concatenate([special, np.nextafter(special, np.inf), np.nextafter(special, -np.inf)])
    return rng.choice(special, m)


@pytest.mark.parametrize("kind", ["random", "ties", "wraparound", "narrow"])
def test_alignment_margins_bitwise_equal_dense_oracle(kind):
    rng = np.random.default_rng(2024)
    for _ in range(400):
        g_scan = _kernel_arrays(kind, rng)
        g = g_scan[: int(rng.integers(1, len(g_scan) + 1))]
        fast = alignment_margins(g_scan, g)
        dense = dense_alignment_margins(g_scan, g)
        assert np.array_equal(fast.view(np.uint64), dense.view(np.uint64)), g_scan
        # where no real gap reaches pi, wrapping changes nothing
        valid = np.abs(g_scan[None, :] - g[:, None]).max(axis=1) < math.pi
        circular = circular_alignment_margins(g_scan, g)
        assert np.array_equal(fast[valid].view(np.uint64), circular[valid].view(np.uint64)), g_scan


def test_alignment_margins_rejects_nonfinite():
    with pytest.raises(ValueError):
        alignment_margins(np.array([0.0, np.nan]), np.array([0.0]))


def _greedy_merge_loop(pos, period, tol):
    """The per-element merge loop that merge_positions replaced."""
    keep = np.empty(len(pos), dtype=bool)
    keep[0] = True
    last = pos[0]
    for i in range(1, len(pos)):
        keep[i] = pos[i] - last > tol
        if keep[i]:
            last = pos[i]
    out = pos[keep]
    if len(out) > 1 and period - out[-1] <= tol:
        out = out[:-1]
    return out


def test_merge_positions_matches_greedy_loop():
    rng = np.random.default_rng(31)
    tol = 1e-3
    for _ in range(2000):
        n = int(rng.integers(0, 40))
        # clustered gaps straddle tol, so runs of sub-tolerance gaps are common
        gaps = rng.choice([0.0, 0.3 * tol, 0.6 * tol, tol, 1.5 * tol, 0.1], n)
        pos = np.concatenate([[0.0], np.cumsum(gaps)])
        period = pos[-1] + rng.choice([0.0, 0.5 * tol, tol, 2 * tol, 0.2])
        assert np.array_equal(merge_positions(pos, period, tol), _greedy_merge_loop(pos, period, tol))
