import hashlib
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from isocomb import cli, combination
from isocomb.errors import AlignmentNotFound, EmptyInput, GeometryError, InvalidInput, LinkNotGenerated
from isocomb.serialization import (
    dump_json,
    object_from_dict,
    planar_to_dict,
    spherical_to_dict,
)
from isocomb.spherical import LINK_TARGET_CEILING, LINK_TARGET_FLOOR, random_convex_link
from isocomb.suite import (
    MAX_TRIALS,
    MAX_VERTICES,
    SuiteConfig,
    random_convex_polygon,
    replay_trial,
    run_cone_suite,
    run_planar_suite,
    trial_rng,
)
from isocomb.svgplot import render_svg

TAU = 2 * math.pi


# -- configuration --------------------------------------------------------------

def test_config_rejects_zero_trials():
    with pytest.raises(ValueError):
        SuiteConfig(trials=0, seed=1).validate()


def test_config_rejects_inverted_vertex_range():
    with pytest.raises(ValueError):
        SuiteConfig(trials=1, seed=1, min_vertices=10, max_vertices=4).validate()
    # the public check is the one the runners make: a cone suite, which runs
    # an inverted range, validates it, and a planar one refuses it by default
    config = SuiteConfig(trials=2, seed=1, min_vertices=40, max_vertices=30)
    config.validate("cone")
    for check in (config.validate, lambda: config.validate("planar")):
        with pytest.raises(ValueError, match=r"\[min_vertices, MAX_VERTICES"):
            check()
    with pytest.raises(ValueError, match="unknown trial kind 'sphere'"):
        config.validate("sphere")
    # a fraction, which the planar generator refuses, is refused before any trial
    for kind in ("planar", "cone"):
        with pytest.raises(ValueError, match="min_vertices must be an integer"):
            SuiteConfig(trials=2, seed=1, min_vertices=3.5).validate(kind)


def test_only_a_planar_suite_checks_min_vertices_against_max_vertices(capsys):
    # a cone trial reads no min_vertices: an inverted range runs, replays
    # and exits 0 for a cone suite, and stays a validation failure (exit 1)
    # for a planar one
    config = SuiteConfig(trials=2, seed=1, min_vertices=40, max_vertices=30)
    assert run_cone_suite(config)["passes"] == 2
    assert replay_trial(config, "cone", 1).passed
    for run in (run_planar_suite, lambda c: replay_trial(c, "planar", 1)):
        with pytest.raises(ValueError, match=r"\[min_vertices, MAX_VERTICES"):
            run(config)
    flags = ["--trials", "2", "--seed", "1", "--min-vertices", "40"]
    assert cli.main(["suite", "cone", *flags]) == 0
    assert cli.main(["suite", "cone", *flags, "--replay", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["suite", "planar", *flags]) == 1
    assert "max_vertices must be an integer in [min_vertices" in capsys.readouterr().err
    # the other bounds hold for both kinds
    for kind in ("planar", "cone"):
        assert cli.main(["suite", kind, "--trials", "1", "--min-vertices", "2"]) == 1
        assert cli.main(["suite", kind, "--trials", "1", "--max-vertices", str(MAX_VERTICES + 1)]) == 1
    assert cli.main(["suite", "cone", "--trials", "1", "--max-vertices", "2"]) == 1
    assert "max_vertices must be an integer in [3, MAX_VERTICES" in capsys.readouterr().err


@pytest.mark.parametrize("field, bound", [("trials", MAX_TRIALS), ("max_vertices", MAX_VERTICES)])
def test_config_bounds_the_suite_size(field, bound):
    # validate() alone: a suite of this size is never run
    config = SuiteConfig(trials=1, seed=1)
    replace(config, **{field: bound}).validate()
    with pytest.raises(ValueError, match=("MAX_TRIALS" if field == "trials" else "MAX_VERTICES")):
        replace(config, **{field: bound + 1}).validate()
    # every integer is a seed, a negative or a huge one included
    for seed in (-3, 0, 2**70):
        replace(config, seed=seed).validate()
    # neither kind, nor a replay, takes a count or a seed that is not an
    # integer: 2.5 trials failed in range(), True ran one trial, 8.5 vertices
    # drew hulls of up to 9, seed True ran a suite other than seed 1 and
    # reported "seed": true, and seeds 1.5 and "1" ran suites of their own
    refused = {"trials": (2.5, True), "max_vertices": (8.5,)}[field]
    for name, value in [(field, v) for v in refused] + [("seed", v) for v in (True, 1.5, "1")]:
        bad = replace(config, **{name: value})
        for kind in ("planar", "cone"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                bad.validate(kind)
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                replay_trial(bad, kind, 0)


def test_config_rejects_degenerate_link_range():
    with pytest.raises(ValueError):
        SuiteConfig(trials=1, seed=1, target_link_length=(0.5, TAU)).validate()
    # a value that is not two numbers failed in the unpacking (TypeError for
    # None and 3.0, a ValueError not naming the field for (1.0,)) or in the
    # comparison (TypeError)
    for value in (None, 3.0, ("a", "b"), (1.0,)):
        for kind in ("planar", "cone"):
            with pytest.raises(ValueError, match="target_link_length must be two numbers"):
                SuiteConfig(trials=1, seed=1, target_link_length=value).validate(kind)


class UnusedRng:
    """A generator that fails the test when drawn from."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was used")


def test_generators_refuse_fewer_than_3_points_before_drawing():
    # fewer than 3 points have no hull with 3 corners: the polygon generator
    # once drew such sets forever, the link generator for LINK_MAX_ATTEMPTS
    for max_vertices in (2, 1, 0):
        with pytest.raises(ValueError, match="max_vertices"):
            random_convex_polygon(UnusedRng(), 2, max_vertices)
    for n_points in (2, 1, 0):
        with pytest.raises(ValueError, match="n_points"):
            random_convex_link(UnusedRng(), 3.0, n_points=n_points)


# -- suites -----------------------------------------------------------------------

def test_planar_suite_small_run(tmp_path):
    path = tmp_path / "planar.jsonl"
    agg = run_planar_suite(SuiteConfig(trials=5, seed=3), report_path=str(path))
    assert agg["passes"] == 5
    lines = path.read_text().splitlines()
    assert len(lines) == 6  # one per trial plus the aggregate footer
    first = json.loads(lines[0])
    assert first["passed"] is True
    assert "inputs_digest" in first
    footer = json.loads(lines[-1])
    assert footer["aggregate"]["pass_rate"] == 1.0


def test_cone_suite_small_run(tmp_path):
    path = tmp_path / "cone.jsonl"
    agg = run_cone_suite(SuiteConfig(trials=3, seed=11), report_path=str(path))
    assert agg["passes"] == 3
    assert len(path.read_text().splitlines()) == 4


@pytest.mark.parametrize("run", [run_planar_suite, run_cone_suite], ids=["planar", "cone"])
def test_a_numpy_integer_seed_and_count_write_the_report_of_the_int(tmp_path, run):
    # the count rule accepts numpy integers, and the aggregate wrote them as
    # given: json.dumps raised after every trial had run
    a, b = tmp_path / "int.jsonl", tmp_path / "numpy.jsonl"
    run(SuiteConfig(trials=2, seed=3), report_path=str(a))
    agg = run(SuiteConfig(trials=np.int64(2), seed=np.int64(3)), report_path=str(b))
    assert b.read_bytes() == a.read_bytes()
    assert type(agg["seed"]) is int and type(agg["trials"]) is int


def test_cone_suite_refuses_targets_below_every_hull_at_validation():
    # at the scale floor every hull is longer than these targets, so link
    # generation would spend LINK_MAX_ATTEMPTS hulls and raise its own error
    config = SuiteConfig(trials=2, seed=1, target_link_length=(1e-9, 1e-8))
    with pytest.raises(ValueError, match="target_link_length"):
        config.validate()
    below = SuiteConfig(trials=2, seed=1, target_link_length=(LINK_TARGET_FLOOR * (1 - 1e-9), 1.0))
    with pytest.raises(ValueError, match="target_link_length"):
        below.validate()


def test_cone_suite_refuses_targets_above_every_hull_at_validation():
    # every link of cap points is at most the cap circle long, so link
    # generation would spend LINK_MAX_ATTEMPTS hulls and raise its own error
    config = SuiteConfig(trials=6, seed=1, target_link_length=(6.2, 6.28))
    with pytest.raises(ValueError, match="target_link_length"):
        config.validate()
    with pytest.raises(ValueError, match="target_link_length"):
        run_cone_suite(config)
    at = SuiteConfig(trials=2, seed=1, target_link_length=(1.0, LINK_TARGET_CEILING))
    with pytest.raises(ValueError, match="target_link_length"):
        at.validate()
    SuiteConfig(trials=2, seed=1, target_link_length=(1.0, 6.2)).validate()


def test_cone_suite_names_a_target_no_hull_of_its_points_reaches():
    # below the cap circle, yet longer than any hull of 30 cap points the
    # first 200 draws give: validation passes, and link generation raises
    # its typed error, a GeometryError that is still a RuntimeError
    config = SuiteConfig(trials=2, seed=1, target_link_length=(6.2, 6.23))
    config.validate()
    with pytest.raises(LinkNotGenerated, match="could not generate a convex link") as info:
        run_cone_suite(config)
    assert isinstance(info.value, GeometryError) and isinstance(info.value, RuntimeError)


def test_cone_suite_runs_from_the_least_target_every_hull_brackets():
    # every hull is at most LINK_TARGET_FLOOR long at the scale floor, so a
    # target there is met; a link's centroid circulation is of the order of
    # its area, ~p^2 / 4 pi, and its rounding of the order of its perimeter
    # p, so the direction floor scales with p and such small links pass
    for least in (LINK_TARGET_FLOOR, 1e-7, 3e-7):
        config = SuiteConfig(trials=4, seed=1, target_link_length=(least, 2 * least))
        config.validate()
        agg = run_cone_suite(config)
        assert agg["passes"] == 4, (least, [r.failure_reason for r in agg["reports"]])


# SHA-256 of the 8-trial reports below, recorded when every generated hull
# started at its lexicographically least vertex and tied margins went to the
# smallest sigma0 within MARGIN_TIE_TOL (numpy 2.4, x86-64); the cone digest
# again when a link's area became its triangle-fan area, which moved only the
# gauss_bonnet_residual fields, and when positioning searched the Pogorelov
# image at its merged events and carried a rotated link's data, which moved
# psi, margin and the combined link's fields by rounding; and when the link
# solve moved to the closed-form perimeter of the gnomonic hull, which moved
# the links' vertices (inputs_digest) and the same fields by rounding; and
# when the turnings came from edge normals, which moved only min_turning and
# gauss_bonnet_residual; and when a positioning evaluated each link once and
# turned the points by psi, not the vertices, which moved the combined
# vertices by an eps and so min_turning, gauss_bonnet_residual and
# combined_perimeter (tools/report_diff.py over 10,000 trials at seeds 7 and
# 42: no passed flip, psi, sigma0 and margin unmoved); and when the search
# image's directions unwrapped by the plane's rule (geometry.turns and
# unwrap_turns), which moved margin by <= 4.4e-15 and psi, min_turning,
# gauss_bonnet_residual and combined_perimeter by <= 1.8e-15 (same diff: no
# passed flip, sigma0 unmoved; the planar report's 8 trials kept every
# bit).  The planar digest again when a planar trial merged once, built
# the rebased rows from the alignment's merge, and dilated its second
# polygon as a similarity, which moved bending_residual, exterior_sum,
# min_exterior, vertex_angle_law_max_error and margin by rounding
# (tools/report_diff.py over 10,000 trials at seeds 7 and 42, also at
# --max-vertices 200: no passed flip, inputs_digest unmoved, the law error
# by <= 9.2e-11).  A refactor that keeps every output bit keeps them.
PLANAR_SEED42_REPORT_SHA256 = "2509eb6a1a7fd710c0423549fff659dd816c67ca189cef0187c0c0dafaa7a166"
CONE_SEED7_REPORT_SHA256 = "0f06dbd36070a4c574655c681474ebe8d34d814c3397a86d273614efb8ef34d5"


def test_suite_reports_are_byte_identical(tmp_path):
    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    run_planar_suite(SuiteConfig(trials=8, seed=42), report_path=str(a))
    run_planar_suite(SuiteConfig(trials=8, seed=42), report_path=str(b))
    assert a.read_bytes() == b.read_bytes()
    assert hashlib.sha256(a.read_bytes()).hexdigest() == PLANAR_SEED42_REPORT_SHA256
    run_cone_suite(SuiteConfig(trials=8, seed=7), report_path=str(c))
    assert hashlib.sha256(c.read_bytes()).hexdigest() == CONE_SEED7_REPORT_SHA256


# re-pinned with the cone digest above, for the same rounding moves, and
# again when link_hausdorff measured from samples and vertices to the
# other link's geodesic edges, not to its samples, which moved only the
# hausdorff fields (0.103725, 0.052113, 0.026067 -> 0.103691, 0.051910,
# 0.025969), and again when the turnings came from edge normals, which
# moved only min_turning and gauss_bonnet_residual; every other field is the
# parent's bit for bit; and again when a positioning evaluated each link once,
# which moved 6 of 72 combined vertex coordinates by <= 2.8e-17 and one
# min_turning by 5.6e-17; and again when the search image's directions
# unwrapped by the plane's rule, which moved 2 of 4 margins by <= 8.9e-16
DIGON_DEFAULT_LADDER_SHA256 = "e7552cb7c79c3b00d2bf47a2749c2fcbb2f93dfeb27a6589872e8257496ec640"


def test_digon_output_is_byte_identical(tmp_path):
    # pi/3 against pi/2 on the default ladder
    out = tmp_path / "digon.json"
    argv = ["digon", "--angle1", "1.0471975511965976", "--angle2", "1.5707963267948966",
            "--ladder", "0.2,0.1,0.05,0.025", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGON_DEFAULT_LADDER_SHA256


def test_trial_rng_stable():
    assert trial_rng(7, 3).integers(0, 1 << 30) == trial_rng(7, 3).integers(0, 1 << 30)
    assert trial_rng(7, 3).integers(0, 1 << 30) != trial_rng(7, 4).integers(0, 1 << 30)


def test_replay_reproduces_trial():
    config = SuiteConfig(trials=6, seed=9)
    agg = run_planar_suite(config)
    original = agg["reports"][4]
    # a numpy integer index replays the same trial as a Python int
    for index in (4, np.int64(4)):
        replayed = replay_trial(config, "planar", index)
        assert replayed.inputs_digest == original.inputs_digest
        assert replayed.margin == original.margin
        assert replayed.passed == original.passed


SMALL_HULL_SUITES = {
    7000003: SuiteConfig(trials=400, seed=7000003, min_vertices=3, max_vertices=3),
    90210: SuiteConfig(trials=5000, seed=90210, min_vertices=3, max_vertices=8),
}


@pytest.mark.parametrize(
    "seed, trial_id",
    [(7000003, i) for i in (96, 121, 142, 173, 180, 210)] + [(90210, 1789), (90210, 4047)],
)
def test_replay_small_hull_trials_combine_convex(seed, trial_id):
    # these trials combined into non-convex curves while the gap was measured modulo 2*pi
    report = replay_trial(SMALL_HULL_SUITES[seed], "planar", trial_id)
    assert report.passed, report.failure_reason
    assert report.margin > 0 and report.certificate["is_convex"]


def test_replay_rejects_bad_index():
    with pytest.raises(ValueError):
        replay_trial(SuiteConfig(trials=2, seed=1), "planar", 5)
    # 1.5 and True replayed pairs that are no trial of the suite
    for index in (1.5, True):
        with pytest.raises(ValueError, match=r"trial_id must be an integer in \[0, trials - 1 = 2\]"):
            replay_trial(SuiteConfig(trials=3, seed=1), "planar", index)


def test_replay_rejects_unknown_kind():
    with pytest.raises(ValueError):
        replay_trial(SuiteConfig(trials=2, seed=1), "sphere", 0)


# -- svg ---------------------------------------------------------------------------

def test_render_svg_single_square(unit_square):
    doc = render_svg([("square", unit_square.vertices)])
    assert doc.count("<polyline") == 1
    assert doc.startswith("<?xml")
    assert "</svg>" in doc


def test_render_svg_multiple_curves_with_legend(unit_square):
    doc = render_svg(
        [
            ("F1", unit_square.vertices),
            ("F2", unit_square.vertices + 2.0),
            ("combined", 2.0 * unit_square.vertices),
        ]
    )
    assert doc.count("<polyline") == 3
    assert doc.count("<text") == 3


def test_render_svg_projects_spherical(octant):
    doc = render_svg([("link", octant.vertices)])
    assert doc.count("<polyline") == 1


def test_render_svg_empty_rejected():
    with pytest.raises(EmptyInput):
        render_svg([])


def test_render_svg_deterministic(unit_square):
    curves = [("a", unit_square.vertices)]
    assert render_svg(curves) == render_svg(curves)


# -- serialization -------------------------------------------------------------------

def test_planar_roundtrip(unit_square):
    data = planar_to_dict(unit_square)
    poly = object_from_dict(json.loads(json.dumps(data)))
    assert np.array_equal(poly.vertices, unit_square.vertices)
    assert poly.base_s == unit_square.base_s


def test_spherical_roundtrip(octant):
    data = spherical_to_dict(octant)
    poly = object_from_dict(json.loads(json.dumps(data)))
    assert np.array_equal(poly.vertices, octant.vertices)


def test_digon_from_dict_is_its_angle():
    assert object_from_dict({"type": "digon", "angle": 1.1}).angle == 1.1


def test_object_from_dict_rejects_unknown_type():
    with pytest.raises(ValueError):
        object_from_dict({"type": "dodecahedron"})


@pytest.mark.parametrize("data", [
    {"type": "dodecahedron"},
    {"type": "digon"},
    {"type": "digon", "angle": "1.0"},
    {"type": "planar_polygon", "vertices": [[0, 0], [1, 0, 0], [0, 1]]},
])
def test_object_from_dict_raises_a_typed_error(data):
    with pytest.raises(InvalidInput) as info:
        object_from_dict(data)
    assert isinstance(info.value, ValueError) and isinstance(info.value, GeometryError)


# -- command line ----------------------------------------------------------------------

def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def square_file(tmp_path, unit_square):
    return write_json(tmp_path / "square.json", planar_to_dict(unit_square))


@pytest.fixture
def rect_file(tmp_path):
    from isocomb.planar import build_polygon

    rect = build_polygon([(0, 0), (0.5, 0), (0.5, 1.5), (0, 1.5)], base_s=0.3)
    return write_json(tmp_path / "rect.json", planar_to_dict(rect))


def test_cli_validate_ok(square_file):
    assert cli.main(["validate", square_file]) == 0


def test_cli_validate_bad_geometry(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"type": "planar_polygon", "vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]})
    assert cli.main(["validate", bad]) == 1


def test_cli_validate_missing_file(tmp_path):
    assert cli.main(["validate", str(tmp_path / "nope.json")]) == 3


def test_cli_validate_malformed_json(tmp_path):
    p = tmp_path / "garbled.json"
    p.write_text("{not json")
    assert cli.main(["validate", str(p)]) == 1


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
OCTANT = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("data, field", [
    ({"type": "planar_polygon", "base_s": 0.0}, "'vertices'"),
    ({"type": "spherical_polygon"}, "'vertices'"),
    ({"type": "digon", "placement": [0.0, 0.0, 0.1]}, "'angle'"),
    ({"type": "planar_polygon", "vertices": SQUARE, "base_s": math.nan}, "base_s"),
    ({"type": "planar_polygon", "vertices": SQUARE, "base_s": math.inf}, "base_s"),
    ({"type": "spherical_polygon", "vertices": OCTANT, "base_s": -math.inf}, "base_s"),
    ({"type": "digon", "angle": 1.0, "placement": [math.nan, 0.0, 0.0]}, "placement"),
    ({"type": "digon", "angle": 1.0, "placement": [1e200, 1e200, 0.0]}, "placement"),
    ({"type": "digon", "angle": 1.0, "placement": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "placement"),
    # a field of the wrong JSON type, which used to end in a traceback or pass
    ({"type": "planar_polygon", "vertices": SQUARE, "base_s": None}, "base_s"),
    ({"type": "planar_polygon", "vertices": SQUARE, "base_s": [1]}, "base_s"),
    ({"type": "spherical_polygon", "vertices": OCTANT, "base_s": {}}, "base_s"),
    ({"type": "planar_polygon", "vertices": SQUARE, "base_s": "0.5"}, "base_s"),
    ({"type": "digon", "angle": None}, "angle"),
    ({"type": "digon", "angle": [1]}, "angle"),
    ({"type": "planar_polygon", "vertices": {"a": 1}}, "vertices"),
    ({"type": "planar_polygon", "vertices": [[0, 0], [1, 0], {}, [0, 1]]}, "vertices"),
    ({"type": "planar_polygon", "vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]}, "vertices"),
    ({"type": "spherical_polygon", "vertices": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}, "vertices"),
    ({"type": "planar_polygon", "vertices": [[0, 0], [10**400, 0], [0, 1]]}, "vertices"),
])
def test_cli_validate_names_the_bad_field(tmp_path, capsys, data, field):
    # a missing field or a non-finite base point is a validation failure
    # whose one-line message names the field, never a traceback or exit 0
    path = write_json(tmp_path / "in.json", data)
    assert cli.main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def test_cli_align_writes_schema(square_file, rect_file, tmp_path):
    out = tmp_path / "result.json"
    svg = tmp_path / "plot.svg"
    code = cli.main(["align", "--a", square_file, "--b", rect_file, "--out", str(out), "--svg", str(svg)])
    assert code == 0
    result = json.loads(out.read_text())
    assert set(result) == {"alignment", "combined", "bending_residual"}
    assert set(result["alignment"]) == {"sigma0", "rotation", "translation", "margin"}
    assert result["alignment"]["margin"] > 0
    assert result["combined"]["certificate"]["is_convex"] is True
    assert svg.read_text().count("<polyline") == 3


@pytest.mark.parametrize("scale, code", [(1e150, 0), (1e154, 1)])
def test_cli_align_bounds_the_coordinates(tmp_path, capsys, scale, code):
    # squared chord lengths of the combination overflowed past ~1e154
    square = write_json(tmp_path / "big.json", {"type": "planar_polygon", "vertices": [
        [0.0, 0.0], [scale, 0.0], [scale, scale], [0.0, scale]]})
    assert cli.main(["align", "--a", square, "--b", square, "--out", str(tmp_path / "out.json")]) == code
    err = capsys.readouterr().err
    assert ("MAX_COORDINATE" in err) == (code == 1)


def test_cli_combine_prints_a_collapsed_combination_as_not_convex(tmp_path, capsys):
    # the unit square and its point reflection, both based at s = 0, sum to
    # the origin at every arc position: the certificate has no angles, and
    # its undefined sums and tolerance print as null
    a = write_json(tmp_path / "a.json", {"type": "planar_polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})
    b = write_json(tmp_path / "b.json", {"type": "planar_polygon", "vertices": [[0, 0], [-1, 0], [-1, -1], [0, -1]]})
    assert cli.main(["combine", "--a", a, "--b", b]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    result = json.loads(out)
    assert result["combined"]["certificate"] == {
        "exterior_sum": None, "min_exterior": None, "is_convex": False, "tolerance": None,
        "interior_angles": [],
    }
    assert result["combined"]["vertices"] == [[0.0, 0.0]] * 4


def test_cli_combine_skips_alignment(square_file, tmp_path):
    out = tmp_path / "result.json"
    assert cli.main(["combine", "--a", square_file, "--b", square_file, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["alignment"] is None
    assert result["bending_residual"] == 0.0


def test_cli_align_exit_code_on_algorithmic_failure(square_file, rect_file, monkeypatch):
    def boom(pair):
        raise AlignmentNotFound("forced")

    monkeypatch.setattr(combination, "combine_aligned", boom)
    assert cli.main(["align", "--a", square_file, "--b", rect_file]) == 2


def test_cli_pogorelov(tmp_path):
    from isocomb.spherical import build_spherical_polygon

    phi = np.arange(12) * (TAU / 12)
    ring_pts = np.column_stack(
        [np.full(12, math.cos(0.5)), math.sin(0.5) * np.cos(phi), math.sin(0.5) * np.sin(phi)]
    )
    ring = spherical_to_dict(build_spherical_polygon(ring_pts))
    a = write_json(tmp_path / "a.json", ring)
    b = write_json(tmp_path / "b.json", ring)
    out = tmp_path / "image.json"
    assert cli.main(["pogorelov", "--a", a, "--b", b, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"planar1", "planar2", "x0_sums", "projections", "positions"}


def test_cli_cone_combine_positioned(tmp_path):
    rng = np.random.default_rng(17)
    from isocomb.spherical import random_convex_link

    a = write_json(tmp_path / "a.json", spherical_to_dict(random_convex_link(rng, 3.0)))
    b = write_json(tmp_path / "b.json", spherical_to_dict(random_convex_link(rng, 3.0)))
    out = tmp_path / "combined.json"
    assert cli.main(["cone-combine", "--a", a, "--b", b, "--position", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["gauss_bonnet_residual"] <= 1e-8
    assert data["combined"]["type"] == "spherical_polygon"


def test_cli_cone_combine_requires_equal_perimeters(tmp_path, octant):
    rng = np.random.default_rng(18)
    from isocomb.spherical import random_convex_link

    a = write_json(tmp_path / "a.json", spherical_to_dict(octant))
    b = write_json(tmp_path / "b.json", spherical_to_dict(random_convex_link(rng, 2.0)))
    assert cli.main(["cone-combine", "--a", a, "--b", b]) == 1


def test_cli_digon(tmp_path):
    out = tmp_path / "digon.json"
    code = cli.main(
        ["digon", "--angle1", str(math.pi / 3), "--angle2", str(math.pi / 2), "--ladder", "0.2,0.1", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["levels"]) == 2
    assert len(data["hausdorff"]) == 1


def test_cli_suite_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(["suite", "planar", "--trials", "6", "--seed", "5", "--report", str(a)]) == 0
    assert cli.main(["suite", "planar", "--trials", "6", "--seed", "5", "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_suite_replay(capsys):
    assert cli.main(["suite", "planar", "--trials", "4", "--seed", "2", "--replay", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["trial_id"] == 1


def test_cli_digon_names_the_depth_too_deep_for_a_thin_digon(capsys):
    # the 1e-9 digon's edges at depth 0.005 fall below the degenerate-edge floor
    ladder = "0.2,0.1,0.05,0.025,0.005"
    argv = ["digon", "--angle1", "1e-9", "--angle2", str(math.pi / 3), "--ladder", ladder]
    assert cli.main(argv) == 1
    assert "cut depth 0.005" in capsys.readouterr().err


@pytest.mark.parametrize("angles, ladder, depth", [
    (("1.0", "2.0"), "5e-7", "cut depth 5e-07"),            # an antipodal quadrilateral edge
    (("1.0", "2.0"), "1e-6", "cut depth 1e-06: "),          # a sample below the height floor
    (("3.14159", "3.1415926"), "0.2,0.1", "cut depth 0.2"),  # no valid bracket end
])
def test_cli_digon_errors_name_the_users_cut_depth(capsys, angles, ladder, depth):
    argv = ["digon", "--angle1", angles[0], "--angle2", angles[1], "--ladder", ladder]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert depth in err
    if ladder == "0.2,0.1":
        assert "1e-06" not in err


def test_suite_refuses_to_write_nan(tmp_path, monkeypatch, capsys):
    from isocomb import suite

    real = suite.planar_trial
    monkeypatch.setattr(suite, "planar_trial", lambda c, i: replace(real(c, i), margin=math.nan))
    path = tmp_path / "report.jsonl"
    with pytest.raises(ValueError):
        run_planar_suite(SuiteConfig(trials=2, seed=1), report_path=str(path))
    assert not path.exists()
    run = ["suite", "planar", "--trials", "2", "--seed", "1"]
    assert cli.main(run + ["--report", str(path)]) == 1
    assert cli.main(run + ["--replay", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "JSON" in err


def test_cli_suite_rejects_bad_config():
    assert cli.main(["suite", "planar", "--trials", "0", "--seed", "1"]) == 1

