"""Bounded fuzz of the command line: every subcommand's inputs and arguments.

Generated input files sit in and around the three schemas (planar polygon,
spherical polygon, digon): any JSON value in any field, numbers that are
NaN, infinite or too large for a float, ragged vertex rows, and shapes
that are valid or nearly so, at most 12 vertices; and, as explicit cases,
files nested far deeper than the JSON decoder's recursion limit.  Each
file is run against a fixed partner and, for the link commands, against
itself.  The ``digon`` angles and ladder and the ``suite`` options are
fuzzed as argument strings in small ranges.  Every run must end in an exit code of 0-3, with exactly
one ``error:`` line when it fails (a suite's failed trials are reported in
its printed summary instead), no warning (the command line would print
it), and no NaN or Infinity token in what it prints or writes.  The random
polygon and link generators refuse a point count past ``MAX_SAMPLES``
before they allocate, and a dilation refuses a centre that is not 2 finite
coordinates before it computes anything.  A target link length or a base
position that is not a number is refused with a ValueError, not Python's
TypeError.
"""

import contextlib
import functools
import io
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isocomb import cli
from isocomb.geometry import MAX_SAMPLES
from isocomb.planar import build_polygon, dilate_to_perimeter
from isocomb.spherical import build_spherical_polygon, random_convex_link
from isocomb.suite import random_convex_polygon, trial_rng

KINDS = ("planar_polygon", "spherical_polygon", "digon")
SQUARE = {"type": "planar_polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "base_s": 0.0}
OCTANT = {"type": "spherical_polygon", "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "base_s": 0.0}
NON_FINITE = re.compile(r"NaN|Infinity|\bnan\b|\binf\b")

numbers = st.one_of(st.integers(), st.floats(), st.floats(-10.0, 10.0))
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=12,
)
number_or_any = st.one_of(numbers, numbers, json_values)


@st.composite
def circle_polygons(draw):
    """3-12 points on a circle, counterclockwise at whole degrees: convex."""
    phis = sorted(math.radians(a) for a in draw(st.lists(st.integers(0, 359), min_size=3, max_size=12, unique=True)))
    r = draw(st.one_of(st.floats(1e-12, 1e12), st.just(2 / math.pi)))
    return [[r * math.cos(p), r * math.sin(p)] for p in phis]


@st.composite
def cap_links(draw, heights=st.floats(0.0, math.pi)):
    """3-12 points on a circle about +x0 on the sphere, counterclockwise."""
    phis = sorted(math.radians(a) for a in draw(st.lists(st.integers(0, 359), min_size=3, max_size=12, unique=True)))
    h = draw(heights)
    return [[math.cos(h), math.sin(h) * math.cos(p), math.sin(h) * math.sin(p)] for p in phis]


def rectangle(w):
    """A w by 2 - w rectangle: its perimeter is the unit square's."""
    return [[0, 0], [w, 0], [w, 2 - w], [0, 2 - w]]


def rotated_octant(t):
    """The octant turned by t about x0: its perimeter is the octant's."""
    c, s = math.cos(t), math.sin(t)
    return [[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]]


def rows(width):
    """Up to 12 rows of ``width`` numbers or other JSON values."""
    return st.lists(st.lists(number_or_any, min_size=width, max_size=width), max_size=12)


planar_vertices = st.one_of(
    st.integers(1, 4).flatmap(rows),
    json_values,
    circle_polygons(),
    st.builds(rectangle, numbers),
    st.builds(rectangle, st.floats(0.0, 2.0)),
)
spherical_vertices = st.one_of(
    st.integers(1, 4).flatmap(rows),
    json_values,
    cap_links(),
    cap_links(st.floats(0.05, 1.4)),     # convex links inside the upper hemisphere
    st.builds(rotated_octant, st.floats(allow_infinity=False)),
    st.builds(rotated_octant, st.floats(-10.0, 10.0)),
)
planar = st.fixed_dictionaries(
    {"type": st.just("planar_polygon"), "vertices": planar_vertices}, optional={"base_s": number_or_any}
)
spherical = st.fixed_dictionaries(
    {"type": st.just("spherical_polygon"), "vertices": spherical_vertices}, optional={"base_s": number_or_any}
)
digon = st.fixed_dictionaries(
    {"type": st.just("digon")}, optional={"angle": number_or_any, "placement": json_values}
)
# any field of any schema under any type, each of them possibly missing
around = st.fixed_dictionaries(
    {"type": st.one_of(st.sampled_from(KINDS), json_values)},
    optional={"vertices": st.one_of(planar_vertices, spherical_vertices), "base_s": number_or_any,
              "angle": number_or_any, "placement": json_values},
)


def write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI run, asserting the
    exit code is 0-3 and no warning was raised."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    assert not NON_FINITE.search(stdout.getvalue()), argv
    return code, stdout.getvalue(), stderr.getvalue()


def assert_clean_failure(argv, code, err):
    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def assert_finite_files(d, inputs):
    for name in os.listdir(d):
        path = os.path.join(d, name)
        if path not in inputs:
            with open(path, encoding="utf-8") as fh:
                assert not NON_FINITE.search(fh.read()), name


SETTINGS = dict(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@settings(max_examples=150, **SETTINGS)
@given(data=st.one_of(planar, spherical, digon, around, json_values))
def test_fuzzed_input_files_exit_cleanly(data):
    with tempfile.TemporaryDirectory() as d:
        out = functools.partial(os.path.join, d)
        fuzzed, square, octant = write(out("in.json"), data), write(out("square.json"), SQUARE), \
            write(out("octant.json"), OCTANT)
        runs = [
            ["validate", fuzzed],
            ["align", "--a", fuzzed, "--b", square, "--out", out("align.json"), "--svg", out("align.svg")],
            ["combine", "--a", fuzzed, "--b", square, "--out", out("combine.json")],
            ["pogorelov", "--a", fuzzed, "--b", octant, "--out", out("pogorelov.json")],
            ["cone-combine", "--a", fuzzed, "--b", octant, "--out", out("cone.json")],
            # the link paired with itself: the runs that can succeed
            ["pogorelov", "--a", fuzzed, "--b", fuzzed, "--out", out("pogorelov-self.json")],
            ["cone-combine", "--a", fuzzed, "--b", fuzzed, "--position", "--out", out("cone-self.json")],
        ]
        for argv in runs:
            code, _, err = run_cli(argv)
            assert_clean_failure(argv, code, err)
        assert_finite_files(d, (fuzzed, square, octant))


# nested far deeper than the decoder's recursion limit, which the bounded
# strategies above never reach: at the top level and inside the vertices
DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("text", [DEEP, '{"type": "planar_polygon", "vertices": ' + DEEP + "}"],
                         ids=["top level", "vertices"])
def test_deeply_nested_input_file_exits_cleanly(tmp_path, text):
    deep, square = tmp_path / "deep.json", write(tmp_path / "square.json", SQUARE)
    deep.write_text(text)
    for argv in (["validate", str(deep)], ["align", "--a", str(deep), "--b", str(square)]):
        code, _, err = run_cli(argv)
        assert code == 1, argv
        assert_clean_failure(argv, code, err)


number_texts = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", repr(math.pi), "1e-300", "-1", "1e308"]),
    st.floats(-4.0, 4.0).map(repr),
)
valid_angles = st.floats(0.05, 3.1).map(repr)
valid_ladders = st.lists(st.floats(1e-3, 0.7), min_size=1, max_size=3, unique=True).map(
    lambda depths: ",".join(repr(e) for e in sorted(depths, reverse=True)))
ladders = st.one_of(
    valid_ladders,
    valid_ladders,
    st.sampled_from(["", ",", " ", "abc", "0.2,,0.1", "0.2;0.1", "0.1,0.2", "0.2,0.2"]),
    st.lists(st.one_of(number_texts, st.floats(1e-300, 0.8).map(repr)), min_size=1, max_size=3).map(",".join),
)
angles = st.one_of(valid_angles, valid_angles, number_texts)


@settings(max_examples=60, **SETTINGS)
@given(angle1=angles, angle2=angles, ladder=ladders)
def test_fuzzed_digon_arguments_exit_cleanly(angle1, angle2, ladder):
    with tempfile.TemporaryDirectory() as d:
        argv = ["digon", f"--angle1={angle1}", f"--angle2={angle2}", f"--ladder={ladder}",
                "--out", os.path.join(d, "digon.json")]
        code, _, err = run_cli(argv)
        assert_clean_failure(argv, code, err)
        assert_finite_files(d, ())


@settings(max_examples=80, **SETTINGS)
@given(kind=st.sampled_from(["planar", "cone"]), trials=st.one_of(st.integers(1, 3), st.integers(-1, 0)),
       seed=st.integers(-1, 50), min_vertices=st.one_of(st.integers(3, 6), st.integers(1, 2)),
       max_vertices=st.one_of(st.integers(3, 10), st.just(10_001)),
       replay=st.one_of(st.none(), st.integers(-1, 3)))
def test_fuzzed_suite_arguments_exit_cleanly(kind, trials, seed, min_vertices, max_vertices, replay):
    with tempfile.TemporaryDirectory() as d:
        argv = ["suite", kind, f"--trials={trials}", f"--seed={seed}", f"--min-vertices={min_vertices}",
                f"--max-vertices={max_vertices}", "--report", os.path.join(d, "report.jsonl")]
        if replay is not None:
            argv.append(f"--replay={replay}")
        code, out, err = run_cli(argv)
        if code == 2 and not err:
            # failed trials are a result: the printed report says so
            report = json.loads(out)
            assert report["failures"] > 0 if replay is None else not report["passed"], argv
        else:
            assert_clean_failure(argv, code, err)
        assert_finite_files(d, ())


@pytest.mark.parametrize("generate, count, match", [
    pytest.param(generate, count, "MAX_SAMPLES", id=f"{name}-{count}")
    for count in (MAX_SAMPLES + 1, 10**12)
    for name, generate in (
        ("link", lambda rng, n: random_convex_link(rng, 3.0, n_points=n)),
        ("polygon", lambda rng, n: random_convex_polygon(rng, 3, n)),
    )
] + [
    pytest.param(lambda rng, n: random_convex_polygon(rng, *n), (least, most), "min_vertices",
                 id=f"polygon-min-{least}-max-{most}")
    for least, most in ((10, 5), (-5, 3), (2.5, 8), (2, 8), (3.0, 8))
] + [
    pytest.param(lambda rng, n: random_convex_polygon(rng, 3, n), 8.5, "max_vertices must be an integer",
                 id="polygon-max-8.5"),
    pytest.param(lambda rng, n: random_convex_link(rng, 3.0, n_points=n), 12.5, "n_points must be an integer",
                 id="link-12.5"),
])
def test_generators_refuse_a_point_count_past_the_cap(generate, count, match):
    # 10**12 points would ask for TiB arrays; the count is refused first.  So
    # is a least count outside [3, max_vertices] or not an integer, which
    # numpy's draw refused with its own message ("low >= high", "negative
    # dimensions") or, for a fraction, took silently, and a fractional
    # greatest count: 8.5 drew hulls of up to 9 points, 12.5 failed in numpy
    with pytest.raises(ValueError, match=match):
        generate(trial_rng(0, 0), count)


@pytest.mark.parametrize("target", ["3.0", None], ids=["text", "none"])
def test_link_generator_refuses_a_target_length_that_is_not_a_number(target):
    # a bare comparison ended these in Python's TypeError
    with pytest.raises(ValueError, match="target link length must be a real number"):
        random_convex_link(trial_rng(0, 0), target)


@pytest.mark.parametrize("base", [
    pytest.param(lambda square: build_polygon(square.vertices, base_s="x"), id="build-text"),
    pytest.param(lambda square: build_polygon(square.vertices, base_s=None), id="build-none"),
    pytest.param(lambda square: square.with_base("1"), id="with-base-text"),
    pytest.param(lambda square: square.with_base(math.inf), id="with-base-inf"),
    pytest.param(lambda square: build_spherical_polygon(np.eye(3), base_s="x"), id="sphere-text"),
    # a collinear vertex: the merge shifted the base by a subtraction first
    pytest.param(lambda square: build_polygon(SQUARE_WITH_COLLINEAR, base_s="x"), id="collinear-text"),
    pytest.param(lambda square: build_polygon(SQUARE_WITH_COLLINEAR, base_s=None), id="collinear-none"),
    pytest.param(lambda square: build_spherical_polygon(OCTANT_WITH_COLLINEAR, base_s="x"),
                 id="sphere-collinear-text"),
])
def test_a_base_position_that_is_not_a_number_is_refused(base):
    # the in-range comparison of the base reduction ended all but the
    # infinite base in Python's TypeError; that one it refused already.  With
    # a collinear vertex, the merge's shift of the base ended in TypeError
    # before the reduction ran; the builders now refuse the base first
    square = build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match=r"^base_s must be a finite real number; got "):
        base(square)


# a square and an octant, each with one vertex on an edge, which the builders merge away
SQUARE_WITH_COLLINEAR = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
OCTANT_WITH_COLLINEAR = [(1.0, 0.0, 0.0), (math.sqrt(0.5), math.sqrt(0.5), 0.0), (0.0, 1.0, 0.0),
                         (0.0, 0.0, 1.0)]


def test_the_collinear_cases_merge_with_a_number_base():
    # the refusals above are the base's, not the shapes': with a number base both build
    assert build_polygon(SQUARE_WITH_COLLINEAR, base_s=0.25).n_vertices == 4
    assert build_spherical_polygon(OCTANT_WITH_COLLINEAR, base_s=0.25).n_vertices == 3


@pytest.mark.parametrize("center", [(math.inf, 0.0), (0.0, math.nan), (0.5,), None, (0, 0, 0), [[0.0, 0.0]], "ab"],
                         ids=["inf", "nan", "one", "none", "three", "nested", "text"])
def test_dilation_refuses_a_centre_that_is_not_two_finite_coordinates(center):
    # checked before any arithmetic: an infinite centre used to warn (an error
    # under -W error), (0.5,) to broadcast to (0.5, 0.5), None to fail as
    # "vertices must be finite" and (0, 0, 0) with numpy's broadcast error
    square = build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match="center must be 2 finite coordinates"):
        dilate_to_perimeter(square, 8.0, center)
