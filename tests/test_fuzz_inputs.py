"""Bounded fuzz of the JSON inputs of every file-reading subcommand.

Generated objects sit in and around the three schemas (planar polygon,
spherical polygon, digon): any JSON value in any field, numbers that are
NaN, infinite or too large for a float, ragged vertex rows, and shapes
that are valid or nearly so, at most 12 vertices.  Every run must end in
an exit code of 0-3, with exactly one ``error:`` line when it fails, no
warning (the command line would print it), and no NaN or Infinity token
in what it prints or writes.
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

from hypothesis import HealthCheck, given, settings, strategies as st

from isocomb import cli

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
def cap_links(draw):
    """3-12 points on a circle about +x0 on the sphere, counterclockwise."""
    phis = sorted(math.radians(a) for a in draw(st.lists(st.integers(0, 359), min_size=3, max_size=12, unique=True)))
    h = draw(st.floats(0.0, math.pi))
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


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
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
        ]
        for argv in runs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv)
            assert code in (0, 1, 2, 3), argv
            assert not caught, (argv, [str(w.message) for w in caught])
            err = stderr.getvalue()
            if code != 0:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert not NON_FINITE.search(stdout.getvalue()), argv
        for name in os.listdir(d):
            path = out(name)
            if path not in (fuzzed, square, octant):
                with open(path, encoding="utf-8") as fh:
                    assert not NON_FINITE.search(fh.read()), name
