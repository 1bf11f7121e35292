"""Command-line interface.

Exit codes: 0 success, 1 validation failure (bad geometry, schema, or
config), 2 algorithmic failure (no alignment / no positioning), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialization as ser
from .errors import AlignmentNotFound, GeometryError, InvalidInput, PositioningNotFound
from .planar import PlanarPolygon
from .spherical import SphericalPolygon

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ALGORITHM = 2
EXIT_IO = 3


def _load(path: str, expected: type | None = None):
    obj = ser.load_object(path)
    if expected is not None and not isinstance(obj, expected):
        raise InvalidInput(f"{path}: expected a {expected.__name__}")
    return obj


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_validate(args) -> int:
    obj = _load(args.file)
    kind = type(obj).__name__
    print(f"{args.file}: valid {kind}")
    return EXIT_OK


def _planar_pair(args):
    from .combination import make_pair
    f1 = _load(args.a, PlanarPolygon)
    f2 = _load(args.b, PlanarPolygon)
    return make_pair(f1, f2)


def _emit_combination(args, alignment, combined) -> None:
    from .combination import bending_check
    result = ser.alignment_result_to_dict(alignment, combined, bending_check(combined))
    _write_text(args.out, ser.dump_json(result))
    if args.svg is not None:
        from .geometry import apply_motion_many
        from .svgplot import render_svg
        pair = combined.pair
        curves = [
            ("F1", pair.F1.vertices),
            ("F2", apply_motion_many(pair.motion, pair.F2.vertices)),
            ("combined", combined.curve),
        ]
        _write_text(args.svg, render_svg(curves))


def _cmd_align(args) -> int:
    from .combination import combine_aligned
    pair = _planar_pair(args)
    alignment, combined = combine_aligned(pair)
    _emit_combination(args, alignment, combined)
    return EXIT_OK


def _cmd_combine(args) -> int:
    from .combination import combine
    pair = _planar_pair(args)
    combined = combine(pair)
    _emit_combination(args, None, combined)
    return EXIT_OK


def _cmd_pogorelov(args) -> int:
    from .cones import image_polygons, transform_link_pair
    m1 = _load(args.a, SphericalPolygon)
    m2 = _load(args.b, SphericalPolygon)
    image = transform_link_pair(m1, m2)
    planar1, planar2 = image_polygons(image)
    out = {
        "planar1": ser.planar_to_dict(planar1),
        "planar2": ser.planar_to_dict(planar2),
        "x0_sums": image.x0_sums.tolist(),
        "projections": image.projections.tolist(),
        "positions": image.positions.tolist(),
    }
    _write_text(args.out, ser.dump_json(out))
    return EXIT_OK


def _cmd_cone_combine(args) -> int:
    from .cones import combine_cones, cone_from_link, position_and_combine
    k1 = cone_from_link(_load(args.a, SphericalPolygon))
    k2 = cone_from_link(_load(args.b, SphericalPolygon))
    positioned = {}
    if args.position:
        report = position_and_combine(k1, k2)
        link = report.combined.link
        positioned = {"psi": report.psi, "sigma0": report.sigma0, "margin": report.margin}
    else:
        link = combine_cones(k1, k2).link
    out = {
        "combined": ser.spherical_to_dict(link),
        "min_turning": link.min_turning(),
        "gauss_bonnet_residual": link.gauss_bonnet_residual,
        **positioned,
    }
    _write_text(args.out, ser.dump_json(out))
    return EXIT_OK


def _cmd_digon(args) -> int:
    from .cones import combine_dihedral, make_digon
    ladder = [float(x) for x in args.ladder.split(",") if x.strip()]
    report = combine_dihedral(make_digon(args.angle1), make_digon(args.angle2), ladder)
    out = {
        "levels": [
            {
                "eps1": lv.eps1,
                "eps2": lv.eps2,
                "perimeter": lv.perimeter,
                "psi": lv.psi,
                "sigma0": lv.sigma0,
                "margin": lv.margin,
                "min_turning": lv.min_turning,
                "gauss_bonnet_residual": lv.gauss_bonnet_residual,
                "combined": ser.spherical_to_dict(lv.combined_link),
            }
            for lv in report.levels
        ],
        "hausdorff": report.hausdorff,
    }
    _write_text(args.out, ser.dump_json(out))
    return EXIT_OK


def _cmd_suite(args) -> int:
    from .suite import SuiteConfig, replay_trial, run_cone_suite, run_planar_suite
    config = SuiteConfig(
        trials=args.trials,
        seed=args.seed,
        min_vertices=args.min_vertices,
        max_vertices=args.max_vertices,
    )
    if args.replay is not None:
        report = replay_trial(config, args.kind, args.replay)
        print(json.dumps(report.to_dict(), sort_keys=True, allow_nan=False))
        return EXIT_OK if report.passed else EXIT_ALGORITHM
    runner = run_planar_suite if args.kind == "planar" else run_cone_suite
    aggregate = runner(config, report_path=args.report)
    summary = {k: v for k, v in aggregate.items() if k != "reports"}
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return EXIT_OK if aggregate["failures"] == 0 else EXIT_ALGORITHM


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocomb",
        description="Isometric combination of convex curves and cones, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a geometry JSON file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    for name, fn, help_text in (
        ("align", _cmd_align, "align two planar curves, then combine"),
        ("combine", _cmd_combine, "combine two planar curves without aligning"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--svg", default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("pogorelov", help="transform a spherical link pair to the plane")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_pogorelov)

    p = sub.add_parser("cone-combine", help="combine two convex cones")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--position", action="store_true", help="search for a convex positioning first")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_cone_combine)

    p = sub.add_parser("digon", help="truncation ladder for a pair of dihedral angles")
    p.add_argument("--angle1", type=float, required=True)
    p.add_argument("--angle2", type=float, required=True)
    p.add_argument("--ladder", required=True, help="comma-separated decreasing cut depths")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_digon)

    p = sub.add_parser("suite", help="run a randomized verification suite")
    p.add_argument("kind", choices=["planar", "cone"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-vertices", dest="min_vertices", type=int, default=3,
                   help="least hull point count of a planar trial; a cone suite neither reads nor checks it")
    p.add_argument("--max-vertices", dest="max_vertices", type=int, default=30,
                   help="largest hull point count of a planar trial; a cone trial's links "
                        "are hulls of max(12, this) cap points")
    p.add_argument("--report", default=None)
    p.add_argument("--replay", type=int, default=None, help="re-run a single trial by id")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (AlignmentNotFound, PositioningNotFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM
    except (GeometryError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
