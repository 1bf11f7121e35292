"""Isometric combination of closed convex curves and convex cones.

Construct convex polygonal curves (planar or spherical), align equal-length
pairs so the angle between corresponding right semitangents stays below pi,
form their pointwise-sum combination with a convexity certificate, map
spherical pairs to the plane with the pairwise Pogorelov transform, and
position convex cones so their combination is again a convex cone.

Each exported name resolves on first access (PEP 562): ``import isocomb``
loads no submodule, and ``isocomb.align`` imports ``isocomb.combination``
and returns its ``align``, the very object that module holds.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "combination": (
        "AlignmentResult", "CombinedCurve", "MarkedPair", "VertexEvents", "align", "apply_alignment",
        "bending_check", "combine", "combine_aligned", "combine_at", "make_pair",
        "semitangent_condition", "vertex_events",
    ),
    "cones": (
        "ConvexCone3", "Digon", "DigonCombinationReport", "PogorelovImage", "PositioningReport",
        "combine_cones", "combine_dihedral", "cone_from_link", "image_polygons", "link_hausdorff",
        "make_digon", "pogorelov_forward", "pogorelov_identity_check", "position_and_combine",
        "transform_link_pair", "truncate_digons",
    ),
    "geometry": ("Angle", "RigidMotion2", "Vec2", "apply_motion", "compose", "norm_angle"),
    "planar": (
        "ConvexityCertificate", "PlanarPolygon", "build_polygon", "convexity_certificate",
        "dilate_to_perimeter", "point_at",
    ),
    "spherical": (
        "SphericalPolygon", "build_spherical_polygon", "centroid_direction", "random_convex_link",
    ),
    "suite": ("SuiteConfig", "TrialReport", "run_cone_suite", "run_planar_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
