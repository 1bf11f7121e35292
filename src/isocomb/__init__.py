"""Isometric combination of closed convex curves and convex cones.

Construct convex polygonal curves (planar or spherical), align equal-length
pairs so the angle between corresponding right semitangents stays below pi,
form their pointwise-sum combination with a convexity certificate, map
spherical pairs to the plane with the pairwise Pogorelov transform, and
position convex cones so their combination is again a convex cone.
"""

from .combination import (
    AlignmentResult,
    CombinedCurve,
    MarkedPair,
    VertexEvents,
    align,
    apply_alignment,
    bending_check,
    combine,
    combine_aligned,
    combine_at,
    make_pair,
    semitangent_condition,
    vertex_events,
)
from .cones import (
    ConvexCone3,
    Digon,
    DigonCombinationReport,
    PogorelovImage,
    PositioningReport,
    combine_cones,
    combine_dihedral,
    cone_from_link,
    image_polygons,
    link_hausdorff,
    make_digon,
    pogorelov_forward,
    pogorelov_identity_check,
    position_and_combine,
    transform_link_pair,
    truncate_digons,
)
from .geometry import (
    Angle,
    RigidMotion2,
    Vec2,
    apply_motion,
    compose,
    norm_angle,
)
from .planar import (
    ConvexityCertificate,
    PlanarPolygon,
    build_polygon,
    convexity_certificate,
    dilate_to_perimeter,
    point_at,
)
from .spherical import (
    SphericalPolygon,
    build_spherical_polygon,
    centroid_direction,
    random_convex_link,
)
from .suite import SuiteConfig, TrialReport, run_cone_suite, run_planar_suite

__version__ = "0.1.0"
