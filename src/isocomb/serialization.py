"""JSON schemas for curves, digons, and alignment results.

Planar polygon:   {"type": "planar_polygon", "vertices": [[x, y], ...], "base_s": s}
Spherical polygon:{"type": "spherical_polygon", "vertices": [[x0, x1, x2], ...], "base_s": s}
Digon:            {"type": "digon", "angle": a, "placement": [rx, ry, rz]}  (rotation vector)

Alignment result:
  {"alignment": {"sigma0": ..., "rotation": ..., "translation": [x, y], "margin": ...} | null,
   "combined": {"vertices": [[x, y], ...], "certificate": {...}},
   "bending_residual": ...}
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .combination import AlignmentResult, CombinedCurve
from .cones import Digon, make_digon
from .geometry import matrix_to_rotvec, rotvec_to_matrix
from .planar import PlanarPolygon, build_polygon
from .spherical import SphericalPolygon, build_spherical_polygon


def planar_to_dict(poly: PlanarPolygon) -> dict:
    return {
        "type": "planar_polygon",
        "vertices": poly.vertices.tolist(),
        "base_s": poly.base_s,
    }


def spherical_to_dict(poly: SphericalPolygon) -> dict:
    return {
        "type": "spherical_polygon",
        "vertices": poly.vertices.tolist(),
        "base_s": poly.base_s,
    }


def digon_to_dict(digon: Digon) -> dict:
    return {
        "type": "digon",
        "angle": digon.angle,
        "placement": matrix_to_rotvec(digon.placement).tolist(),
    }


def _required(data: dict, key: str) -> Any:
    if key not in data:
        raise ValueError(f"{data['type']} object has no {key!r} field")
    return data[key]


def object_from_dict(data: dict) -> Any:
    """Construct (and fully validate) a geometry object from its JSON dict.

    Raises:
        ValueError: a required field is missing (the message names it).
    """
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("expected an object with a 'type' field")
    kind = data["type"]
    if kind == "planar_polygon":
        return build_polygon(_required(data, "vertices"), base_s=float(data.get("base_s", 0.0)))
    if kind == "spherical_polygon":
        return build_spherical_polygon(_required(data, "vertices"), base_s=float(data.get("base_s", 0.0)))
    if kind == "digon":
        placement = data.get("placement")
        matrix = None
        if placement is not None:
            rotvec = np.asarray(placement, dtype=float)
            if rotvec.shape != (3,):
                raise ValueError(f"digon placement must be a rotation vector [rx, ry, rz]; got {placement!r}")
            matrix = rotvec_to_matrix(rotvec)
        return make_digon(float(_required(data, "angle")), matrix)
    raise ValueError(f"unknown object type {kind!r}")


def load_object(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return object_from_dict(json.load(fh))


def dump_json(data: dict) -> str:
    """Serialize with full float precision and sorted keys.

    Raises:
        ValueError: a value is NaN or infinite, which JSON cannot hold.
    """
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def alignment_result_to_dict(
    alignment: AlignmentResult | None,
    combined: CombinedCurve,
    bending_residual: float,
) -> dict:
    cert = combined.certificate
    return {
        "alignment": None
        if alignment is None
        else {
            "sigma0": alignment.sigma0,
            "rotation": alignment.motion.rotation,
            "translation": [alignment.motion.translation[0], alignment.motion.translation[1]],
            "margin": alignment.margin,
        },
        "combined": {
            "vertices": np.asarray(combined.curve).tolist(),
            "certificate": cert.summary()
            | {"interior_angles": np.asarray(cert.interior_angles).tolist()},
        },
        "bending_residual": bending_residual,
    }
