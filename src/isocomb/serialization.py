"""JSON schemas for curves, digons, and alignment results.

Planar polygon:   {"type": "planar_polygon", "vertices": [[x, y], ...], "base_s": s}
Spherical polygon:{"type": "spherical_polygon", "vertices": [[x0, x1, x2], ...], "base_s": s}
Digon:            {"type": "digon", "angle": a}  (an old file's "placement" is refused)

Alignment result:
  {"alignment": {"sigma0": ..., "rotation": ..., "translation": [x, y], "margin": ...} | null,
   "combined": {"vertices": [[x, y], ...], "certificate": {...}},
   "bending_residual": ...}
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import InvalidInput
from .planar import PlanarPolygon, build_polygon
from .spherical import SphericalPolygon, build_spherical_polygon

if TYPE_CHECKING:
    from .combination import AlignmentResult, CombinedCurve


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


def _required(data: dict, key: str) -> Any:
    if key not in data:
        raise InvalidInput(f"{data['type']} object has no {key!r} field")
    return data[key]


def _number(value: Any, key: str) -> float:
    """The float of a JSON number; a bool, str, null, list or object is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInput(f"{key} must be a JSON number; got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidInput(f"{key} holds an integer too large for a float") from None


def _vertices(data: dict) -> list[list[float]]:
    rows = _required(data, "vertices")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InvalidInput(f"vertices must be a list of coordinate rows; got {rows!r}")
    if len({len(row) for row in rows}) > 1:
        raise InvalidInput("vertices rows differ in length")
    return [[_number(v, "vertices") for v in row] for row in rows]


def object_from_dict(data: dict) -> Any:
    """Construct (and fully validate) a geometry object from its JSON dict.

    Raises:
        InvalidInput: a field is missing or not a JSON number, or a digon
            has a placement (the message names the field).
    """
    if not isinstance(data, dict) or "type" not in data:
        raise InvalidInput("expected an object with a 'type' field")
    kind = data["type"]
    if kind == "planar_polygon":
        return build_polygon(_vertices(data), base_s=_number(data.get("base_s", 0.0), "base_s"))
    if kind == "spherical_polygon":
        return build_spherical_polygon(_vertices(data), base_s=_number(data.get("base_s", 0.0), "base_s"))
    if kind == "digon":
        from .cones import make_digon
        angle = _number(_required(data, "angle"), "angle")
        if "placement" in data:
            raise InvalidInput("digon 'placement' is not read: a digon file holds its angle alone")
        return make_digon(angle)
    raise InvalidInput(f"unknown object type {kind!r}")


def load_object(path: str) -> Any:
    """The validated object in the JSON file at ``path``; JSON nested too
    deeply for the decoder is an ``InvalidInput`` too."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise InvalidInput(f"{path}: JSON nested too deeply to decode") from None
    return object_from_dict(data)


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
