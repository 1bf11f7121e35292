"""Randomized verification suites with deterministic, replayable trials.

Each trial derives its own RNG from SHA-256 of (master seed, trial index),
so reports are byte-identical across runs and any failing trial can be
replayed standalone from its index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .combination import (
    bending_check,
    combine_aligned,
    make_pair,
    vertex_events,
)
from .cones import cone_from_link, position_and_combine
from .errors import AlignmentNotFound, GeometryError, PositioningNotFound
from .geometry import TAU, convex_hull_2d
from .planar import PlanarPolygon, build_polygon, dilate_to_perimeter
from .spherical import LINK_TARGET_CEILING, LINK_TARGET_FLOOR, random_convex_link
from .tolerances import EXTERIOR_SUM_TOL, GAUSS_BONNET_TOL, MIN_EXTERIOR_TOL, VERTEX_ANGLE_TOL

# Bounds on a suite's size: a run keeps every trial's report in memory.
MAX_TRIALS = 100_000
MAX_VERTICES = 10_000


@dataclass(frozen=True)
class SuiteConfig:
    """Parameters of a randomized suite run."""

    trials: int
    seed: int
    min_vertices: int = 3
    max_vertices: int = 30
    target_link_length: tuple = (0.5, TAU - 0.5)

    def validate(self) -> None:
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, MAX_TRIALS = {MAX_TRIALS}]")
        if self.min_vertices < 3:
            raise ValueError("min_vertices must be >= 3")
        if not self.min_vertices <= self.max_vertices <= MAX_VERTICES:
            raise ValueError(f"max_vertices must lie in [min_vertices, MAX_VERTICES = {MAX_VERTICES}]")
        lo, hi = self.target_link_length
        if not (LINK_TARGET_FLOOR <= lo < hi < LINK_TARGET_CEILING):
            raise ValueError(
                "target_link_length must lie inside [LINK_TARGET_FLOOR = "
                f"{LINK_TARGET_FLOOR:.3g}, LINK_TARGET_CEILING = {LINK_TARGET_CEILING:.6g})"
            )


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one trial; ``passed`` means every sub-check passed."""

    trial_id: int
    inputs_digest: str
    margin: float | None
    certificate: dict | None
    bending_residual: float | None
    passed: bool
    failure_reason: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator, stable across processes."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


def random_convex_polygon(
    rng: np.random.Generator, min_vertices: int, max_vertices: int
) -> PlanarPolygon:
    """Convex hull of k uniform points in the unit disk, k in the given range,
    from its lexicographically least vertex (:func:`geometry.convex_hull_2d`).
    A ``max_vertices`` below 3, whose hulls have no 3 corners, raises ValueError."""
    if max_vertices < 3:
        raise ValueError(f"max_vertices must be >= 3; got {max_vertices!r}")
    while True:
        k = int(rng.integers(min_vertices, max_vertices + 1))
        r = np.sqrt(rng.uniform(0.0, 1.0, size=k))
        phi = rng.uniform(0.0, TAU, size=k)
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        hull = convex_hull_2d(pts)
        if len(hull) < 3:
            continue
        try:
            poly = build_polygon(pts[hull])
        except GeometryError:
            continue
        return poly.with_base(rng.uniform(0.0, poly.perimeter))


def planar_trial(config: SuiteConfig, index: int) -> TrialReport:
    """Generate a random pair, align, combine, and check every certificate."""
    rng = trial_rng(config.seed, index)
    f1 = random_convex_polygon(rng, config.min_vertices, config.max_vertices)
    f2 = random_convex_polygon(rng, config.min_vertices, config.max_vertices)
    f2 = dilate_to_perimeter(f2, f1.perimeter, (0.0, 0.0))
    digest = _digest_arrays(f1.vertices, [f1.base_s], f2.vertices, [f2.base_s])
    pair = make_pair(f1, f2)
    try:
        result, combined = combine_aligned(pair)
    except AlignmentNotFound as exc:
        return TrialReport(index, digest, None, None, None, False, f"alignment: {exc}")

    cert = combined.certificate
    residual = bending_check(combined)
    reasons = []
    if not result.margin > 0.0:
        reasons.append("nonpositive margin")
    if not cert.min_exterior >= -MIN_EXTERIOR_TOL:
        reasons.append(f"min exterior {cert.min_exterior:.3e}")
    if not abs(cert.exterior_sum - TAU) <= EXTERIOR_SUM_TOL:
        reasons.append(f"exterior sum off by {cert.exterior_sum - TAU:.3e}")
    worst_law = vertex_events(combined).law_error()
    if worst_law > VERTEX_ANGLE_TOL:
        reasons.append(f"vertex-angle law off by {worst_law:.3e}")
    return TrialReport(
        trial_id=index,
        inputs_digest=digest,
        margin=result.margin,
        certificate=cert.summary() | {"vertex_angle_law_max_error": worst_law},
        bending_residual=residual,
        passed=not reasons,
        failure_reason="; ".join(reasons) or None,
    )


def cone_trial(config: SuiteConfig, index: int) -> TrialReport:
    """Generate an isometric cone pair, position, combine, and check the certificate."""
    rng = trial_rng(config.seed, index)
    lo, hi = config.target_link_length
    target = rng.uniform(lo, hi)
    n_points = max(12, config.max_vertices)
    link1 = random_convex_link(rng, target, n_points=n_points)
    link2 = random_convex_link(rng, target, n_points=n_points)
    digest = _digest_arrays(link1.vertices, [link1.base_s], link2.vertices, [link2.base_s])
    try:
        report = position_and_combine(cone_from_link(link1), cone_from_link(link2))
    except (PositioningNotFound, GeometryError) as exc:
        return TrialReport(index, digest, None, None, None, False, f"positioning: {exc}")

    link = report.combined.link
    reasons = []
    if not link.min_turning() >= -MIN_EXTERIOR_TOL:
        reasons.append(f"min turning {link.min_turning():.3e}")
    if not link.gauss_bonnet_residual <= GAUSS_BONNET_TOL:
        reasons.append(f"Gauss-Bonnet residual {link.gauss_bonnet_residual:.3e}")
    certificate = {
        "target_length": target,
        "psi": report.psi,
        "sigma0": report.sigma0,
        "min_turning": link.min_turning(),
        "gauss_bonnet_residual": link.gauss_bonnet_residual,
        "combined_perimeter": link.perimeter,
    }
    return TrialReport(
        trial_id=index,
        inputs_digest=digest,
        margin=report.margin,
        certificate=certificate,
        bending_residual=None,
        passed=not reasons,
        failure_reason="; ".join(reasons) or None,
    )


def _run_suite(config: SuiteConfig, trial_fn, kind: str, report_path: str | None) -> dict:
    config.validate()
    reports = [trial_fn(config, i) for i in range(config.trials)]
    passes = sum(r.passed for r in reports)
    aggregate = {
        "suite": kind,
        "trials": config.trials,
        "seed": config.seed,
        "passes": passes,
        "failures": config.trials - passes,
        "pass_rate": passes / config.trials,
        "failed_trials": [r.trial_id for r in reports if not r.passed],
    }
    if report_path is not None:
        # JSON has no NaN: a row holding one raises before the file is opened
        rows = [r.to_dict() for r in reports] + [{"aggregate": aggregate}]
        text = "".join(json.dumps(row, sort_keys=True, allow_nan=False) + "\n" for row in rows)
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    aggregate["reports"] = reports
    return aggregate


def run_planar_suite(config: SuiteConfig, report_path: str | None = None) -> dict:
    """Randomized end-to-end check that aligned combinations are convex."""
    return _run_suite(config, planar_trial, "planar", report_path)


def run_cone_suite(config: SuiteConfig, report_path: str | None = None) -> dict:
    """Randomized end-to-end check of the cone positioning pipeline."""
    return _run_suite(config, cone_trial, "cone", report_path)


def replay_trial(config: SuiteConfig, kind: str, trial_id: int) -> TrialReport:
    """Re-run a single trial of a suite from its index.

    Raises:
        ValueError: if ``kind`` is not "planar" or "cone", or the index is
            outside the configured trials.
    """
    trials = {"planar": planar_trial, "cone": cone_trial}
    if kind not in trials:
        raise ValueError(f"unknown trial kind {kind!r}; expected 'planar' or 'cone'")
    config.validate()
    if not 0 <= trial_id < config.trials:
        raise ValueError(f"trial_id {trial_id} outside [0, {config.trials})")
    return trials[kind](config, trial_id)
