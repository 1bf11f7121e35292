"""The benchmark's workloads: seeded inputs, one op, and its correctness gate.

Every op is checked at the acceptance tolerances of the package's suites.
A workload calls isocomb through module attributes (``suite.run_planar_suite``
and not a from-import), so the traced run's rebinding reaches its calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import select
import subprocess
import sys

import numpy as np

from isocomb import cli, combination, cones, planar, serialization, spherical, suite
from tracing import parse_importtime

TAU = 2.0 * math.pi
EXTERIOR_SUM_TOL = 1e-8
VERTEX_LAW_TOL = 1e-9
MIN_TURNING_TOL = 1e-9
GAUSS_BONNET_TOL = 1e-8
CHILD_TIMEOUT_S = 120.0


def support_polygon(rng: np.random.Generator, n: int) -> planar.PlanarPolygon:
    """Dense convex n-gon from a random trigonometric support function h.

    Frequencies 2..5 with amplitudes at most 0.1 / (k^2 - 1) keep
    h + h'' >= 1 - 4 * 0.1 * sqrt(2) > 0, so the curve is strictly convex.
    The sampling phase and the base point are random.
    """
    t = rng.uniform(0.0, TAU) + np.arange(n) * (TAU / n)
    h = np.ones(n)
    hp = np.zeros(n)
    for k in (2, 3, 4, 5):
        a, b = rng.uniform(-1.0, 1.0, size=2) * (0.1 / (k * k - 1))
        h += a * np.cos(k * t) + b * np.sin(k * t)
        hp += k * (b * np.cos(k * t) - a * np.sin(k * t))
    pts = np.column_stack([h * np.cos(t) - hp * np.sin(t), h * np.sin(t) + hp * np.cos(t)])
    poly = planar.build_polygon(pts)
    return poly.with_base(rng.uniform(0.0, poly.perimeter))


def planar_pair(rng: np.random.Generator, n: int) -> combination.MarkedPair:
    f1 = support_polygon(rng, n)
    f2 = planar.dilate_to_perimeter(support_polygon(rng, n), f1.perimeter, (0.0, 0.0))
    return combination.make_pair(f1, f2)


def link_pair(rng: np.random.Generator):
    target = rng.uniform(0.5, TAU - 0.5)
    return (spherical.random_convex_link(rng, target),
            spherical.random_convex_link(rng, target))


def planar_cert_failure(margin, cert: dict) -> str | None:
    if not (margin is not None and margin > 0.0):
        return f"margin {margin!r} not positive"
    if cert.get("is_convex") is not True:
        return "certificate not convex"
    if not abs(cert["exterior_sum"] - TAU) <= EXTERIOR_SUM_TOL:
        return f"exterior sum off by {cert['exterior_sum'] - TAU:.3e}"
    return None


def cone_cert_failure(margin, min_turning, gb_residual) -> str | None:
    if not (margin is not None and margin > 0.0):
        return f"margin {margin!r} not positive"
    if not min_turning >= -MIN_TURNING_TOL:
        return f"min turning {min_turning:.3e}"
    if not gb_residual <= GAUSS_BONNET_TOL:
        return f"Gauss-Bonnet residual {gb_residual:.3e}"
    return None


class Workload:
    """A closed loop of ops over seeded inputs.

    ``op`` is what the untraced run times; ``traced_op`` is what the traced
    run times under the wrappers (the same op, except for ``cli-cold``).
    Ops run in whole rounds of ``round_size`` so every run has the same mix.
    """

    name = ""
    round_size = 1
    min_memory_ops = 1

    def __init__(self, seed: int, workdir: str, env: dict):
        self.seed = seed
        self.workdir = workdir
        self.env = env              # environment of any child process

    def setup(self) -> None:
        """Generate the inputs; called once, before the warm-up op."""

    def op(self, i: int):
        raise NotImplementedError

    def traced_op(self, i: int):
        return self.op(i)

    def check(self, result) -> str | None:
        """Failure reason, or None when every gate passes."""
        raise NotImplementedError

    def fingerprint(self, result) -> str:
        """Deterministic text of the op's output, compared traced vs untraced."""
        raise NotImplementedError

    def peak_rss_kib(self) -> int:
        """Peak resident set of the process doing the work, in KiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _SuiteWorkload(Workload):
    """One op is a one-trial suite run with its own seed."""

    def check(self, aggregate) -> str | None:
        report = aggregate["reports"][0]
        if aggregate["failures"] or not report.passed:
            return f"trial failed: {report.failure_reason}"
        return self.check_report(report)

    def fingerprint(self, aggregate) -> str:
        return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n"
                       for r in aggregate["reports"])

    def op_seed(self, i: int) -> int:
        return self.seed * 1_000_000 + i


class PlanarSuite(_SuiteWorkload):
    """A round is one trial per point count k = 8..200, repeated every round.

    Both polygons of the trial in slot j are hulls of ``VERTEX_COUNTS[j]``
    points: the suite's uniform 3..200 mix, stratified so every seed runs
    the same sizes.  The mix starts at 8 points because pairs of hulls
    with three to five vertices each sometimes combine into a non-convex
    curve despite a positive margin (about 1 in 70 triangle pairs), which
    would fail runs of this benchmark; that defect is open.  Repeating the
    round keeps the distinct trials of a run few, and the timed ones steady.
    """

    name = "planar-suite"
    VERTEX_COUNTS = tuple(range(8, 201))
    round_size = len(VERTEX_COUNTS)

    def op(self, i):
        j = i % self.round_size
        k = self.VERTEX_COUNTS[j]
        return suite.run_planar_suite(suite.SuiteConfig(
            trials=1, seed=self.op_seed(j), min_vertices=k, max_vertices=k))

    def check_report(self, report) -> str | None:
        cert = report.certificate
        failure = planar_cert_failure(report.margin, cert)
        if failure is None and not cert["vertex_angle_law_max_error"] <= VERTEX_LAW_TOL:
            failure = f"vertex-angle law off by {cert['vertex_angle_law_max_error']:.3e}"
        return failure


class ConeSuite(_SuiteWorkload):
    """Default-config cone trials, each with its own seed.

    The target link length of the suite's default range is stratified: op i
    draws it from stratum ``i % round_size`` of equal width, so every round
    covers the whole range once.
    """

    name = "cone-suite"
    round_size = 50
    TARGETS = suite.SuiteConfig(trials=1, seed=0).target_link_length   # the default range

    def op(self, i):
        lo, hi = self.TARGETS
        width = (hi - lo) / self.round_size
        j = i % self.round_size
        return suite.run_cone_suite(suite.SuiteConfig(
            trials=1, seed=self.op_seed(i),
            target_link_length=(lo + j * width, lo + (j + 1) * width)))

    def check_report(self, report) -> str | None:
        cert = report.certificate
        return cone_cert_failure(report.margin, cert["min_turning"],
                                 cert["gauss_bonnet_residual"])


class DensePairs(Workload):
    """Pre-generated dense pairs, planar and cone alternating.

    Planar sizes follow a fixed ladder so every seed runs the same sizes
    (peak memory is set by the largest); shapes and base points vary.
    A planar op aligns, combines and runs the bending check; it does not
    call ``vertex_events``, whose chord-based angles miss the 1e-9
    vertex-angle law on about a third of seeds at these sizes (an open
    defect).  ``vertex_events`` is timed and checked on ``planar-suite``.
    """

    name = "dense-pairs"
    SIZES = (1000, 2000, 1250, 1750, 1500)
    CONE_SUBDIVISIONS = 4096
    round_size = 2 * len(SIZES)
    min_memory_ops = 4          # reaches the 2000-vertex pair and two cone pairs

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for n in self.SIZES:
            self.inputs.append(("planar", planar_pair(rng, n)))
            link1, link2 = link_pair(rng)
            self.inputs.append(("cone", (cones.cone_from_link(link1), cones.cone_from_link(link2),
                                         link1.perimeter / self.CONE_SUBDIVISIONS)))

    def op(self, i):
        kind, data = self.inputs[i % len(self.inputs)]
        if kind == "planar":
            result, combined = combination.combine_aligned(data)
            return kind, result, combined, combination.bending_check(combined)
        k1, k2, max_step = data
        return kind, cones.position_and_combine(k1, k2, max_step=max_step)

    def check(self, out):
        if out[0] == "planar":
            _, result, combined, residual = out
            failure = planar_cert_failure(result.margin, combined.certificate.summary())
            if failure is None and not math.isfinite(residual):
                failure = f"bending residual {residual!r}"
            return failure
        report = out[1]
        link = report.combined.link
        return cone_cert_failure(report.margin, link.min_turning(), link.gauss_bonnet_residual)

    def fingerprint(self, out):
        if out[0] == "planar":
            _, result, combined, residual = out
            return repr((result.sigma0, result.margin, result.motion.rotation,
                         combined.certificate.exterior_sum, residual))
        report = out[1]
        return repr((report.psi, report.sigma0, report.margin, report.candidates_tried,
                     report.combined.link.perimeter))


def _write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def run_child(argv, env, out_path, err_path):
    """Run one process to completion; returns (exit code, max RSS in KiB).

    The child's own resource usage comes from ``wait4``, so processes
    started for other purposes never count toward the CLI's peak RSS.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    return proc.returncode, usage.ru_maxrss


class CliCold(Workload):
    """Sequential ``python -m isocomb.cli`` processes on seeded input files.

    The traced run times the same argv through ``isocomb.cli.main``
    in-process (a warm invocation) and compares its output bytes with a cold
    process run on the same inputs.
    """

    name = "cli-cold"
    COMMANDS = ("validate", "align", "cone-combine", "suite", "digon")
    round_size = len(COMMANDS)

    def __init__(self, seed, workdir, env):
        super().__init__(seed, workdir, env)
        self.child_rss_kib = []
        self.import_times = []

    def setup(self):
        rng = np.random.default_rng(self.seed)
        d = self.workdir
        pair = planar_pair(rng, 200)
        link1, link2 = link_pair(rng)
        self.files = {
            "poly_a": _write_json(os.path.join(d, "poly_a.json"), serialization.planar_to_dict(pair.F1)),
            "poly_b": _write_json(os.path.join(d, "poly_b.json"), serialization.planar_to_dict(pair.F2)),
            "link_a": _write_json(os.path.join(d, "link_a.json"), serialization.spherical_to_dict(link1)),
            "link_b": _write_json(os.path.join(d, "link_b.json"), serialization.spherical_to_dict(link2)),
        }
        self.angles = tuple(float(a) for a in rng.uniform(0.6, 2.4, size=2))
        for sub in ("cold", "warm"):
            os.makedirs(os.path.join(d, sub), exist_ok=True)

    def argv(self, i: int, sub: str):
        """(command, argv, output files) of op i writing into workdir/sub."""
        command, args, outs = self._argv(i, os.path.join(self.workdir, sub))
        for path in outs:
            if os.path.exists(path):
                os.remove(path)
        return command, args, outs

    def _argv(self, i, out):
        f = self.files
        command = self.COMMANDS[i % len(self.COMMANDS)]
        if command == "validate":
            return command, ["validate", f["poly_a"]], []
        if command == "align":
            outs = [os.path.join(out, "align.json"), os.path.join(out, "align.svg")]
            return command, ["align", "--a", f["poly_a"], "--b", f["poly_b"],
                             "--out", outs[0], "--svg", outs[1]], outs
        if command == "cone-combine":
            outs = [os.path.join(out, "cone.json")]
            return command, ["cone-combine", "--a", f["link_a"], "--b", f["link_b"],
                             "--position", "--out", outs[0]], outs
        if command == "suite":
            outs = [os.path.join(out, "suite.jsonl")]
            return command, ["suite", "planar", "--trials", "20", "--seed", str(self.seed),
                             "--report", outs[0]], outs
        outs = [os.path.join(out, "digon.json")]
        return command, ["digon", "--angle1", repr(self.angles[0]), "--angle2", repr(self.angles[1]),
                         "--ladder", "0.2,0.1,0.05,0.025", "--out", outs[0]], outs

    def cold(self, i: int, importtime: bool = False):
        command, args, outs = self.argv(i, "cold")
        flags = ["-X", "importtime"] if importtime else []
        stdout_path = os.path.join(self.workdir, "cold.stdout")
        stderr_path = os.path.join(self.workdir, "cold.stderr")
        code, rss = run_child([sys.executable, *flags, "-m", "isocomb.cli", *args],
                                 self.env, stdout_path, stderr_path)
        self.child_rss_kib.append(rss)
        with open(stdout_path, encoding="utf-8") as fh:
            stdout = fh.read()
        if importtime:
            with open(stderr_path, encoding="utf-8") as fh:
                self.import_times.append(parse_importtime(fh.read()))
        return command, code, stdout, outs

    def op(self, i):
        return self.cold(i)

    def peak_rss_kib(self) -> int:
        return max(self.child_rss_kib[1:])      # [0] is the warm-up process

    def traced_op(self, i):
        command, args, outs = self.argv(i, "warm")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(args)
        return command, code, buf.getvalue(), outs

    def check(self, out):
        command, code, stdout, outs = out
        if code != 0:
            return f"{command}: exit code {code}"
        try:
            if command == "validate":
                expected = f"{self.files['poly_a']}: valid PlanarPolygon\n"
                return None if stdout == expected else f"validate printed {stdout!r}"
            if command == "suite":
                summary = json.loads(stdout)
                with open(outs[0], encoding="utf-8") as fh:
                    lines = [json.loads(line) for line in fh]
                if summary["failures"] or summary["passes"] != 20 or len(lines) != 21:
                    return f"suite: {summary['passes']} passes, {len(lines)} report lines"
                return None
            with open(outs[0], encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, KeyError) as exc:
            return f"{command}: unreadable output ({exc})"
        if command == "align":
            failure = planar_cert_failure(data["alignment"]["margin"], data["combined"]["certificate"])
            with open(outs[1], encoding="utf-8") as fh:
                svg = fh.read()
            if failure is None and not (svg.startswith("<?xml") and svg.count("<polyline") == 3):
                failure = "align: malformed SVG"
            return failure
        if command == "cone-combine":
            return cone_cert_failure(data["margin"], data["min_turning"], data["gauss_bonnet_residual"])
        if len(data["levels"]) != 4:
            return f"digon: {len(data['levels'])} levels"
        for level in data["levels"]:
            failure = cone_cert_failure(level["margin"], level["min_turning"],
                                        level["gauss_bonnet_residual"])
            if failure is not None:
                return f"digon eps {level['eps1']}: {failure}"
        return None

    def fingerprint(self, out):
        command, code, stdout, outs = out
        parts = [command, str(code), stdout]
        for path in outs:
            with open(path, encoding="utf-8") as fh:
                parts.append(fh.read())
        return "\0".join(parts)


WORKLOADS = {w.name: w for w in (PlanarSuite, ConeSuite, DensePairs, CliCold)}
