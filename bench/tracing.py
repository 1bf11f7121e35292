"""Per-layer tracing of isocomb from outside the package.

Public functions are wrapped by rebinding their name in every ``isocomb``
module that holds them, so calls made inside the package (module-global
lookups) go through the wrapper too.  Nothing in ``src/`` is changed, and a
name that no longer exists is reported as absent instead of failing.

Spans are kept in memory as ``[name, start, end, parent, op_id, value]``
and written out as JSON lines when the run ends.  Self time is a span's
duration minus the durations of its direct children (one thread, so
children never overlap).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# Public functions on the planar, cone, suite and CLI pipelines.
TIMED = (
    "suite.run_planar_suite",
    "suite.run_cone_suite",
    "suite.random_convex_polygon",
    "planar.build_polygon",
    "planar.dilate_to_perimeter",
    "combination.combine_aligned",
    "combination.make_pair",
    "combination.align",
    "combination.merged_breakpoints",
    "combination.combine",
    "combination.vertex_events",
    "combination.bending_check",
    "spherical.random_convex_link",
    "spherical.build_spherical_polygon",
    "cones.normalize_cone",
    "cones.transform_link_pair",
    "cones.combine_cones",
    "cones.position_and_combine",
    "serialization.load_object",
    "serialization.dump_json",
    "svgplot.render_svg",
    "cli.main",
)
# Wrapped only to count calls: one call per perimeter evaluation in the
# brentq search of random_convex_link, plus one lift per accepted hull.
COUNTED = ("spherical.gnomonic_inverse",)
MEMORY = ("combination.align", "cones.position_and_combine")

COUNTERS = (
    "combination.merged_breakpoints.m",
    "suite.random_convex_polygon.attempts",
    "spherical.random_convex_link.perimeter_evals",
    "cones.position_and_combine.candidates_tried",
    "cones.combine_cones.accept_ratio",
)


def _span_value(name: str, result):
    """Per-call quantity recorded on a span, read from the return value."""
    if name == "combination.merged_breakpoints":
        return len(result)
    if name == "cones.position_and_combine":
        return result.candidates_tried
    return None


def rebind(qualnames, make_wrapper):
    """Replace each ``module.function`` by ``make_wrapper(name, fn)``.

    Every ``isocomb`` module attribute bound to the original function is
    rebound.  Returns ``(restore, absent)``: a callable undoing every
    rebinding, and the names that do not exist in the package.
    """
    saved, absent = [], []
    for qual in qualnames:
        modname, attr = qual.rsplit(".", 1)
        try:
            module = importlib.import_module(f"isocomb.{modname}")
        except ImportError:
            absent.append(qual)
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            absent.append(qual)
            continue
        wrapper = make_wrapper(qual, original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("isocomb"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    saved.append((mod, key, original))

    def restore():
        for mod, key, original in reversed(saved):
            setattr(mod, key, original)

    return restore, absent


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = "raised"
                raise
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _span_value(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced function; returns ``(restore, absent)``."""
        return rebind(TIMED + COUNTED, self._wrap)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Mark one op as the root span of the calls made inside it."""
        self.op_id = op_id
        span = ["op", time.perf_counter(), 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, value in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "value": value}) + "\n")

    def layer_metrics(self, n_ops: int, absent) -> dict:
        """Per-op calls, total and self seconds, and the counters."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for idx, (name, start, end, _, _, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_time[idx]

        out = {}
        for name in TIMED:
            if name in absent:
                continue
            out[f"{name}.calls"] = (calls[name] / n_ops, "count")
            out[f"{name}.total_s"] = (total[name] / n_ops, "s")
            out[f"{name}.self_s"] = (self_s[name] / n_ops, "s")

        def children(parent_name, child_name):
            return sum(1 for s in spans if s[0] == child_name and s[3] >= 0
                       and spans[s[3]][0] == parent_name)

        def ratio(num, den):
            return num / den if den else 0.0

        values = defaultdict(list)
        for s in spans:
            values[s[0]].append(s[5])
        m = [v for v in values["combination.merged_breakpoints"] if v != "raised"]
        tried = [v for v in values["cones.position_and_combine"] if v != "raised"]
        links = calls["spherical.random_convex_link"]
        combines = values["cones.combine_cones"]
        counters = {
            "combination.merged_breakpoints.m": ratio(sum(m), len(m)),
            "suite.random_convex_polygon.attempts": ratio(
                children("suite.random_convex_polygon", "planar.build_polygon"),
                calls["suite.random_convex_polygon"]),
            "spherical.random_convex_link.perimeter_evals": ratio(
                children("spherical.random_convex_link", "spherical.gnomonic_inverse")
                - children("spherical.random_convex_link", "spherical.build_spherical_polygon"),
                links),
            "cones.position_and_combine.candidates_tried": ratio(sum(tried), len(tried)),
            "cones.combine_cones.accept_ratio": ratio(
                sum(1 for v in combines if v != "raised"), len(combines)),
        }
        for key, value in counters.items():
            out[key] = (value, "count")
        return out


class MemoryProbe:
    """Peak traced allocation per call of the alignment kernels.

    Used in its own pass, never in a timed one: ``tracemalloc`` slows every
    allocation.  The peak is reset before each call, so each value is the
    call's own high-water mark above what was live when it started.
    """

    def __init__(self):
        self.peaks: dict[str, list[int]] = defaultdict(list)

    def _wrap(self, name, fn):
        peaks = self.peaks

        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name].append(tracemalloc.get_traced_memory()[1] - base)

        return wrapper

    def install(self):
        return rebind(MEMORY, self._wrap)

    def metrics(self) -> dict:
        return {f"{name}.peak_mb": (max(self.peaks[name], default=0) / 2**20, "MiB")
                for name in MEMORY}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and isocomb, from ``-X importtime``.

    Lines are printed when an import finishes, children before their
    parent, indented two spaces per level.  numpy and scipy count their
    whole subtrees wherever they start; isocomb counts its own subtrees
    minus the numpy and scipy subtrees nested in them.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, cum_us, name = line.split("|", 2)
        self_us = head.split(":", 1)[1]
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(self_us), int(cum_us)))
    parent = [-1] * len(entries)
    pending = defaultdict(list)
    for idx, (depth, _, _, _) in enumerate(entries):
        for child in pending.pop(depth + 1, []):
            parent[child] = idx
        pending[depth].append(idx)

    def root(idx):
        return entries[idx][1].split(".")[0]

    def top(idx, pkg):
        """Entry starts a ``pkg`` subtree: its parent is outside ``pkg``."""
        return root(idx) == pkg and (parent[idx] < 0 or root(parent[idx]) != pkg)

    def ancestor_root(idx, pkg):
        p = parent[idx]
        while p >= 0:
            if root(p) == pkg:
                return True
            p = parent[p]
        return False

    us = {}
    for pkg in ("numpy", "scipy"):
        us[pkg] = sum(e[3] for i, e in enumerate(entries) if top(i, pkg))
    own = sum(e[3] for i, e in enumerate(entries) if top(i, "isocomb"))
    nested = sum(e[3] for i, e in enumerate(entries)
                 if (top(i, "numpy") or top(i, "scipy")) and ancestor_root(i, "isocomb"))
    us["isocomb"] = own - nested
    return {pkg: value / 1e6 for pkg, value in us.items()}
