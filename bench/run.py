"""Benchmark of isocomb: one workload, one seed, one run.

    python3 bench/run.py --workload planar-suite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  ``--trace 0`` times the
closed loop and prints the end-to-end metrics; ``--trace 1`` times the same
loop with every traced function wrapped and prints the per-layer metrics.
Every op is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit code is 1
when any check failed.
"""

import time

START = time.perf_counter()     # setup_s is measured from before isocomb is imported

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_build")
# One thread per process: the load is a single caller on a small shared host.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

SETUP_SAMPLES = 7               # this process plus six fresh ones; setup_s is their median
P90_MIN_OPS = 100               # at least ten samples beyond the 90th percentile
EXIT_CHECK_FAILED = 1
EXIT_NO_PROGRAM = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["planar-suite", "cone-suite", "dense-pairs", "cli-cold"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up and print the set-up seconds (used for setup_s)")
    return p.parse_args(argv)


def import_package():
    """Import isocomb from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "isocomb", "__init__.py")):
        print(f"bench: no isocomb sources under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, SRC)
    import isocomb

    if os.path.dirname(os.path.dirname(os.path.abspath(isocomb.__file__))) != SRC:
        print(f"bench: imported isocomb from {isocomb.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)


def child_env() -> dict:
    """Environment of every child process: this checkout's package, pinned threads."""
    return {**os.environ, "PYTHONPATH": SRC}


def closed_loop(run_op, workload, seconds, min_ops=1, whole_rounds=True, on_result=None):
    """Run ops 0, 1, ... one after another until ``seconds`` of op time have passed.

    Timed loops run whole rounds so every run has the same mix.  Each op is
    checked outside its timed span; a failed op is counted, never re-drawn.
    Returns (latencies, failures) with failures as (op index, reason).
    """
    latencies, failures = [], []
    i, busy = 0, 0.0
    round_size = workload.round_size if whole_rounds else 1
    while busy < seconds or i < min_ops or i % round_size:
        t0 = time.perf_counter()
        try:
            out = run_op(i)
            reason = None
        except Exception as exc:    # a failed op is counted, and the loop goes on
            out, reason = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        latencies.append(dt)
        busy += dt
        if reason is None:
            try:
                reason = workload.check(out)
                if reason is None and on_result is not None:
                    reason = on_result(i, out)
            except Exception as exc:    # malformed output fails the op, not the run
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((i, reason))
        del out
        i += 1
    return latencies, failures


def setup_samples(args, workdir, env, importtime=False):
    """Set-up seconds of fresh processes, each setting up the same workload."""
    from workloads import run_child

    samples, failures, stderrs = [], [], []
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    n = 1 if importtime else SETUP_SAMPLES - 1
    for k in range(n):
        out_path = os.path.join(workdir, f"probe{k}.out")
        err_path = os.path.join(workdir, f"probe{k}.err")
        code, _ = run_child(cmd, env, out_path, err_path)
        with open(out_path, encoding="utf-8") as fh:
            lines = fh.read().split()
        with open(err_path, encoding="utf-8") as fh:
            stderrs.append(fh.read())
        if code != 0 or not lines:
            failures.append((-1, f"set-up probe exited {code}"))
            continue
        samples.append(float(lines[-1]))
    return samples, failures, stderrs


def provenance(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "threads": PINNED,
    }


def untraced_run(args, w, workdir, env, own_setup_s):
    latencies, failures = closed_loop(w.op, w, args.seconds)
    peak_kib = w.peak_rss_kib()
    probes, probe_failures, _ = setup_samples(args, workdir, env)
    # Medians over rounds and over each slot's repeats shrug off a slow spell
    # of the host; the median over slots does not fall between op kinds.
    size = w.round_size
    round_rates = [size / sum(latencies[k:k + size]) for k in range(0, len(latencies), size)]
    slot_p50 = [statistics.median(latencies[j::size]) for j in range(size)]
    metrics = {
        "setup_s": (statistics.median([own_setup_s, *probes]), "s"),
        "ops_per_s": (statistics.median(round_rates), "1/s"),
        "latency_p50_s": (statistics.median(slot_p50), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    info = {"ops": len(latencies), "rounds": len(round_rates),
            "setup_samples_s": [own_setup_s, *probes],
            "error_rate": len(failures) / len(latencies)}
    if len(latencies) >= P90_MIN_OPS:
        info["latency_p90_s"] = statistics.quantiles(latencies, n=10)[8]
    return metrics, len(latencies) + len(probes), failures + probe_failures, info


def traced_run(args, w, workdir, env):
    from tracing import MemoryProbe, Tracer, parse_importtime

    tracer = Tracer()
    fingerprints = {}

    def same_output(i, out):
        """Compare op i's output with its first run; remember it if first."""
        text = w.fingerprint(out)
        if fingerprints.setdefault(i, text) != text:
            return "output differs between traced and untraced runs"
        return None

    def traced(i):
        with tracer.op(i):
            return w.traced_op(i)

    restore, absent = tracer.install()
    try:
        traced_lat, failures = closed_loop(traced, w, args.seconds, on_result=same_output)
    finally:
        restore()
    n_ops = len(traced_lat)

    # Overhead: the first ops again, each once untraced and once traced (into
    # a scratch recorder), alternating which goes first so drift cancels.
    scratch = Tracer()
    pair_lat = {"plain": [], "traced": []}

    def paired(i):
        order = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
        for side in order:
            undo = scratch.install()[0] if side == "traced" else (lambda: None)
            try:
                t0 = time.perf_counter()
                out = w.traced_op(i)
                pair_lat[side].append(time.perf_counter() - t0)
            finally:
                undo()
            reason = w.check(out) or same_output(i, out)
            if reason is not None:
                raise RuntimeError(f"{side}: {reason}")
        return out

    pair_ops, pair_failures = closed_loop(paired, w, args.seconds / 4, whole_rounds=False)
    attempted = n_ops + 2 * len(pair_ops)
    failures += pair_failures
    overhead_pct = 100.0 * (sum(pair_lat["traced"]) / sum(pair_lat["plain"]) - 1.0)

    # Peak memory of the alignment kernels, in a pass of its own.
    memory = MemoryProbe()
    tracemalloc.start()
    restore_memory, _ = memory.install()
    try:
        mem_lat, mem_failures = closed_loop(w.traced_op, w, args.seconds / 8,
                                            min_ops=w.min_memory_ops, whole_rounds=False,
                                            on_result=same_output)
    finally:
        restore_memory()
        tracemalloc.stop()
    attempted += len(mem_lat)
    failures += mem_failures

    # Import cost: cold CLI processes, or one fresh set-up process elsewhere.
    if args.workload == "cli-cold":
        for i in range(w.round_size):
            out = w.cold(i, importtime=True)
            attempted += 1
            reason = w.check(out) or same_output(i, out)
            if reason is not None:
                failures.append((i, f"cold: {reason}"))
        imports = w.import_times
    else:
        _, probe_failures, stderrs = setup_samples(args, workdir, env, importtime=True)
        attempted += 1
        failures += probe_failures
        imports = [parse_importtime(text) for text in stderrs]

    metrics = tracer.layer_metrics(n_ops, absent)
    metrics.update(memory.metrics())
    for pkg in ("numpy", "scipy", "isocomb"):
        metrics[f"import.{pkg}_s"] = (statistics.fmean(t[pkg] for t in imports), "s")
    metrics["trace.ops_per_s"] = (n_ops / sum(traced_lat), "1/s")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    os.makedirs(WORK_ROOT, exist_ok=True)
    tracer.write(os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.jsonl"))
    info = {"ops": n_ops, "absent": absent, "overhead_pairs": len(pair_ops),
            "memory_ops": len(mem_lat)}
    return metrics, attempted, failures, info


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    env = child_env()
    try:
        w = WORKLOADS[args.workload](args.seed, workdir, env)
        w.setup()
        w.op(0)                                  # warm-up
        own_setup_s = time.perf_counter() - START
        if args.setup_probe:
            print(repr(own_setup_s))
            return 0
        if args.trace:
            metrics, attempted, failures, info = traced_run(args, w, workdir, env)
        else:
            metrics, attempted, failures, info = untraced_run(args, w, workdir, env, own_setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for i, reason in failures[:20]:
        print(f"failed op {i}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return EXIT_CHECK_FAILED if failures else 0


if __name__ == "__main__":
    sys.exit(main())
