"""Per-trial count of numpy's Python-level frames, by module, for suite trials.

Usage::

    python tools/numpy_frames.py [--seed 3] [--trials 50]

Runs planar trials and cone trials 0 .. trials - 1 of the default suite
config at ``seed`` under ``sys.setprofile`` and counts every call that
enters a Python function defined in numpy's package: a wrapper such as
``np.sum`` (``fromnumeric.py``) or ``np.linalg.norm``, or the dispatcher
and method helpers behind ``np.concatenate`` and ``x.sum()``
(``multiarray.py``, ``_methods.py``).  Prints one block per kind: the
frames per trial, then each module's share, largest first, by its path
inside numpy.  Trial 0 runs once before the count, so one-time imports
and caches do not count.  The count is deterministic for a given numpy,
so it needs no timing.  The package is imported from this checkout's
``src/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from isocomb.suite import SuiteConfig, cone_trial, planar_trial  # noqa: E402

NUMPY_DIR = os.path.dirname(os.path.abspath(np.__file__)) + os.sep

TRIALS = {"planar": planar_trial, "cone": cone_trial}


def numpy_frames(run) -> Counter:
    """Calls of numpy's Python functions while ``run()`` runs, keyed by each
    function's file relative to numpy's package directory."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(NUMPY_DIR):
                counts[path[len(NUMPY_DIR):]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def trial_frames(kind: str, seed: int, trials: int) -> Counter:
    """:func:`numpy_frames` of trials 0 .. trials - 1 of ``kind`` at ``seed``,
    after trial 0 has run once."""
    config = SuiteConfig(trials=trials, seed=seed)
    trial = TRIALS[kind]
    trial(config, 0)
    return numpy_frames(lambda: [trial(config, i) for i in range(trials)])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--trials", type=int, default=50)
    args = p.parse_args(argv)
    print(f"numpy {np.__version__}, seed {args.seed}, {args.trials} trials per kind")
    for kind in TRIALS:
        counts = trial_frames(kind, args.seed, args.trials)
        print(f"{kind}: {sum(counts.values()) / args.trials:.1f} numpy frames per trial")
        for module, n in counts.most_common():
            print(f"  {n / args.trials:8.1f}  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
