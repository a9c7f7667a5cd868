#!/usr/bin/env python3
"""Run the counterexample scans for both conjectures at a configurable scale.

Divisibility: b and a variants for each odd exponent up to --p-max, plus the
unified c variant over m <= --m-max; mixed-cube over the square box.  With
--checkpoint-dir the scans resume from (and update) one file per scan, so an
interrupted run loses at most --batch cells of work.  Exit codes: 0 clean,
1 counterexample found, 2 bad request (a --batch below 1, a bad checkpoint).
"""

import argparse
import os
import sys
import time
from functools import partial

from catalan_triangles.conjectures import (
    load_checkpoint,
    save_checkpoint,
    scan_divisibility,
    scan_mixed,
)
from catalan_triangles.errors import DomainError, IntegrityError, UsageError


def run_resumable(label, checkpoint_dir, batch, scan):
    state = None
    path = None
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        path = os.path.join(checkpoint_dir, label + ".json")
        if os.path.exists(path):
            state = load_checkpoint(path)
    while True:
        state = scan(checkpoint=state, max_cells=batch)
        if path:
            save_checkpoint(state, path)
        if state.frontier is None:
            return state


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=30)
    parser.add_argument("--m-max", type=int, default=40)
    parser.add_argument("--p-max", type=int, default=7, help="largest odd exponent to scan")
    parser.add_argument("--mixed-max", type=int, default=12)
    parser.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    parser.add_argument("--checkpoint-dir", default=None)
    parser.add_argument("--batch", type=positive_int, default=None,
                        help="cells per checkpointed batch (default: all at once)")
    args = parser.parse_args()
    try:
        return scan_all(args)
    except (UsageError, DomainError, IntegrityError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def scan_all(args) -> int:
    scans = [
        ("divisibility-%s-p%d" % (variant, p), partial(scan_divisibility, variant, p, jobs=args.jobs, **ranges))
        for p in range(1, args.p_max + 1, 2)
        for variant, ranges in (
            ("b", dict(n_range=(1, args.n_max))),
            ("a", dict(n_range=(1, args.n_max))),
            ("c", dict(m_range=(2, args.m_max))),
        )
    ]
    scans.append(("mixed-cube", partial(scan_mixed, (1, args.mixed_max), (1, args.mixed_max), jobs=args.jobs)))

    total_counterexamples = 0
    started = time.perf_counter()
    for label, scan in scans:
        state = run_resumable(label, args.checkpoint_dir, args.batch, scan)
        total_counterexamples += len(state.counterexamples)
        print("%-22s %6d cells %3d counterexamples %10.1f ms"
              % (label, state.processed, len(state.counterexamples), state.elapsed_ms))
    print("done in %.1f s; %d counterexamples in total"
          % (time.perf_counter() - started, total_counterexamples))
    return 1 if total_counterexamples else 0


if __name__ == "__main__":
    sys.exit(main())
