#!/usr/bin/env python3
"""Sweep every registered identity over its full default domain and print a
per-identity summary table.  Exit code 1 if anything fails to verify."""

import argparse
import json
import sys
import time

from catalan_triangles.identities import list_identities, verify_identity


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=None,
                        help="override the per-identity parameter cap")
    parser.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full reports as a JSON array")
    args = parser.parse_args()

    reports = []
    failures = 0
    started = time.perf_counter()
    for ident in list_identities():
        report = verify_identity(ident.id, parallelism=args.jobs, cap=args.max)
        reports.append(report)
        failures += 0 if report.passed else 1
        print("%-26s %-4s %7d cells %9.1f ms" % (ident.id, report.status, report.cells, report.elapsed_ms))
        for mismatch in report.mismatches[:5]:
            print("    mismatch: %s" % json.dumps(mismatch.to_dict()))
    print("%d identities, %d failures, %.1f s total"
          % (len(reports), failures, time.perf_counter() - started))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
            fh.write("\n")
        print("reports written to %s" % args.json)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
