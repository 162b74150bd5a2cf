#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per identity.

Equivalent to `maassperiods verify --suite all` but with human-oriented
output instead of JSON.  Exit code 0 means every identity passed apart
from the documented expected failure of the surrogate compatibility check.
"""

import argparse
import sys
import time

from maassperiods.verify import SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"])
    args = parser.parse_args()

    started = time.perf_counter()
    report = run_suite(args.suite, seed=args.seed)
    unexpected = report.unexpected_failures
    for entry in sorted(report.entries, key=lambda e: e.identity):
        tag = "ok   " if entry.passed else "FAIL " if entry.identity in unexpected else "known"
        print(
            f"[{tag}] {entry.identity:45s} residual {entry.max_residual:9.2e}"
            f"  tol {entry.tolerance:7.0e}  ({entry.samples} samples, {entry.wall_time:.2f}s)"
        )
    wall = time.perf_counter() - started
    print(f"\n{len(report.entries)} identities in {wall:.1f}s; "
          f"{len(unexpected)} unexpected failures")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
