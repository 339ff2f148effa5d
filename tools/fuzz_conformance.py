#!/usr/bin/env python
"""CI entry point for the differential conformance fuzzer.

Runs a bounded, fixed-seed campaign of randomized differential cases
through every registered simulation backend (see
:mod:`repro.engine.fuzz`) and exits non-zero on any conformance
violation, after writing the minimized single-command repros to a file
CI uploads as an artifact.

Usage::

    PYTHONPATH=src python tools/fuzz_conformance.py [--seed 7]
        [--cases N] [--failures-file fuzz_failures.txt]

``--cases`` defaults to ``DEFAULT_CASES`` (200, the count CI runs); the
seed is fixed so a red CI run is reproducible locally with the exact
same command.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.engine.fuzz import DEFAULT_CASES, fuzz, repro_command  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--cases",
        type=int,
        default=DEFAULT_CASES,
        help="case count (default: %d)" % DEFAULT_CASES,
    )
    parser.add_argument("--failures-file", default="fuzz_failures.txt")
    args = parser.parse_args(argv)

    report = fuzz(args.seed, args.cases, log=print)
    if report.ok:
        print(f"fuzz_conformance: {args.cases} cases, seed {args.seed}: all conformant")
        return 0
    lines = [repro_command(case) for _, case, _ in report.failures]
    Path(args.failures_file).write_text("\n".join(lines) + "\n")
    print(
        f"fuzz_conformance: {len(report.failures)} failing case(s); "
        f"minimized repros written to {args.failures_file}"
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
