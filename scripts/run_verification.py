#!/usr/bin/env python3
"""Run the complete identity-verification battery and archive the reports.

Writes verification_report.json and verification_report.csv next to this
script (or under --outdir) and prints the text summary. Returns exit code 1
if any check fails, so it can gate CI, and 2 (with one stderr line) if a
report or stdout cannot be written, so a full disk or a closed pipe never
reads as a failed check. The battery runs once; all three formats are
rendered from the same reports.
"""

import argparse
import sys
from pathlib import Path

from dirichlet_j.cli import DEFAULT_SEED, THM1_NOTE, _write_out, emit_report, seed_type, suite_reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path(__file__).parent)
    parser.add_argument("--deep", action="store_true", help="1e6-term series checks")
    parser.add_argument("--seed", type=seed_type, default=DEFAULT_SEED)
    args = parser.parse_args()

    reports = suite_reports("all", seed=args.seed, deep=args.deep)

    json_path = args.outdir / "verification_report.json"
    csv_path = args.outdir / "verification_report.csv"
    summary = emit_report(reports, "text") + THM1_NOTE + f"\nreports: {json_path}\n         {csv_path}\n"
    try:
        _write_out(emit_report(reports, "json"), str(json_path))
        _write_out(emit_report(reports, "csv"), str(csv_path))
        _write_out(summary, None)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
