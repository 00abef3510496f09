#!/usr/bin/env python3
"""Run the complete identity-verification battery and archive the reports.

Writes verification_report.json and verification_report.csv next to this
script (or under --outdir) and prints the text summary. Returns exit code 1
if any check fails, so it can gate CI. The battery runs once; all three
formats are rendered from the same reports.
"""

import argparse
import sys
from pathlib import Path

from dirichlet_j.cli import DEFAULT_SEED, THM1_NOTE, emit_report, seed_type, suite_reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path(__file__).parent)
    parser.add_argument("--deep", action="store_true", help="1e6-term series checks")
    parser.add_argument("--seed", type=seed_type, default=DEFAULT_SEED)
    args = parser.parse_args()

    reports = suite_reports("all", seed=args.seed, deep=args.deep)

    json_path = args.outdir / "verification_report.json"
    csv_path = args.outdir / "verification_report.csv"
    json_path.write_text(emit_report(reports, "json"), encoding="utf-8")
    csv_path.write_text(emit_report(reports, "csv"), encoding="utf-8")
    sys.stdout.write(emit_report(reports, "text") + THM1_NOTE)

    print(f"\nreports: {json_path}\n         {csv_path}")
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
