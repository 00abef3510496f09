#!/usr/bin/env python3
"""Replay, or re-take, the golden corpus of CLI outputs.

tests/golden/outputs.json holds, for each command of COMMANDS, the sha256 of
its stdout, the first line of its stderr, its exit code and an 8-hex digest
of each stdout row (a line, or an object of a JSON array), all taken in
process through `dirichlet_j.cli.run`, imported from this checkout's `src`.

    python scripts/golden.py            # exit 1 if any command moved
    python scripts/golden.py --update   # re-take the corpus

Either way it prints, for each command that moved, what moved and the new
text of each row whose digest moved.  The corpus leaves out --deep and every
other output of the numpy partial sums (`fourier_partial`, `log_tan_series`),
whose BLAS sums can differ in their last bits between machines.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden" / "outputs.json"
sys.path.insert(0, str(ROOT / "src"))

from dirichlet_j.cli import run  # noqa: E402  (after the src path above)

COMMANDS = [
    *(["verify", suite] for suite in ("thm1", "thm2", "thm4", "remark1", "collapse", "lemmas", "fourier", "all")),
    ["verify", "all", "--format", "json"],
    ["verify", "all", "--format", "csv"],
    *(["verify", suite, "--range", "1..85", "--format", "json"] for suite in ("thm1", "thm2", "thm4")),
    ["verify", "remark1", "--range", "1..60", "--format", "csv"],
    ["verify", "collapse", "--range", "1..24", "--format", "json"],
    ["verify", "lemmas", "--seed", "7", "--format", "csv"],
    ["compute", "lambda", "3"],
    ["compute", "lambda", "2.5", "--method", "series"],
    ["compute", "lambda", "4", "--method", "closed"],
    ["compute", "beta", "2"],
    ["compute", "beta", "3", "--method", "closed"],
    ["compute", "J", "1"],
    ["compute", "J", "3.5", "--method", "quadrature"],
    ["compute", "J", "6", "--method", "euler_series"],
    ["compute", "J", "5", "--method", "closed"],
    ["compute", "J", "40", "--method", "closed"],  # the even closed form cancels to a wrong sign
    ["compute", "J", "108.9"],
    ["compute", "J", "0.2", "--method", "riemann"],
    ["compute", "J", "0.01"],  # exit 3: the quadrature does not converge
    ["compute", "lambda", "3", "--method", "closed"],  # usage errors, exit 2
    ["verify", "lemmas", "--range", "1..3"],
    *(
        ["table", fn, "--range", span, "--format", fmt]
        for fn, span in (("lambda", "2..40"), ("beta", "1..40"), ("J", "1..40"))
        for fmt in ("text", "json", "csv")
    ),
]


def capture(argv: list[str]) -> tuple[dict, list[str]]:
    """The corpus entry of `dirichlet-j <argv>`, run in this process, and
    its stdout rows."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    stdout = out.getvalue()
    try:
        rows = [json.dumps(item) for item in json.loads(stdout)]
    except ValueError:
        rows = stdout.splitlines()
    return {
        "argv": argv,
        "exit": code,
        "stderr": err.getvalue().partition("\n")[0],
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "rows": [hashlib.sha256(row.encode()).hexdigest()[:8] for row in rows],
    }, rows


def moved(old: dict | None, new: dict, rows: list[str]) -> list[str]:
    """Lines saying what of `new`, whose stdout rows are `rows`, differs from
    `old` (none if nothing does)."""
    if old is None:
        return ["  new command"]
    lines = [f"  {key}: {old[key]!r} -> {new[key]!r}" for key in ("exit", "stderr") if old[key] != new[key]]
    if old["stdout_sha256"] != new["stdout_sha256"]:
        if len(old["rows"]) != len(new["rows"]):
            lines.append(f"  rows: {len(old['rows'])} -> {len(new['rows'])}")
        row_lines = [
            f"  row {i}: {rows[i] if b is not None else '(gone)'}"
            for i, (a, b) in enumerate(zip_longest(old["rows"], new["rows"]))
            if a != b
        ]
        lines += row_lines or ["  stdout moved outside its rows"]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--update", action="store_true", help="rewrite the corpus from this tree's outputs")
    args = parser.parse_args()

    old = {tuple(e["argv"]): e for e in json.loads(CORPUS.read_text())} if CORPUS.exists() else {}
    entries = []
    count = 0
    for argv in COMMANDS:
        entry, rows = capture(argv)
        entries.append(entry)
        lines = moved(old.get(tuple(argv)), entry, rows)
        if lines:
            count += 1
            print(" ".join(entry["argv"]), *lines, sep="\n")
    print(f"{count} of {len(entries)} commands moved")
    if args.update:
        CORPUS.parent.mkdir(parents=True, exist_ok=True)
        CORPUS.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
        return 0
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
