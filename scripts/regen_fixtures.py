"""Regenerate the output of every golden CLI fixture.

The directories under fixtures/ are the list of cases. Each holds the exact
command line (argv.json), an input document when the command reads one
(input.json), and the output document the command must reproduce byte for
byte (output.json). The script reruns every case in sorted order and
rewrites only output.json; it stops with the exit code of the first case
that does not exit 0. To add a case, make a directory with argv.json (and
input.json if the command reads one) and run

    PYTHONPATH=src python3 scripts/regen_fixtures.py
"""

import json
import sys
from pathlib import Path

from fqlin.cli import run_command

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def run_case(case, output):
    """Run the command line of the fixture directory ``case``, writing its
    document to ``output``; return the exit code."""
    argv = json.loads((case / "argv.json").read_text(encoding="utf-8"))
    if (case / "input.json").exists():
        argv += ["-i", str(case / "input.json")]
    code, _ = run_command(argv + ["-o", str(output)])
    return code


def main():
    for case in sorted(p for p in FIXTURES.iterdir() if p.is_dir()):
        code = run_case(case, case / "output.json")
        if code != 0:
            print(f"{case.name}: exit {code}", file=sys.stderr)
            return code
        print(f"{case.name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
