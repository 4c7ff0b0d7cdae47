"""The program's outputs on a fixed set of commands, and their golden copy.

`collect(workdir)` runs each command of RUNS through `kleinzeta.cli.main`
in this interpreter, without a cache, and returns one record per command:
its exit code, its stdout, and its JSON report (every check's name,
status, expected and actual value, and the `cohomology` or `certificates`
block) with the timings and the paths left out.  `hecke-table` writes its
CSV into workdir, and its record holds the CSV's SHA-256.
`tests/test_golden_outputs.py` compares the records with
`tests/data/golden_outputs.json`.

Regenerate the golden copy, after a change that is meant to alter an
output, with

    PYTHONPATH=src python tests/golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_outputs.json"

PATH_FLAGS = ("cache", "json", "out")

COUNTS = ((2, 20), (3, 12), (13, 5), (23, 1), (43, 2), (67, 1), (89, 1), (1009, 1), (1021, 2))

RUNS = [
    ["report"],
    ["verify-l3"],
    ["trace-sweep", "--max", "1000"],
    ["cohomology"],
    ["theta-support", "--p", "11"],
    *(["count", "--p", str(p), "--k", str(k)] for p, k in COUNTS),
    ["hecke-table", "--max", "1000"],
]


def _record(argv, workdir: Path) -> dict:
    from kleinzeta import cli

    report, table = workdir / "report.json", workdir / "hecke.csv"
    report.unlink(missing_ok=True)
    if argv[0] == "hecke-table":
        argv = argv + ["--out", str(table)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv + ["--json", str(report)])
    payload = json.loads(report.read_text())
    for check in payload["checks"]:
        del check["elapsed_ms"]
    for flag in PATH_FLAGS:
        payload["config"].pop(flag, None)
    record = {"exit": code, "stdout": stdout.getvalue(), "report": payload}
    if argv[0] == "hecke-table":
        record["csv_sha256"] = hashlib.sha256(table.read_bytes()).hexdigest()
    return record


def collect(workdir) -> dict:
    """{command line: record} for every command of RUNS, run in workdir."""
    return {" ".join(argv): _record(argv, Path(workdir)) for argv in RUNS}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = collect(tmp)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
