"""Every output of a fixed set of commands matches its golden copy.

The commands, and how to regenerate the copy, are in `golden_outputs.py`.
A refactor of the command line must leave this test passing unchanged.
"""

import json

from golden_outputs import GOLDEN, RUNS, collect


def test_outputs_match_the_golden_copy(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == [" ".join(argv) for argv in RUNS]
    outputs = collect(tmp_path)
    for command, record in golden.items():
        assert outputs[command] == record, command
