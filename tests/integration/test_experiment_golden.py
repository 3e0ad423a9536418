"""E1–E10 print exactly the tables recorded in ``tests/golden/``.

Every experiment counts logical time, messages and rows, never wall time, so
``repro run E<n> --records 5`` is byte-for-byte reproducible.  A refactor of
how networks are built or run must leave these tables unchanged; regenerate a
file only for a change that is meant to move its numbers::

    PYTHONPATH=src python -m repro run E4 --records 5 > tests/golden/E4.txt
"""

from pathlib import Path

import pytest

from repro import cli

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


@pytest.mark.parametrize("experiment", [f"E{n}" for n in range(1, 11)])
def test_experiment_output_matches_golden(experiment, capsys):
    assert cli.main(["run", experiment, "--records", "5"]) == 0
    expected = (GOLDEN / f"{experiment}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
