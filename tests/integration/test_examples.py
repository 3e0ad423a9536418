"""Every script in examples/ must run end-to-end at tiny sizes.

The examples double as acceptance tests *and* as the documentation's code —
docs/ and the README point at them — so they are forbidden from rotting
silently: each script is listed in ``EXPECTED`` with the arguments that keep
it small and the output markers that prove it did its job, and
``test_every_example_is_covered`` fails the moment a script is added to
``examples/`` without a matching entry here (or removed while still listed).
The CI ``docs-check`` job runs exactly this module.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

#: script name -> (argv, required stdout markers), sizes kept tiny on purpose.
EXPECTED: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "quickstart.py": ((), ("portal catalogue",)),
    "paper_example.py": ((), ("matches the centralized fix-point: True",)),
    "dblp_sharing.py": (("20",), ("answers locally",)),
    "dynamic_network.py": ((), ("sound", "True")),
    "async_network.py": (
        ("3",),
        ("schedule seed   2", "3 schedules reach the same ground fix-point: True"),
    ),
    "pooled_network.py": (
        ("2",),
        (
            "cold first update",
            "warm update after addLink",
            "same ground fix-point as the sync engine: True",
        ),
    ),
    "serve_quickstart.py": (
        (),
        (
            "update took the incremental path",
            "event channel saw the run: run/ok",
            "tenant closed; pool drained",
        ),
    ),
}


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestExamples:
    def test_every_example_is_covered(self):
        on_disk = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert on_disk == set(EXPECTED), (
            "examples/ and the smoke-test table diverged; add the new "
            "script to EXPECTED (with tiny-size args and output markers) "
            "or drop the stale entry"
        )

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_example_runs_and_prints_its_markers(self, name):
        args, markers = EXPECTED[name]
        result = run_example(name, *args)
        assert result.returncode == 0, result.stderr
        for marker in markers:
            assert marker in result.stdout, (
                f"{name} no longer prints {marker!r}; stdout was:\n"
                f"{result.stdout}"
            )
