"""Golden reports: every subcommand's output, replayed byte for byte.

Each case runs the CLI in both formats and compares against the files in
``tests/golden/``: the JSON report without its ``timing`` block (the only
part documented as varying between runs), and the whole CSV output. A
refactor that changes any file has changed behaviour.

To regenerate after a deliberate change of outputs, run this file as a
script from the repository root and record the change in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
from pathlib import Path

import pytest

from bvinfluence.cli import run

GOLDEN = Path(__file__).parent / "golden"

FUNCTIONS = {
    "random10": ["--random", "10:3"],
    "planted9": ["--anf", "x1 + x2*x3 + x4*x5*x6", "--n", "9"],
}

COMMANDS = {
    "influence": [],
    "spectrum": [],
    "bv-sample": ["--m", "16", "--seed", "5"],
    "estimate": ["--m", "200", "--seed", "7"],
    "list-influential": ["--m", "200", "--seed", "8"],
    "learn2": ["--rho", "20", "--seed", "9"],
    "learn3": ["--lambda", "500", "--seed", "10"],
    "classical": ["--m", "100", "--seed", "11"],
    "verify": [],
}

CASES = {
    f"{command}-{label}": [command, *source, *options]
    for label, source in FUNCTIONS.items()
    for command, options in COMMANDS.items()
}
# Above n=12 verify checks the autocorrelation at 9 fixed gammas (all-ones
# and 8 from an integer rule) rather than at every gamma; the unit vectors
# are decided by the influence check and Parseval.
CASES["verify-random13"] = ["verify", "--random", "13:4"]


def render(argv: list[str]) -> tuple[str, str]:
    """(JSON report without timing, CSV output) of one CLI invocation."""
    outputs = []
    for fmt in ("json", "csv"):
        out, err = io.StringIO(), io.StringIO()
        code = run([*argv, "--format", fmt], out=out, err=err)
        assert code == 0, err.getvalue()
        outputs.append(out.getvalue())
    report = json.loads(outputs[0])
    del report["timing"]
    return json.dumps(report, indent=2) + "\n", outputs[1]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    report, table = render(CASES[name])
    assert report == (GOLDEN / f"{name}.json").read_text(), name
    assert table == (GOLDEN / f"{name}.csv").read_text(), name


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        report, table = render(argv)
        (GOLDEN / f"{name}.json").write_text(report)
        (GOLDEN / f"{name}.csv").write_text(table)


if __name__ == "__main__":
    regenerate()
