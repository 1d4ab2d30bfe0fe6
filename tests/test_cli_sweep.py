"""scripts/cli_sweep.py reproduces tests/golden/cli_sweep.txt: every run of
the attack corpus and of the validator prints what it printed when the file
was written, and so do the two digests over them."""

import contextlib
import importlib.util
import io
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SCRIPT = TESTS.parent / "scripts" / "cli_sweep.py"
GOLDEN = TESTS / "golden" / "cli_sweep.txt"


def _label(line: str) -> str:
    """The run a sweep line names: its fixture and argv, or its digest's."""
    return line.split(" ", 1)[1]


def test_sweep_matches_golden():
    spec = importlib.util.spec_from_file_location("cli_sweep", SCRIPT)
    cli_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_sweep)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_sweep.main()
    got, want = out.getvalue().splitlines(), GOLDEN.read_text().splitlines()
    assert [_label(line) for line in got] == [_label(line) for line in want]
    assert [_label(line) for line, old in zip(got, want) if line != old] == []
