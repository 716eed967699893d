"""Golden --machine output of the CLI on every fixture file.

Each recorded command runs in-process through cli.main and must reproduce
the stored stdout byte for byte, and the stored exit code. Refactors of the
analysis pipeline must not change any answer; a deliberate change of output
is re-recorded with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hypergroups.cli import main

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "machine.json"

COMMANDS = {
    "validate": ["validate"],
    "analyze": ["analyze"],
    "hall-pi2": ["hall", "--pi", "{2}"],
    "verify-pi2": ["verify", "--pi", "{2}"],
    "verify-sigma": ["verify", "--sigma", "2|3,5", "--pi", "0"],
    "radical-pi2": ["radical", "--pi", "{2}"],
    "hall-constructive-pi2": ["hall", "--constructive", "--pi", "{2}"],
}


def _cases():
    for path in sorted(FIXTURES.iterdir()):
        for key in COMMANDS:
            yield path.name, key


def _argv(fixture, key):
    return COMMANDS[key] + [str(FIXTURES / fixture), "--machine", "--rank-cap", "60"]


def _expected():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("fixture,key", list(_cases()))
def test_machine_output_matches_golden(capsys, fixture, key):
    want = _expected()[f"{fixture} {key}"]
    code = main(_argv(fixture, key))
    assert capsys.readouterr().out == want["stdout"]
    assert code == want["exit"]


def test_golden_covers_every_case():
    assert sorted(_expected()) == sorted(f"{f} {k}" for f, k in _cases())


def _record():
    out = {}
    for fixture, key in _cases():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(_argv(fixture, key))
        out[f"{fixture} {key}"] = {"exit": code, "stdout": buf.getvalue()}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(out)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
