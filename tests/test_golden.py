"""Golden CLI output on every fixture file, with and without --machine.

Each recorded command runs in-process through cli.main and must reproduce
the stored output byte for byte, and the stored exit code: stdout for the
--machine runs (machine.json), stdout and stderr for the human-readable
runs (human.json). Refactors of the analysis pipeline must not change any
answer or message; a deliberate change of output is re-recorded with

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
GOLDEN = {mode: Path(__file__).parent / "golden" / f"{mode}.json"
          for mode in ("machine", "human")}

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


def _argv(mode, fixture, key):
    flags = ["--machine"] if mode == "machine" else []
    return COMMANDS[key] + [str(FIXTURES / fixture), *flags, "--rank-cap", "60"]


def _expected(mode):
    return json.loads(GOLDEN[mode].read_text(encoding="utf-8"))


@pytest.mark.parametrize("fixture,key", list(_cases()))
def test_machine_output_matches_golden(capsys, fixture, key):
    want = _expected("machine")[f"{fixture} {key}"]
    code = main(_argv("machine", fixture, key))
    assert capsys.readouterr().out == want["stdout"]
    assert code == want["exit"]


@pytest.mark.parametrize("fixture,key", list(_cases()))
def test_human_output_matches_golden(capsys, fixture, key):
    want = _expected("human")[f"{fixture} {key}"]
    code = main(_argv("human", fixture, key))
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (want["stdout"], want["stderr"])
    assert code == want["exit"]


def test_golden_covers_every_case():
    cases = sorted(f"{f} {k}" for f, k in _cases())
    for mode in GOLDEN:
        assert sorted(_expected(mode)) == cases, mode


def _record(mode):
    out = {}
    for fixture, key in _cases():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(_argv(mode, fixture, key))
        out[f"{fixture} {key}"] = {"exit": code, "stdout": stdout.getvalue()}
        if mode == "human":
            out[f"{fixture} {key}"]["stderr"] = stderr.getvalue()
    GOLDEN[mode].write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"recorded {len(out)} cases in {GOLDEN[mode]}", file=sys.stderr)


if __name__ == "__main__":
    for mode in GOLDEN:
        _record(mode)
