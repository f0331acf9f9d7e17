"""The README's command-line tour and library sketch run as written."""

import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hgdilute.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _block(heading: str, lang: str) -> str:
    text = (ROOT / "README.md").read_text()
    after = text.split(heading, 1)[1]
    return after.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def tour() -> list[tuple[str, str]]:
    """(command, trailing comment) for every command line of the tour."""
    lines = _block("## Command-line tour", "sh").replace("\\\n", " ").splitlines()
    out = []
    for line in lines:
        command, _, note = line.partition("#")
        if command.strip():
            out.append((command.strip(), note))
    return out


def run(command: str, capsys) -> tuple[int, str]:
    argv = shlex.split(command)
    if argv[0] == "hgdilute":
        code = main(argv[1:])
    elif argv[0] == "python":
        old = sys.argv
        sys.argv = argv[1:]
        try:
            runpy.run_path(str(ROOT / argv[1]), run_name="__main__")
            code = 0
        except SystemExit as stop:
            code = stop.code
        finally:
            sys.argv = old
    else:  # plain shell, such as the printf lines writing the query files
        code = subprocess.run(["sh", "-c", command]).returncode
    return code, capsys.readouterr().out


def test_tour_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = tour()
    assert len(commands) >= 15
    for command, note in commands:
        code, out = run(command, capsys)
        want = re.search(r"\bexit (\d+)", note)
        assert code == (int(want.group(1)) if want else 0), command
        prints = re.search(r"\bprints (\S+)", note)
        if prints:
            assert out.splitlines()[-1] == prints.group(1), command


def test_library_sketch_runs():
    namespace: dict = {}
    exec(_block("## Library sketch", "python"), namespace)
    assert namespace["ok"] and namespace["width"].width == 3
