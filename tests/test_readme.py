"""README's ``## Library`` example runs as printed, and the claims its
comments state hold; each ``cmjsim`` line of its ``## Command line`` block
exits 0 and prints one strict-JSON report, and those lines name exactly the
CLI's subcommands."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from cmjsim import cli
from cmjsim.cli import EXIT_OK, main
from test_cli import strict_json

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_and_its_comment_claims_hold(capsys):
    code = _library_example()
    claims = [line.lstrip("# ") for line in code.splitlines() if line.startswith("# ")]
    assert claims  # the example states what it computes
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out  # it prints the report's verdict
    for claim in claims:
        # a comment is a comma-separated list of Python expressions
        assert all(eval(f"({claim},)", namespace)), claim


def _command_lines() -> list[str]:
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("cmjsim ")]


@pytest.mark.parametrize("line", _command_lines(), ids=lambda line: line.split()[1])
def test_readme_command_line_prints_one_json_report(line, tmp_path, capsys):
    # out/... lands in tmp_path; everything else runs as printed
    argv = [str(tmp_path / a) if a.startswith("out/") else a for a in shlex.split(line, comments=True)[1:]]
    assert main(argv) == EXIT_OK
    report = strict_json(capsys.readouterr().out)
    assert report.get("verdict", "PASS") == "PASS"
    if argv[0] == "simulate":  # the report is the batch summary; --out is the CSV
        assert report["csv"] == argv[argv.index("--out") + 1]
        assert Path(report["csv"]).read_text().startswith("index,")


def test_the_docs_name_exactly_the_subcommands():
    # README's command-line block and cli.py's module docstring
    listed = cli.__doc__.split("Subcommands::\n\n", 1)[1].split("\n\n", 1)[0]
    assert [line.split()[0] for line in listed.splitlines()] == list(cli._COMMANDS)
    assert [line.split()[1] for line in _command_lines()] == list(cli._COMMANDS)


def test_readme_states_the_source_line_count():
    # "Per-model costs" states the lines in src/cmjsim/*.py
    stated = re.findall(r"`src/cmjsim` is\s+([\d,]+) lines", README.read_text())
    src = README.parent / "src" / "cmjsim"
    assert stated == [f"{sum(len(p.read_bytes().splitlines()) for p in src.glob('*.py')):,}"]
