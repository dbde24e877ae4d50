"""README's ``## Library`` example runs as printed, and the claims its
comments state hold."""

from __future__ import annotations

import re
from pathlib import Path

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
