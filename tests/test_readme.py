"""README drift: every `$ primework ...` example in README.md is run
in-process through cli.main, and its stdout is compared with the lines
shown under it.  A line `...` stands for any run of lines."""

import re
import shlex
from pathlib import Path

import pytest

from primework.cli import main

README = Path(__file__).parent.parent / "README.md"


def _examples(text: str) -> list[tuple[list[str], list[str]]]:
    """(argv, expected lines) per example: the lines after a `$ primework`
    line, up to a blank line, the next example or the end of the fence."""
    out = []
    current = None
    in_fence = False
    for line in text.splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            current = None
        elif in_fence and line.startswith("$ primework "):
            current = []
            out.append((shlex.split(line)[2:], current))
        elif current is not None and line.strip():
            current.append(line)
        else:
            current = None
    return out


def _pattern(lines: list[str]) -> str:
    return "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n"
                   for line in lines)


EXAMPLES = _examples(README.read_text())


def test_readme_has_examples():
    assert EXAMPLES


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[f"{i:02d}-{argv[0]}"
                              for i, (argv, _) in enumerate(EXAMPLES)])
def test_readme_example_output(capsys, monkeypatch, argv, expected):
    monkeypatch.delenv("WORKBENCH_CONFIG", raising=False)
    main(list(argv))
    out = capsys.readouterr().out
    assert re.fullmatch(_pattern(expected), out), out
