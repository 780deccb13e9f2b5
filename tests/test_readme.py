"""README examples run as written: the command-line session and the Library snippets."""

import ast
import re
from pathlib import Path

import pytest

from z4lcd import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(heading, language):
    """The fenced blocks of the given language in a README section, in order."""
    text = README.read_text()
    section = text[text.index(f"\n## {heading}\n") + 1:]
    section = section[:section.find("\n## ") + 1 or None]
    return re.findall(rf"```{language}\n(.*?)```", section, re.S)


def _console_session():
    """(argv, expected stdout) for each `$ z4lcd ...` command of the block."""
    runs = []
    for chunk in _blocks("Command line", "console")[0].strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ z4lcd ")
        runs.append((command.split()[2:], "".join(line + "\n" for line in output)))
    return runs


SESSION = _console_session()


def test_console_block_has_seven_commands():
    assert len(SESSION) == 7


@pytest.mark.parametrize("argv, expected", SESSION, ids=[" ".join(a) for a, _ in SESSION])
def test_console_output(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def test_library_snippet():
    """Each bare expression equals the literal in the comment after it.

    The section's blocks run in order in one namespace, as a reader would
    type them; prose goes on a comment line of its own.
    """
    lines = "".join(_blocks("Library", "python")).splitlines()
    namespace = {}
    checked = 0
    for k, line in enumerate(lines):
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        statement = ast.parse(code.strip()).body[0]
        if not isinstance(statement, ast.Expr):
            exec(code.strip(), namespace)
            continue
        if not comment and k + 1 < len(lines) and lines[k + 1].startswith("#"):
            comment = lines[k + 1][1:]
        assert eval(code.strip(), namespace) == ast.literal_eval(comment.strip())
        checked += 1
    assert checked == 5
