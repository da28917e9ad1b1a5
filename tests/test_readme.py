"""The examples in README.md give the results it states."""
import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from transfinite.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _commands():
    # The arguments of every `transfinite ...` line in the shell blocks.
    return [shlex.split(line, comments=True)[1:]
            for block in _blocks("sh") for line in block.splitlines()
            if line.startswith("transfinite ")]


def test_python_block_prints_its_comments():
    (block,) = _blocks("python")
    out = io.StringIO()
    with redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == "w^w\nw^w\n"


@pytest.mark.parametrize("argv, printed", [
    (["eval", "H(4,3,3)"], "7625597484987"),
    (["eval", "S(4,2,w+1)"], "w^2"),
    (["cmp", "w*2", "w+w"], "="),
])
def test_command_line_example(capsys, argv, printed):
    assert argv in _commands()
    assert main(argv) == 0
    assert capsys.readouterr().out == printed + "\n"
