import re
import shlex
from pathlib import Path

import pytest

from petdom.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    # the README's python block, executed as written
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2] == str([4, 4, 5, 6, 6, 8, 8, 8, 9, 10, 10, 12, 12, 12, 13, 14])


# the README's CLI examples: the lines of its sh blocks that start with petdom
CLI_EXAMPLES = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    for line in block.splitlines()
    if line.startswith("petdom ")
]


def test_cli_examples_found():
    assert len(CLI_EXAMPLES) == 6


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_cli_example_exits_0(line, capsys):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
