import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    # the README's python block, executed as written
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2] == str([4, 4, 5, 6, 6, 8, 8, 8, 9, 10, 10, 12, 12, 12, 13, 14])
