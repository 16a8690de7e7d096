"""README.md's "Library use" block runs as written, and each ``# value``
comment gives the value of the expression on its line, so the documented
public surface cannot change silently."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs_as_documented():
    namespace = {}
    checked = []
    for line in library_use_block().splitlines():
        code, _, comment = line.partition(" # ")
        if not comment:
            exec(code, namespace)
            continue
        expected = ast.literal_eval(comment.strip())
        assert eval(code, namespace) == expected, line
        checked.append(line)
    assert checked
