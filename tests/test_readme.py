"""The README's library example runs as written and prints what it says."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue() == "(0,) 5\n(0, 1) 4\n5 Z2\n"
