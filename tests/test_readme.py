"""The Library section of the README is the public surface: its snippet
must run as written and print what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(library_snippet(), {})
    assert out.getvalue().splitlines() == ["[1, 9, 9, 1]", "14", "6"]
