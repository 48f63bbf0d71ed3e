"""The Library section of the README is the public surface: its snippet
must run as written and print what its comments say.  The commands of
its Command line section must run too, and its stated limits hold."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from apolar import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(library_snippet(), {})
    assert out.getvalue().splitlines() == ["[1, 9, 9, 1]", "14", "6"]


def command_lines() -> list[list[str]]:
    """The arguments of each ``apolar ...`` line of the Command line
    section's shell block, comments dropped."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(ln, comments=True) for ln in block.splitlines()]
    return [words[1:] for words in lines if words and words[0] == "apolar"]


def decomposition_example() -> str:
    """The example file of the README's decomposition-file paragraph."""
    section = README.read_text(encoding="utf-8").split("Decomposition files", 1)[1]
    return re.search(r"```\n(.*?)```", section, re.S).group(1)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "intro.dec").write_text(decomposition_example(), encoding="utf-8")
    outputs = {}
    for argv in command_lines():
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        outputs[" ".join(argv)] = out
    assert len(outputs) == 8
    verify = "verify-decomposition --form builtin:monprod:3 --file intro.dec"
    assert outputs[verify] == "pass (4 summands)\n"
    assert all(outputs.values())


def test_readme_high_power_passes_hilbert_and_bounds(tmp_path, capsys):
    assert "`x^20000` passes" in README.read_text(encoding="utf-8")
    path = tmp_path / "power.txt"
    path.write_text("x^20000\n", encoding="utf-8")
    for command in ("hilbert", "bounds"):
        code, out, err = run(capsys, [command, "--form", str(path)])
        assert (code, err) == (0, ""), command
        assert out, command
