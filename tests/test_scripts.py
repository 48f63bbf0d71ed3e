"""Smoke tests of the scripts under ``scripts/``, run as a user runs them."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_generic_vs_invariant_prints_the_gap():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "generic_vs_invariant.py"),
         "det:2", "monprod:4", "matmul:2,2,2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == [
        "form", "sylvester", "ranestad_schreyer", "generic", "distinguished", "direction",
    ]
    rows = {cells[0]: cells for cells in (line.split(maxsplit=5) for line in lines)}
    assert list(rows) == ["det:2", "monprod:4", "matmul:2,2,2"]
    assert rows["monprod:4"][3:5] == ["6", "8"]
    assert rows["matmul:2,2,2"][2] == "13/2"
    assert rows["matmul:2,2,2"][4] == "9"
    assert rows["matmul:2,2,2"][5] == "d_x[1,1] + d_y[1,1]"


CODE_LINES_FIXTURE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """One line."""
    s = """a string, not
a docstring"""
    return x


class C:
    \'\'\'Class
    docstring.\'\'\'

    y = 1
'''


def test_code_lines_counts_code_but_not_docstrings_comments_or_blanks(tmp_path):
    # import, def, the two lines of the string, return, class, y = 1
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("# only a comment\n\n", encoding="utf-8")
    (package / "mod.py").write_text(CODE_LINES_FIXTURE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(package)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["0", str(package / "__init__.py")],
        ["7", str(package / "mod.py")],
        ["7", "total"],
    ]


def test_compare_outputs_reports_a_changed_output_string(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
    )
    compare_outputs = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the script is executed
    monkeypatch.setitem(sys.modules, "compare_outputs", compare_outputs)
    spec.loader.exec_module(compare_outputs)
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "src" / "apolar" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("apolar length: ") == 1
    cli.write_text(text.replace("apolar length: ", "apolar length = "), encoding="utf-8")
    argvs = [
        ("hilbert", "--form", "builtin:det:2"),
        ("hilbert", "--form", "builtin:det:2", "--format", "json"),
        ("bounds", "--form", "builtin:nosuch:2"),
    ]
    invs = [compare_outputs.cli(" ".join(argv), argv, tmp_path) for argv in argvs]
    assert compare_outputs.compare(ROOT, ROOT, invs) == {}
    report = compare_outputs.compare(ROOT, changed, invs)
    assert list(report) == ["hilbert --form builtin:det:2"]
    lines = report["hilbert --form builtin:det:2"]
    assert lines[0] == "  stdout differs:"
    assert "    -apolar length: 6" in lines and "    +apolar length = 6" in lines
