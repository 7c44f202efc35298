"""The code-line rule of ``tools/code_lines.py``."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''\
"""Module docstring,
over two lines."""

# a comment
def f(a, b):
    """Docstring."""

    return max(  # a trailing comment
        a,
        b,
    )
'''


def test_rule_on_a_snippet():
    # Counted: the def line and the four lines of the return statement.
    assert code_lines.code_lines(SNIPPET) == 5


def test_string_in_an_expression_counts():
    assert code_lines.code_lines('x = """a\nb"""\n"""doc"""\n') == 2


def test_prints_each_file_and_the_total():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    names = [name for _, name in rows]
    assert names[-1] == "total" and "pipeline.py" in names
    assert int(rows[-1][0]) == sum(int(n) for n, _ in rows[:-1])


def test_base_prints_before_after_and_delta(tmp_path):
    """Run from a copy of the checkout whose ``errors.py`` gains one code
    line, against this checkout as the base."""
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src" / "rtlforge", copy / "src" / "rtlforge",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "code_lines.py", copy / "tools")
    errors = copy / "src" / "rtlforge" / "errors.py"
    errors.write_text(errors.read_text(encoding="utf-8") + "\nEXTRA = 1\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(copy / "tools" / "code_lines.py"), "--base", str(ROOT)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["before", "after", "delta", "file"]
    rows = {line.split()[3]: line.split()[:3] for line in lines}
    assert list(rows)[-1] == "total" and "pipeline.py" in rows
    for name, (before, after, delta) in rows.items():
        gained = 1 if name in ("errors.py", "total") else 0
        assert int(after) - int(before) == gained and delta == f"{gained:+d}", name
