"""The code-line counter runs as a script, and its total adds up."""

import subprocess
import sys
from pathlib import Path

from code_lines import PACKAGE, code_lines

SCRIPT = Path(__file__).resolve().parent / "code_lines.py"


def test_script_total_is_the_sum_of_its_rows():
    result = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    *rows, total = [line.split() for line in result.stdout.splitlines()]
    assert total[1] == "total"
    assert {name for _, name in rows} == {path.name for path in PACKAGE.glob("*.py")}
    assert int(total[0]) == sum(int(n) for n, _ in rows) > 0


def test_prose_is_not_code():
    source = ('"""Module docstring."""\n'
              "\n"
              "# a comment\n"
              "def f(x):\n"
              '    """Function\n'
              '    docstring."""\n'
              "    return (x +  # trailing comment\n"
              "            1)\n"
              "\n"
              "class C:\n"
              '    """Class docstring."""\n'
              '    text = """not\n'
              '    a docstring"""\n')
    # def, both return lines, class, both lines of the string assignment
    assert code_lines(source) == 6
