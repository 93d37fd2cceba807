"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    assert "assert " in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # the printed values are the ones its comments show
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("[Fraction(1, 1), Fraction(-1, 1), Fraction(3, 1), Fraction(-6, 1)")
    assert lines[1] == "-ell"


def test_command_line_kind_table_is_cli_kinds():
    # the README's table of kinds lists cli.KINDS row by row, in order; an
    # option read at every dimension its kind takes names no dimensions
    from dtvertex.cli import KINDS

    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert rows == [
        [
            "`%s`" % kind,
            rule[1],
            ", ".join(
                "`%s`" % flag + ("" if when is rule else " with " + when[1])
                for flag, when in options.items()
            ),
        ]
        for kind, (_, rule, options) in KINDS.items()
    ]
