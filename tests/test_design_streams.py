"""DESIGN.md §8's stream table names every stream the code draws from.

"Draw by the block" lists each named ``RngStreams`` stream with its
reader, whether it reads ahead and whether its vector draw splits.  A
stream added, renamed or dropped without its row leaves the table
describing another system.  So this check collects every literal name
passed to ``rng.get("…")`` or ``rng.prefetch("…")`` under
``src/repro/`` and holds that set equal to the table's first column.

A row's first cell names its streams in backticks; a trailing
"under `Law`" qualifies the row by the law that reads the stream and
names no stream.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _is_streams(node: ast.expr) -> bool:
    """``rng`` or ``….rng``: an :class:`RngStreams` by this repo's naming."""
    return (isinstance(node, ast.Name) and node.id == "rng") or (
        isinstance(node, ast.Attribute) and node.attr == "rng"
    )


def _code_streams() -> tuple:
    """(literal stream names, calls whose name is not a literal)."""
    names, computed = set(), []
    for path in sorted((_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "prefetch")
                and _is_streams(node.func.value)
            ):
                continue
            arg = node.args[0] if node.args else None
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.add(arg.value)
            else:
                computed.append(f"{path.relative_to(_ROOT)}:{node.lineno}")
    return names, computed


def _table_streams(design: str) -> set:
    section = re.search(r"^### Draw by the block\b.*?(?=^#{2,3} )", design, re.M | re.S)
    assert section, "DESIGN.md has no 'Draw by the block' section"
    rows = re.findall(r"^\| stream \|.*?\n((?:\|.*\n)+)", section.group(0), re.M)
    assert rows, "the section has no stream table"
    names = set()
    for row in rows[0].splitlines()[1:]:  # past the |---| rule
        cell = row.split("|")[1].split(" under ")[0]
        names.update(re.findall(r"`([^`]+)`", cell))
    return names


def test_the_stream_table_lists_every_stream_the_code_names():
    code, computed = _code_streams()
    assert not computed, f"streams named by a computed value: {computed}"
    assert len(code) > 10, "the call pattern has gone stale"
    design = (_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    table = _table_streams(design)
    assert table - code == set(), "DESIGN.md §8 lists streams no code draws from"
    assert code - table == set(), "streams missing from DESIGN.md §8's table"


def test_the_check_reads_each_form():
    design = (
        "### Draw by the block\n\n"
        "| stream | reader | ahead | split |\n|---|---|---|---|\n"
        "| `a` | x | no | yes |\n"
        "| `b`, `c` | x | no | yes |\n"
        "| `a` under `SomeLaw` | x | yes | no |\n\n"
        "| choice | alternative |\n|---|---|\n| `d` | `e` |\n"
        "### Next\n| stream | reader |\n|---|---|\n| `f` | x |\n"
    )
    assert _table_streams(design) == {"a", "b", "c"}
