"""The size ratchet: ``src/`` may not grow past the number in SIZE_BUDGET.

``tests/SIZE_BUDGET`` holds one integer, the largest line count of
``src/**/*.py`` the suite accepts.  A simplicity change lowers it to its
own final count.  A change that has to raise it says why in CHANGES.md,
so the reason is in the same diff as the new number.
"""

from __future__ import annotations

from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def src_lines() -> int:
    """Lines of every Python file under ``src/``."""
    return sum(
        len(path.read_bytes().splitlines()) for path in (_ROOT / "src").rglob("*.py")
    )


def test_src_is_within_the_size_budget():
    budget = int((_ROOT / "tests" / "SIZE_BUDGET").read_text())
    lines = src_lines()
    assert lines <= budget, (
        f"src/ is {lines} lines, over the budget of {budget} in tests/SIZE_BUDGET: "
        "cut lines, or raise the budget and say why in CHANGES.md"
    )
