"""Every ``DESIGN.md §n`` cited in the code names a section that exists.

Code under ``src/``, ``tests/`` and ``bench/`` points readers at design
notes by section number ("DESIGN.md §8", "DESIGN.md section 3").  When
DESIGN.md is renumbered or a section retires, such a pointer silently
leads nowhere; this check fails instead, naming the file and line.
"""

from __future__ import annotations

import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
#: A citation: the file name, then ``§n`` or ``section n``, possibly
#: across a line break inside a comment.
_CITATION = re.compile(r"DESIGN\.md,?[\s#]+(?:§\s*|section\s+)(\d+)")
_HEADING = re.compile(r"^## (\d+)\. ", re.M)


def _citations():
    for tree in ("src", "tests", "bench"):
        for path in sorted((_ROOT / tree).rglob("*")):
            if path.suffix not in (".py", ".md") or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8")
            for match in _CITATION.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                yield f"{path.relative_to(_ROOT)}:{line}", int(match.group(1))


def test_every_cited_design_section_exists():
    sections = {int(n) for n in _HEADING.findall((_ROOT / "DESIGN.md").read_text())}
    cited = list(_citations())
    assert cited, "no DESIGN.md citation found: the pattern has gone stale"
    dangling = [f"{where} cites §{n}" for where, n in cited if n not in sections]
    assert not dangling, f"DESIGN.md has no such section: {dangling}"


def test_the_pattern_reads_each_citation_form():
    text = "see DESIGN.md §8; DESIGN.md, §10\nDESIGN.md section 3\n# DESIGN.md\n# §5"
    assert [int(n) for n in _CITATION.findall(text)] == [8, 10, 3, 5]
