"""Every ``DESIGN.md §n`` cited in the code or docs names a section that exists.

Code under ``src/``, ``tests/``, ``bench/``, ``examples/`` and
``benchmarks/``, and the docs (``README.md``, ``EXPERIMENTS.md``,
``docs/``), point readers at design notes by section number
("DESIGN.md §8", "DESIGN.md section 3"), and often at a subsection by
name ("DESIGN.md §8 \"Verdict path\"", "DESIGN.md §\"Observed
knowledge\"", or "DESIGN.md \"Interpretation decisions\"" without a
number).  When DESIGN.md is renumbered or a section or subsection is
retired or renamed, such a pointer silently leads nowhere; this check
fails instead, naming the file and line.  A quoted name matches when it
occurs, case-insensitively and with its line breaks and comment markers
folded to single spaces, in a ``### `` heading under the cited
``## n.`` section (under any section when no number is given).
"""

from __future__ import annotations

import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
#: A citation: the file name, then ``§n`` or ``section n``, possibly
#: across a line break inside a comment.
_CITATION = re.compile(r"DESIGN\.md,?[\s#]+(?:§\s*|section\s+)(\d+)")
#: A subsection citation: the file name, an optional section number
#: (or a bare ``§``), then the subsection's name in double quotes, which
#: may open a parenthesis (``§11 ("Name")``).
_QUOTED = re.compile(
    r'DESIGN\.md,?[\s#]+(?:(?:§\s*|section\s+)(\d+),?[\s#]+|§\s*)?\(?"([^"]+)"'
)
_HEADING = re.compile(r"^## (\d+)\. ", re.M)


#: Where citations are read: code trees, doc trees and top-level docs.
_ROOTS = ("src", "tests", "bench", "examples", "benchmarks", "docs")
_ROOTS += ("README.md", "EXPERIMENTS.md")
#: The cited file's name, spelt so that this module's own fixtures below
#: are not read as citations by the scan above.
_DOC = "DESIGN" + ".md"


def _sources():
    for root in _ROOTS:
        top = _ROOT / root
        for path in sorted([top] if top.is_file() else top.rglob("*")):
            if path.suffix in (".py", ".md") and path.is_file():
                yield path.relative_to(_ROOT), path.read_text(encoding="utf-8")


def _found(pattern, where, text):
    for match in pattern.finditer(text):
        yield f"{where}:{text.count(chr(10), 0, match.start()) + 1}", match


def _citations():
    for where, text in _sources():
        for at, match in _found(_CITATION, where, text):
            yield at, int(match.group(1))


def _normalise(name: str) -> str:
    """A quoted name with its line breaks (and a comment's ``#``) folded."""
    return " ".join(re.sub(r"\n\s*#", "\n", name).split()).lower()


def _subsections(design: str) -> dict:
    """``{n: [### heading, ...]}`` of each ``## n.`` section, lowercased."""
    headings: dict = {}
    section = None
    for line in design.splitlines():
        top = _HEADING.match(line)
        if top:
            section = int(top.group(1))
            headings[section] = []
        elif line.startswith("### ") and section is not None:
            headings[section].append(" ".join(line[4:].split()).lower())
    return headings


def _dangling_names(design: str, cited) -> list:
    subsections = _subsections(design)
    dangling = []
    for where, number, name in cited:
        pool = (
            [h for hs in subsections.values() for h in hs]
            if number is None
            else subsections.get(int(number), [])
        )
        if not any(_normalise(name) in h for h in pool):
            section = "" if number is None else f"§{number} "
            dangling.append(f'{where} cites {section}"{name}"')
    return dangling


def test_every_cited_design_section_exists():
    sections = {int(n) for n in _HEADING.findall((_ROOT / "DESIGN.md").read_text())}
    cited = list(_citations())
    assert cited, "no DESIGN.md citation found: the pattern has gone stale"
    dangling = [f"{where} cites §{n}" for where, n in cited if n not in sections]
    assert not dangling, f"DESIGN.md has no such section: {dangling}"


def test_every_quoted_subsection_exists():
    cited = [
        (at, m.group(1), m.group(2))
        for where, text in _sources()
        for at, m in _found(_QUOTED, where, text)
    ]
    assert cited, "no quoted DESIGN.md citation found: the pattern has gone stale"
    dangling = _dangling_names((_ROOT / "DESIGN.md").read_text(), cited)
    assert not dangling, f"DESIGN.md has no such subsection: {dangling}"


def test_the_pattern_reads_each_citation_form():
    text = f"see {_DOC} §8; {_DOC}, §10\n{_DOC} section 3\n# {_DOC}\n# §5"
    assert [int(n) for n in _CITATION.findall(text)] == [8, 10, 3, 5]
    quoted = f"""see {_DOC} §8 "Verdict
    # path"; {_DOC} "Aggregate plane"; {_DOC} §"Observed
    knowledge"; {_DOC} §11 ("Partition map"); {_DOC} §9, ("Lazy timeouts")."""
    assert _QUOTED.findall(quoted) == [
        ("8", "Verdict\n    # path"),
        ("", "Aggregate plane"),
        ("", "Observed\n    knowledge"),
        ("11", "Partition map"),
        ("9", "Lazy timeouts"),
    ]
    design = "## 5. Notes\n### Aggregate plane: O(1)\n## 8. Core\n### Verdict path (PR 21)\n"
    cited = [("a", "8", "Verdict\n# path"), ("b", None, "aggregate PLANE")]
    assert _dangling_names(design, cited) == []
    # A name under the wrong section, or under none, does not resolve.
    cited = [("c", "5", "Verdict path"), ("d", None, "Lazy timeouts")]
    assert _dangling_names(design, cited) == [
        'c cites §5 "Verdict path"',
        'd cites "Lazy timeouts"',
    ]
