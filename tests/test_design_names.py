"""DESIGN.md names only code and tests that exist.

DESIGN.md describes the system as it is, so every code name it quotes
in backticks must be one the code defines or uses, and every test file
and test id it cites must exist.  A name that survives only in the doc
describes code that is gone: a rename or a deletion has to take its
description along, or move it to the §4 "Retired" table, the one place
where deleted modules are named (each beside the commit that restores
it).  Tried-and-dropped alternatives are described in words.

What is checked:

* every ``tests/…py`` path (and any other ``.py`` path) names a file,
  and every ``::name`` after it is a class or function of that file;
* every backticked code name -- dotted (``Overlay.connect``), private
  (``_pending``), CamelCase (``FaultPlan``) or snake_case
  (``live_slots``) -- occurs in a ``.py`` file under ``src/``,
  ``tests/``, ``bench/``, ``examples/`` or ``benchmarks/``.  A dotted
  name resolves through a module path, a class and its members, or an
  attribute that some code reads or defines.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_CODE = ("src", "tests", "bench", "examples", "benchmarks")
#: Library names quoted for what they cost or how they behave, which no
#: file of this repository spells out.
_LIBRARY = frozenset({"np.prod", "NamedTuple", "ensure_ascii"})

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
#: A code name: an identifier chain, then optional call or index suffixes.
_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\)|\[[^`]*\])*")
_PATH = re.compile(r"((?:[\w.-]+/)*[\w-]+\.py)((?:::\w+)*)")
_FILE_SUFFIX = re.compile(r"\.(?:py|json|jsonl|md|yml|txt|toml|ckpt|crash|pyc)$")


def _is_code_name(name: str) -> bool:
    """Dotted, private, snake_case or CamelCase -- not a plain word."""
    return (
        "." in name
        or "_" in name
        or re.fullmatch(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+", name) is not None
    )


def _retired_table(design: str) -> str:
    """The §4 "Retired" table, which names deleted code on purpose."""
    match = re.search(r"^### Retired\b.*?(?=^#{2,3} )", design, re.M | re.S)
    return match.group(0) if match else ""


def _spans(design: str) -> list:
    text = _FENCE.sub("", design.replace(_retired_table(design), ""))
    return [span.strip() for span in _SPAN.findall(text)]


def _py_files():
    """The code a name may come from; not this module, whose fixtures
    spell out names that do not exist."""
    for tree in _CODE:
        for path in sorted((_ROOT / tree).rglob("*.py")):
            if path != Path(__file__).resolve():
                yield path


class _Corpus:
    """What the code defines and uses, read once."""

    def __init__(self) -> None:
        self.text = []
        self.words: set = set()
        self.attrs: set = set()  # every ``x.attr`` read and every member
        self.members: dict = {}  # class name -> names defined on it
        self.bases: dict = {}  # class name -> base class names
        self.modules: dict = {}  # "repro.a.b" -> top-level names
        for path in _py_files():
            source = path.read_text(encoding="utf-8")
            self.text.append(source)
            self.words.update(re.findall(r"[A-Za-z_]\w*", source))
            try:
                tree = ast.parse(source)
            except SyntaxError:  # pragma: no cover - every file parses
                continue
            self._read(path, tree)

    def _read(self, path: Path, tree: ast.Module) -> None:
        top = set()
        for node in tree.body:
            top.update(_bound(node))
        rel = path.relative_to(_ROOT).with_suffix("")
        if rel.parts[0] == "src":
            parts = rel.parts[1:]
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.modules[".".join(parts)] = top
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                self.attrs.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                names = self.members.setdefault(node.name, set())
                for item in node.body:
                    names.update(_bound(item))
                for item in ast.walk(node):
                    if (
                        isinstance(item, ast.Attribute)
                        and isinstance(item.ctx, ast.Store)
                        and isinstance(item.value, ast.Name)
                        and item.value.id == "self"
                    ):
                        names.add(item.attr)
                self.attrs.update(names)
                self.bases.setdefault(node.name, set()).update(
                    b.id for b in node.bases if isinstance(b, ast.Name)
                )

    def member(self, cls: str, name: str, seen=()) -> bool:
        if name in self.members.get(cls, ()):
            return True
        return any(
            self.member(base, name, (*seen, cls))
            for base in self.bases.get(cls, ())
            if base not in seen
        )

    def literal(self, name: str) -> bool:
        pattern = re.compile(rf"(?<![\w.]){re.escape(name)}(?!\w)")
        return any(pattern.search(text) for text in self.text)

    def resolves(self, name: str) -> bool:
        if "." not in name:
            return name in self.words
        if self.literal(name):
            return True
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):  # a module path, then its names
            module = ".".join(parts[:cut])
            for key, top in self.modules.items():
                if key == module or key.endswith(f".{module}"):
                    rest = parts[cut:]
                    if not rest:
                        return True
                    if rest[0] in top and self._chain(rest):
                        return True
        return self._chain(parts)

    def _chain(self, parts) -> bool:
        head, rest = parts[0], parts[1:]
        if head in self.members:
            if not self.member(head, rest[0]):
                return False
            rest = rest[1:]
        elif head not in self.words:
            return False
        return all(part in self.attrs for part in rest)


def _bound(node) -> set:
    """Names a module- or class-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        names = {t.id for t in node.targets if isinstance(t, ast.Name)}
        if "__slots__" in names and isinstance(node.value, (ast.Tuple, ast.List)):
            names.update(
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            )
        return names
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {(a.asname or a.name).split(".")[0] for a in node.names}
    if isinstance(node, (ast.If, ast.Try)):
        return set().union(*(_bound(n) for n in node.body), set())
    return set()


@lru_cache(maxsize=None)
def _corpus() -> _Corpus:
    return _Corpus()


def _code_names(design: str) -> list:
    names = []
    for span in _spans(design):
        match = _NAME.fullmatch(span)
        if match is None or _FILE_SUFFIX.search(match.group(1)):
            continue
        name = match.group(1)
        if _is_code_name(name) and name not in _LIBRARY:
            names.append(name)
    return names


def _unknown_names(design: str) -> list:
    corpus = _corpus()
    return sorted({n for n in _code_names(design) if not corpus.resolves(n)})


def _defines(path: Path, name: str) -> bool:
    """``name`` is a class, a function or a module-level assignment (a
    Hypothesis state machine's ``TestCase``) of the file at ``path``."""
    pattern = rf"^(?:\s*(?:async\s+)?(?:def|class)\s+{name}\b|{name}\s*=)"
    return re.search(pattern, path.read_text(), re.M) is not None


def _resolve_path(path: str):
    if "/" in path:
        for base in (_ROOT, _ROOT / "src" / "repro", _ROOT / "src"):
            if (base / path).is_file():
                return base / path
        return None
    for tree in _CODE:
        for found in (_ROOT / tree).rglob(path):
            return found
    return None


def _dangling_tests(design: str) -> list:
    text = design.replace(_retired_table(design), "")
    dangling = []
    for path, ids in sorted(set(_PATH.findall(text))):
        found = _resolve_path(path)
        if found is None:
            dangling.append(path)
            continue
        dangling += [
            f"{path}::{name}"
            for name in ids.split("::")[1:]
            if not _defines(found, name)
        ]
    return dangling


def _design() -> str:
    return (_ROOT / "DESIGN.md").read_text(encoding="utf-8")


def test_every_cited_test_and_file_exists():
    dangling = _dangling_tests(_design())
    assert not dangling, f"DESIGN.md cites files or tests that do not exist: {dangling}"


def test_every_quoted_code_name_exists():
    assert len(_code_names(_design())) > 100, "the span pattern has gone stale"
    unknown = _unknown_names(_design())
    assert not unknown, f"DESIGN.md names code that no .py file has: {unknown}"


def test_the_check_reads_each_form():
    design = (
        "`Overlay.add_peer(pid, role)` and `store.sn[slot]`, "
        "`repro.sim.rng.RngStreams`, `experiments.checkpoint`, `_pending`,\n"
        "`figure6`, `np.prod`, `bench/run.py`, `sum(t) / len(t)`\n"
        "```\n`_NotAName`\n```\n"
        "### Retired\n| `search.walkers` | `57f76e5` |\n### Next\n"
        "`Overlay.connect_leaves`, `PeerStore.slots_of`, `store.slot(lid)`, "
        "`_Replay`, `RandomPolicy`, `repro.sim.nowhere`\n"
        "`tests/sim/test_rng.py` `tests/sim/test_nothing.py` "
        "`test_scheduler_props.py::test_wheel_matches_heap_oracle` "
        "`tests/sim/test_rng.py::TestNothing`\n"
    )
    assert _code_names(design)[:5] == [
        "Overlay.add_peer",
        "store.sn",
        "repro.sim.rng.RngStreams",
        "experiments.checkpoint",
        "_pending",
    ]
    assert _unknown_names(design) == [
        "Overlay.connect_leaves",
        "PeerStore.slots_of",
        "RandomPolicy",
        "_Replay",
        "repro.sim.nowhere",
        "store.slot",
    ]
    assert _dangling_tests(design) == [
        "tests/sim/test_nothing.py",
        "tests/sim/test_rng.py::TestNothing",
    ]
