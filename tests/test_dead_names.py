"""Every function, method and class defined in src/ghfp is used: its name
appears, as a whole word, somewhere in src/ghfp/*.py or perfbench/*.py
other than at its own definition.  A name only the tests use belongs in the
tests.  Exports in ghfp/__init__.py count as uses."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# brute-force oracles kept beside the fast paths they check
ORACLES = {"star_oracle"}


def _definitions(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name


def test_every_library_name_is_used():
    library = sorted((ROOT / "src" / "ghfp").glob("*.py"))
    texts = [p.read_text() for p in library
             + sorted((ROOT / "perfbench").glob("*.py"))]
    defined = [name for p in library for name in _definitions(p)]
    assert len(defined) > 100  # the scan found the library
    dead = []
    for name in sorted(set(defined)):
        if (name.startswith("__") and name.endswith("__")) or name in ORACLES:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        uses = sum(len(word.findall(t)) for t in texts)
        if uses <= defined.count(name):
            dead.append(name)
    assert not dead, f"defined in src/ghfp but used nowhere: {dead}"
